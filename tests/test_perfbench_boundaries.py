"""The boundaries that the benchmark's tracer wraps still exist.

``perfbench/tracer.py`` times the program from outside by replacing module
and class attributes with wrappers before the CLI runs: the drivers'
``price_path`` and ``step``, ``levy.compound_poisson_increment`` and
``sample_jump_above``, ``Schedule.horizon_index`` and ``ensure``,
``FunctionalAverage.update``, ``MarginalAccumulator.update``,
``pricing.implied_vol``, ``engine.run``, ``cli._map_reps`` and
``cli.load_config``.  The benchmark's own smoke test is not part of this
suite, so without this check a renamed or removed attribute would break
only traced benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from statvol import cli, engine, levy, models, pricing, schedule
from tracer import Tracer
Tracer().install(cli, engine, levy, models, pricing, schedule)
"""


def test_tracer_installs_on_the_package():
    # in a fresh interpreter: installing replaces the attributes for good
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
