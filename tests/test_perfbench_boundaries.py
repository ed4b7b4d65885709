"""The boundaries that the benchmark's tracer wraps still exist.

``perfbench/tracer.py`` times the program from outside by replacing module
and class attributes with wrappers before the CLI runs: the drivers'
``price_path`` and ``step``, ``levy.compound_poisson_increment`` and
``sample_jump_above``, ``Schedule.horizon_index`` and ``ensure``,
``FunctionalAverage.update``, ``MarginalAccumulator.update``,
``pricing.implied_vol``, ``engine.run``, ``cli._map_reps`` and
``cli.load_config``.  The benchmark's own smoke test is not part of this
suite, so without this check a renamed or removed attribute would break
only traced benchmark runs.  Both drivers inherit ``step`` and
``price_path`` from one base, so the check also calls each once per
driver and counts the calls: each subclass is wrapped, and none twice.
A BNS run with frequent jumps checks that ``levy.jump`` counts every jump
the run draws, so a driver that drew its jumps past ``sample_jump_above``
fails here.  The benchmark's checks also count calls: one
``MarginalAccumulator.update`` per marginal point and one functional call
per window.  A sweep of each kind under the installed tracer pins those
counts, the marginal one for one coordinate and for two, so a sweep that
folded a block per call fails here until the tracer's boundaries move to
blocks.  A traced strike grid must also price as an untraced one: the
tracer replaces the functional with a plain wrapper, so the payoff row map
has to reach ``engine.run`` as its own argument.
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
tracer = Tracer()
tracer.install(cli, engine, levy, models, pricing, schedule)

# both drivers inherit step and price_path: each call is counted once
import warnings
from statvol.rng import stream
warnings.simplefilter("ignore", RuntimeWarning)
heston = models.HestonParams(s0=50.0, r=0.05, rho=0.5, k=2.0, theta=0.01, sigma_v=0.1)
bns = models.BNSParams(s0=50.0, r=0.05, rho=-1.0, mu=1.0,
                       jump=levy.TemperedStableMeasure(c=0.01, lam=1.0, alpha=0.5))
sched = schedule.make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
for driver in (models.HestonDriver(heston), models.BnsDriver(bns)):
    windows = []
    engine.run(driver, sched, lambda w: windows.append(w) or 0.0, T=1.0, n_iters=2,
               rng=stream(1, 0))
    driver.step(driver.initial_state(), 1, 0.5, stream(2, 0))
    driver.price_path(windows[0])
aggregates = tracer.report()["aggregates"]
counts = {name: aggregates[name]["calls"] for name in ("models.step", "models.price_path")}
assert counts == {"models.step": 2, "models.price_path": 2}, counts
"""


JUMPS = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2], sys.argv[3]]
import numpy as np
from statvol import cli, engine, levy, models, pricing, schedule
from statvol.rng import stream
from test_models import reference_bns_steps
from tracer import Tracer

# c = 0.5: a jump every few steps; the per-step scheme counts its jumps on
# the same stream before the tracer is installed
p = models.BNSParams(s0=50.0, r=0.05, rho=-1.0, mu=1.0,
                     jump=levy.TemperedStableMeasure(c=0.5, lam=1.0, alpha=0.5))
sched = schedule.make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
n, T = 3000, 1.0
last = sched.horizon_index(n - 1, T)
drawn = []
sample = levy.sample_jump_above
levy.sample_jump_above = lambda m, u, rng: drawn.append(u) or sample(m, u, rng)
ref = reference_bns_steps(p, list(models.BnsDriver(p).initial_state()),
                          sched.gamma_slice(1, last + 1).tolist(), stream(3, 0))
levy.sample_jump_above = sample

tracer = Tracer()
tracer.install(cli, engine, levy, models, pricing, schedule)
ends = []
engine.run(models.BnsDriver(p), sched, lambda w: ends.append(w.states(0)[-1]) or 0.0, T=T,
           n_iters=n, rng=stream(3, 0))
assert ends[-1] == ref[0, -1], (ends[-1], ref[0, -1])
jumps = tracer.report()["aggregates"]["levy.jump"]["calls"]
assert jumps == len(drawn) > 0, (jumps, len(drawn))
"""


COUNTS = """
import sys
import warnings
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from statvol import cli, engine, levy, models, pricing, schedule
from statvol.rng import stream
from tracer import Tracer

warnings.simplefilter("ignore", RuntimeWarning)
heston = models.HestonParams(s0=50.0, r=0.05, rho=0.5, k=2.0, theta=0.01, sigma_v=0.1)
sched = schedule.make_polynomial_schedule(1, 1 / 3, 1, 1 / 3)
specs = [pricing.AsianSpec(K=k, T=1.0, r=0.05) for k in (44.0, 50.0, 56.0)]
untraced = pricing.price_asian_grid(models.HestonDriver(heston), sched, specs, 300, stream(3, 0))

tracer = Tracer()
tracer.install(cli, engine, levy, models, pricing, schedule)

# marginal sweeps across a block boundary, on the one-coordinate path and on
# the general one: one update per point, no functional
n = 5000
assert n > engine._BLOCK
calls = 0
for dim in (1, 2):
    acc = engine.MarginalAccumulator(dim=dim, bins=50, lo=0.0, hi=0.04)
    engine.run(models.HestonDriver(heston), sched, None, T=None, n_iters=n, rng=stream(1, 0),
               marginal=acc)
    aggregates = tracer.report()["aggregates"]
    before, calls = calls, aggregates["engine.marginal"]["calls"]
    assert calls - before == n, (dim, calls - before)
assert "pricing.functional" not in aggregates, sorted(aggregates)

# a window sweep: one functional call per window
n = 300
engine.run(models.HestonDriver(heston), sched, lambda w: 0.0, 1.0, n, stream(2, 0))
aggregates = tracer.report()["aggregates"]
assert aggregates["pricing.functional"]["calls"] == n, aggregates["pricing.functional"]["calls"]

# a pricing sweep: one functional call per window, and the same estimates as
# untraced, since the tracer forwards the row map to engine.run untouched
before = aggregates["pricing.functional"]["calls"]
traced = pricing.price_asian_grid(models.HestonDriver(heston), sched, specs, 300, stream(3, 0))
calls = tracer.report()["aggregates"]["pricing.functional"]["calls"] - before
assert calls == 300, calls
assert traced == untraced, (traced, untraced)
"""


def test_tracer_installs_on_the_package():
    # in a fresh interpreter: installing replaces the attributes for good
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_every_bns_jump():
    # the tracer's levy.jump count is the number of jumps the run drew: a
    # driver that drew its jumps without levy.sample_jump_above would read 0
    proc = subprocess.run(
        [sys.executable, "-c", JUMPS, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(ROOT / "tests")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_per_point_and_per_window():
    # perfbench requires one engine.marginal call per marginal point and one
    # pricing.functional call per window; a sweep that folds per block reads less
    proc = subprocess.run(
        [sys.executable, "-c", COUNTS, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
