"""Time the drivers' ``advance`` on fixed seeded blocks, in µs per step.

    python3 tools/advance_cost.py [OTHER_CHECKOUT]

Each case advances the 4096-step block from index 20001 of the default
schedule from the model's starting state, on the benchmark's parameter sets
(``HESTON`` and ``BNS`` of ``perfbench/workloads.py``, read, never written,
and parsed by the CLI's own config path): ``HestonDriver``, and
``BnsDriver`` at truncation powers 1 and 2.  Every call gets a fresh driver
and a fresh ``stream(5, 0)``, so each one draws the same numbers.  A case
reads the best of 9 timings of 10 calls each, per step; the timings run in
their own interpreter on ``src`` of this checkout.  Given
``OTHER_CHECKOUT``, its ``src`` runs the same cases too: the two sides
alternate three times, each keeps its best, and the script prints the two
columns and their ratio.  It uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import BNS, HESTON  # noqa: E402

FIRST = 20_001  # index of the block's first state
STEPS = 4096  # the engine's block size
SEED = 5
NUMBER = 10  # calls per timing
REPEAT = 9  # timings per case
ROUNDS = 3  # alternations of the two sides
# config keys of each case; BNS carries truncation_power 2
CONFIGS = {"heston": HESTON, "bns power 1": {**BNS, "truncation_power": "1"}, "bns power 2": BNS}


def _config(keys: dict):
    """``keys`` parsed as a config file's would be, by the ``statvol`` on ``sys.path``."""
    from statvol import cli

    cfg = cli.RunConfig()
    for key, raw in keys.items():
        setattr(cfg, key, cli._parse(key, raw, ""))
    return cfg


def measure() -> dict:
    """``{case: best µs per step}`` of this interpreter's ``statvol``."""
    import warnings

    from statvol import cli
    from statvol.rng import stream

    out = {}
    for case, keys in CONFIGS.items():
        cfg = _config(keys)
        gam = cli._build_schedule(cfg).gamma_slice(FIRST, FIRST + STEPS)
        with warnings.catch_warnings():
            # the benchmark Heston set violates the sufficient convergence condition
            warnings.simplefilter("ignore", RuntimeWarning)
            params = cli._build_params(cfg)
        driver_class = cli._DRIVERS[cfg.model]
        state = driver_class(params).initial_state()
        driver_class(params).advance(state, FIRST, gam, stream(SEED, 0))  # warm up
        best = float("inf")
        for _ in range(REPEAT):
            calls = [(driver_class(params), stream(SEED, 0)) for _ in range(NUMBER)]
            t0 = time.perf_counter()
            for driver, rng in calls:
                driver.advance(state, FIRST, gam, rng)
            best = min(best, time.perf_counter() - t0)
        out[case] = best / (NUMBER * STEPS) * 1e6
    return out


def run_side(src: Path) -> dict:
    """:func:`measure` in a new interpreter with ``src`` on its path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--child"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", type=Path, help="a checkout to compare against")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure()))
        return 0

    sides = [ROOT / "src"] if args.other is None else [args.other.resolve() / "src", ROOT / "src"]
    best = [dict.fromkeys(CONFIGS, float("inf")) for _ in sides]
    for r in range(ROUNDS if args.other is not None else 1):
        order = range(len(sides)) if r % 2 == 0 else reversed(range(len(sides)))
        for k in order:
            for case, us in run_side(sides[k]).items():
                best[k][case] = min(best[k][case], us)

    print(f"advance, µs per step: {STEPS} steps from index {FIRST}, seed {SEED}, "
          f"best of {REPEAT} x {NUMBER}")
    if args.other is None:
        for case in CONFIGS:
            print(f"{case:12s} {best[0][case]:8.3f}")
    else:
        print(f"{'':12s} {'other':>8s} {'this':>8s} {'this/other':>10s}")
        for case in CONFIGS:
            a, b = best[0][case], best[1][case]
            print(f"{case:12s} {a:8.3f} {b:8.3f} {b / a:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
