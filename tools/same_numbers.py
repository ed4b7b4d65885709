"""Compare the CSVs of every CLI command between another checkout and this one.

    python3 tools/same_numbers.py PARENT_CHECKOUT [--seeds 7,11]

The cases are the workloads of ``perfbench/workloads.py`` (read, never
written) at their own ``n`` and config, plus small fixed cases for the
commands no workload runs (``price-european``, ``check-schedule``,
``oracle``), one run whose flags override its config file, and two more
runs through ``BnsDriver.advance``: the BNS marginal sweep and the BNS
Asian grid at the default truncation power 1.  Each case
runs once from ``PARENT_CHECKOUT/src`` and once from this checkout's
``src``, for every seed, with the config's own ``threads`` and with
``--threads 1`` (one run when the two agree).  The script prints how many
CSV cells differ in each case and exits 1 if any cell differs or any run
fails, 0 otherwise.  It uses the standard library only; the runs go one at
a time.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import BNS, GRID, HESTON, WORKLOADS  # noqa: E402


@dataclass(frozen=True)
class Case:
    command: str
    config: dict  # config file keys; n_iters and out are added
    n_iters: int
    flags: tuple = ()  # more command-line flags, after --seed and --threads


CASES = {
    **{name: Case(wl.command, wl.config, wl.n_iters) for name, wl in WORKLOADS.items()},
    "heston-european": Case("price-european",
                            {**HESTON, **GRID, "replications": "2", "threads": "2"}, 3_000),
    "check-schedule": Case("check-schedule", {**HESTON, "scan_max": "20000"}, 1),
    "oracle": Case("oracle", {**HESTON, "strikes": "48,50,52", "oracle_paths": "400"}, 1),
    "heston-asian-flags": Case("price-asian", {**HESTON, **GRID, "parity": "on"}, 15_000,
                               ("--parity", "off", "--iters", "5000")),
    "bns-marginal": Case("stationary-stats", {**BNS}, 20_000),
    # without truncation_power, at the CLI's default power 1: more jumps per step
    "bns-asian-power1": Case("price-asian",
                             {**{k: v for k, v in BNS.items() if k != "truncation_power"},
                              **GRID, "parity": "on"}, 30_000),
}


def run_csv(src: Path, case: Case, seed: int, threads: int, tmp: Path) -> list[list[str]]:
    """The CSV rows of ``case`` run from ``src``; raises if the run fails."""
    out = tmp / "out.csv"
    cfg = tmp / "run.cfg"
    keys = dict(case.config, n_iters=str(case.n_iters), out=str(out))
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "statvol.cli", case.command, "--config", str(cfg),
         "--seed", str(seed), "--threads", str(threads), *case.flags],
        cwd=tmp, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode} from {src}: {proc.stderr.strip()}")
    with out.open(newline="") as fh:
        return list(csv.reader(fh))


def differing_cells(a: list[list[str]], b: list[list[str]]) -> tuple[int, int]:
    """Cells that differ between two CSVs, and the cells compared.

    A cell present in one CSV only counts as differing.
    """
    cells = [(x, y) for ra, rb in zip_longest(a, b, fillvalue=()) for x, y in zip_longest(ra, rb)]
    return sum(x != y for x, y in cells), len(cells)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare against")
    parser.add_argument("--seeds", default="7,11", help="comma-separated seeds (default 7,11)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = (args.parent.resolve() / "src", ROOT / "src")

    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, case in CASES.items():
            for seed in seeds:
                for threads in sorted({int(case.config.get("threads", 1)), 1}):
                    label = f"{name} seed={seed} threads={threads}"
                    try:
                        parent, change = [run_csv(src, case, seed, threads, tmp)
                                          for src in sides]
                        diff, total = differing_cells(parent, change)
                    except (RuntimeError, subprocess.TimeoutExpired) as exc:
                        print(f"{label}: run failed: {exc}")
                        bad += 1
                        continue
                    print(f"{label}: {diff} of {total} cells differ", flush=True)
                    bad += diff > 0
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
