"""Compare the CSVs of the benchmark workloads between another checkout and this one.

    python3 tools/same_numbers.py PARENT_CHECKOUT [--seeds 7,11]

Each workload of ``perfbench/workloads.py`` (read, never written) runs its
CLI command at its own ``n`` and config, once from ``PARENT_CHECKOUT/src``
and once from this checkout's ``src``, for every seed, with the config's
own ``threads`` and with ``--threads 1`` (one run when the two agree).  The
script prints how many CSV cells differ in each case and exits 1 if any
cell differs or any run fails, 0 otherwise.  It uses the standard library
only; the runs go one at a time.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def run_csv(src: Path, wl, seed: int, threads: int, tmp: Path) -> list[list[str]]:
    """The CSV rows of workload ``wl`` run from ``src``; raises if the run fails."""
    out = tmp / "out.csv"
    cfg = tmp / "run.cfg"
    cfg.write_text(wl.config_text(wl.n_iters, str(out)))
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "statvol.cli", wl.command, "--config", str(cfg),
         "--seed", str(seed), "--threads", str(threads)],
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
        for name, wl in WORKLOADS.items():
            for seed in seeds:
                for threads in sorted({int(wl.config.get("threads", 1)), 1}):
                    case = f"{name} seed={seed} threads={threads}"
                    try:
                        parent, change = [run_csv(src, wl, seed, threads, tmp)
                                          for src in sides]
                        diff, total = differing_cells(parent, change)
                    except (RuntimeError, subprocess.TimeoutExpired) as exc:
                        print(f"{case}: run failed: {exc}")
                        bad += 1
                        continue
                    print(f"{case}: {diff} of {total} cells differ", flush=True)
                    bad += diff > 0
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
