"""Outside-in benchmark of the statvol CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed run starts a fresh interpreter (``runner.py``) that calls
``statvol.cli.main`` on a config file generated here, with ``--seed N``.
Runs repeat until ``S`` seconds have passed (at least three).  With
``--trace 0`` the end-to-end metrics are reported as medians over the runs;
with ``--trace 1`` untraced and traced runs alternate, the per-layer metrics
come from the traced ones and ``trace.overhead`` compares the two.

On a shared VM the same code can run up to twice as fast in some seconds
as in others, as the neighbours' load comes and goes.  So every time a run
reports is scaled to a reference speed: the runner times a fixed loop
(``runner.reference_loop``) before the imports, at the start of the sweep
and after ``main`` returns, and each phase (set-up, sweep) is multiplied by
``REFERENCE_S`` over the mean of the two loop times that bracket it.  A
value therefore reads as the time the run would have taken on a machine
that runs the loop in ``REFERENCE_S`` seconds.  The unscaled values are
printed on ``raw`` lines and kept in the record.

Every run's CSV is checked for correctness and must be byte-identical to the
first run's; traced runs must repeat their counts exactly.  A run that exits
non-zero or fails a check counts in ``failed``.  The last line of stdout is
the JSON result; the lines before it give every metric with its quartiles,
the checks and the provenance.  A record of all runs is written under
``.perfbench-runs/`` in the checkout.

``--smoke`` shrinks ``n`` to a few hundred and skips the accuracy bounds,
which only hold at the benchmark's own ``n``; ``test_smoke.py`` uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import hist_quantile  # noqa: E402
from workloads import WORKLOADS, parse_csv  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
RUNNER = Path(__file__).resolve().parent / "runner.py"
RECORDS = ROOT / ".perfbench-runs"

MIN_RUNS = 3  # per mode: a single run is not a measurement
RUN_TIMEOUT_S = 60.0  # one CLI run takes a few seconds
DEADLINE_S = 100.0  # start no run after this, so the benchmark ends within 180 s
SELF_SUM_MARGIN = 0.01  # traced self times must add up to the sweep within 1%
REFERENCE_S = 0.1  # nominal duration of runner.reference_loop
TIME_UNITS = {"s", "us", "us/window", "us/step", "us/point"}

END_TO_END_UNITS = {
    "windows_per_s": "windows/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "cli.load_config_s": "s",
    "cli.fanout_cpu_per_wall": "ratio",
    "cli.warnings": "count",
    "schedule.horizon_index.calls": "count",
    "schedule.horizon_index.us_per_window": "us/window",
    "schedule.ensure_s": "s",
    "models.steps": "count",
    "models.step.us_per_step": "us/step",
    "levy.increment.us_per_step": "us/step",
    "levy.jumps": "count",
    "models.price_path.us_per_window": "us/window",
    "models.window_len_mean": "count",
    "pricing.functional.calls": "count",
    "pricing.payoff.us_per_window": "us/window",
    "pricing.functional.p50_us": "us",
    "pricing.functional.p99_us": "us",
    "engine.fold.us_per_window": "us/window",
    "engine.marginal.us_per_point": "us/point",
    "engine.sweep_self.us_per_window": "us/window",
    "pricing.implied_vol.calls": "count",
    "pricing.implied_vol.us": "us",
    "pricing.band_violations": "count",
    "trace.overhead": "ratio",
}
# Counts that must repeat exactly across traced runs of one seed.
EXACT_COUNTS = (
    "models.steps", "levy.jumps", "schedule.horizon_index.calls",
    "models.window_len_mean", "pricing.functional.calls", "cli.warnings",
    "pricing.implied_vol.calls", "pricing.band_violations",
)


class BenchError(Exception):
    """The benchmark cannot measure this checkout (no result is printed)."""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spawn(spec: dict, spec_path: Path) -> tuple[int, str]:
    spec_path.write_text(json.dumps(spec))
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(RUNNER), str(spec_path), repr(t_spawn)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    return proc.returncode, proc.stderr


def _one_run(wl, cfg_path: Path, csv_path: Path, seed: int, trace: bool,
             work: Path, index: int) -> dict:
    """Run the CLI once in a fresh interpreter; return what it measured."""
    result_path = work / f"result-{index}.json"
    for p in (csv_path, result_path):
        p.unlink(missing_ok=True)
    spec = {
        "src": str(SRC),
        "argv": [wl.command, "--config", str(cfg_path), "--seed", str(seed)],
        "trace": trace,
        "result": str(result_path),
    }
    try:
        code, stderr = _spawn(spec, work / f"spec-{index}.json")
    except subprocess.TimeoutExpired:
        return {"index": index, "traced": trace, "error": f"timed out after {RUN_TIMEOUT_S} s"}
    run = {"index": index, "traced": trace, "process_exit": code}
    if code != 0 or not result_path.exists():
        tail = stderr.strip().splitlines()[-3:]
        run["error"] = f"exit code {code}: {' | '.join(tail)}"
        return run
    run.update(json.loads(result_path.read_text()))
    if run["t_sweep_start"] is None:
        run["error"] = "engine.run was never entered"
        return run
    ref_start, ref_sweep, ref_end = run["ref_s"]
    setup = run["t_setup_end"] - run["t_spawn"] - ref_start
    sweep = run["t_end"] - run["t_sweep_start"]
    run["raw"] = {"setup_s": setup, "sweep_s": sweep, "wall_s": setup + sweep}
    # each phase is scaled by the reference loops that bracket it
    setup_scaled = setup * REFERENCE_S / ((ref_start + ref_sweep) / 2)
    run["scale"] = REFERENCE_S / ((ref_sweep + ref_end) / 2)
    run["scaled"] = {"setup_s": setup_scaled, "sweep_s": sweep * run["scale"],
                     "wall_s": setup_scaled + sweep * run["scale"]}
    data = csv_path.read_bytes() if csv_path.exists() else b""
    run["csv_sha256"] = hashlib.sha256(data).hexdigest()
    run["csv"] = data.decode()
    return run


def _layer_metrics(run: dict, wl, n_iters: int, info: dict) -> dict:
    """Per-layer metrics of one traced run, from the tracer's aggregates."""
    aggs = run["trace"]["aggregates"]
    zero = {"calls": 0, "total": 0.0, "self": 0.0, "self_sweep": 0.0, "size": 0,
            "hist": None}

    def agg(name):
        return aggs.get(name, zero)

    def per(x, n):
        return x / n if n else 0.0

    work = wl.work(n_iters)
    steps = agg("models.step")["calls"]
    fn = agg("pricing.functional")
    pp = agg("models.price_path")
    marg = agg("engine.marginal")
    hist = fn["hist"] or []
    layers = {
        "cli.load_config_s": agg("cli.load_config")["total"],
        "cli.warnings": run["runtime_warnings"],
        "schedule.horizon_index.calls": agg("schedule.horizon_index")["calls"],
        "schedule.horizon_index.us_per_window":
            1e6 * per(agg("schedule.horizon_index")["total"], work),
        "schedule.ensure_s": agg("schedule.ensure")["total"],
        "models.steps": steps,
        "models.step.us_per_step": 1e6 * per(agg("models.step")["self"], steps),
        "levy.increment.us_per_step": 1e6 * per(agg("levy.increment")["total"], steps),
        "levy.jumps": agg("levy.jump")["calls"],
        "models.price_path.us_per_window": 1e6 * per(pp["total"], work),
        "models.window_len_mean": per(pp["size"], pp["calls"]),
        "pricing.functional.calls": fn["calls"],
        "pricing.payoff.us_per_window": 1e6 * per(fn["self"], work),
        "pricing.functional.p50_us": 1e6 * hist_quantile(hist, 0.50) if hist else 0.0,
        "pricing.functional.p99_us": 1e6 * hist_quantile(hist, 0.99) if hist else 0.0,
        "engine.fold.us_per_window": 1e6 * per(agg("engine.fold")["total"], work),
        "engine.marginal.us_per_point": 1e6 * per(marg["total"], marg["calls"]),
        "engine.sweep_self.us_per_window": 1e6 * per(agg("engine.run")["self"], work),
        "pricing.implied_vol.calls": agg("pricing.implied_vol")["calls"],
        "pricing.implied_vol.us": 1e6 * agg("pricing.implied_vol")["total"],
        "pricing.band_violations": info.get("band_violations", 0),
    }
    return {name: v * run["scale"] if PER_LAYER_UNITS[name] in TIME_UNITS else v
            for name, v in layers.items()}


def _trace_checks(run: dict, wl, n_iters: int) -> tuple[list[str], float]:
    """Checks on one traced run: the work it folded and its self-time sum."""
    aggs = run["trace"]["aggregates"]
    errors = []
    work = wl.work(n_iters)
    fn_calls = aggs.get("pricing.functional", {}).get("calls", 0)
    marg_calls = aggs.get("engine.marginal", {}).get("calls", 0)
    expected_fn, expected_marg = (0, work) if wl.marginal else (work, 0)
    if fn_calls != expected_fn or marg_calls != expected_marg:
        errors.append(f"folded {fn_calls} windows and {marg_calls} marginal points, "
                      f"expected {expected_fn} and {expected_marg}")
    # Per thread, the self times of everything called inside engine.run plus
    # engine.run's own self time must add up to the engine.run spans.
    sweep = sum(s["end"] - s["start"] for s in run["trace"]["spans"]
                if s["name"] == "engine.run")
    accounted = aggs["engine.run"]["self"] + sum(
        a["self_sweep"] for name, a in aggs.items() if name != "engine.run")
    ratio = accounted / sweep if sweep > 0 else 0.0
    if not abs(ratio - 1.0) <= SELF_SUM_MARGIN:
        errors.append(f"self times add up to {ratio:.4f} of the sweep "
                      f"(margin {SELF_SUM_MARGIN})")
    return errors, ratio


def _provenance(wl, seed: int, n_iters: int, config: str) -> dict:
    import numpy
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            git_sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git_sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "statvol").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "workload": wl.name,
        "seed": seed,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "n_iters": n_iters,
        "replications": wl.replications,
        "maturities": list(wl.maturities),
        "work_per_run": wl.work(n_iters),
        "config": config,
    }


def _run_loop(wl, cfg_path: Path, csv_path: Path, seed: int, seconds: float,
              trace: bool, work: Path) -> list[dict]:
    """Run the CLI until ``seconds`` have passed; traced runs alternate if asked."""
    runs: list[dict] = []
    t_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - t_start
        untraced = sum(not r["traced"] for r in runs)
        traced = len(runs) - untraced
        enough = untraced >= MIN_RUNS and (not trace or traced >= MIN_RUNS)
        if (enough and elapsed >= seconds) or (runs and elapsed >= DEADLINE_S):
            break
        want_trace = trace and traced < untraced
        runs.append(_one_run(wl, cfg_path, csv_path, seed, want_trace, work, len(runs) + 1))
    return runs


def bench(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    wl = WORKLOADS[workload]
    if not (SRC / "statvol" / "cli.py").is_file():
        raise BenchError(f"no statvol sources under {SRC}")
    n_iters = wl.smoke_iters if smoke else wl.n_iters
    tag = f"{wl.name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    work = RECORDS / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    csv_path = work / "out.csv"
    cfg_path = work / "run.cfg"
    cfg_text = wl.config_text(n_iters, str(csv_path))
    cfg_path.write_text(cfg_text)
    warm_cfg = work / "warmup.cfg"
    warm_cfg.write_text(wl.config_text(wl.smoke_iters, str(csv_path)))

    try:
        # Warm-up: compile bytecode and fill the file cache before timing.
        warm = _one_run(wl, warm_cfg, csv_path, seed, False, work, 0)
        if "error" in warm:
            raise BenchError(f"warm-up run failed: {warm['error']}")
        runs = _run_loop(wl, cfg_path, csv_path, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # -- checks ---------------------------------------------------------------
    ref_sha = None
    ref_counts = None
    ref_warnings = None
    for run in runs:
        errors = [run["error"]] if "error" in run else []
        info = {}
        if not errors:
            errs, info = wl.check(parse_csv(run["csv"]), smoke)
            errors += errs
            if ref_sha is None:
                ref_sha = run["csv_sha256"]
            elif run["csv_sha256"] != ref_sha:
                errors.append(f"CSV sha256 {run['csv_sha256'][:16]} differs from "
                              f"the first run's {ref_sha[:16]}")
            if ref_warnings is None:
                ref_warnings = run["runtime_warnings"]
            elif run["runtime_warnings"] != ref_warnings:
                errors.append(f"{run['runtime_warnings']} RuntimeWarnings, "
                              f"first run had {ref_warnings}")
        if not errors and run["traced"]:
            errs, run["self_sum_ratio"] = _trace_checks(run, wl, n_iters)
            errors += errs
            run["layers"] = _layer_metrics(run, wl, n_iters, info)
            counts = {k: run["layers"][k] for k in EXACT_COUNTS}
            if ref_counts is None:
                ref_counts = counts
            elif counts != ref_counts:
                errors.append(f"counts {counts} differ from the first traced run's "
                              f"{ref_counts}")
        run["check_info"] = info
        run["errors"] = errors

    ok_untraced = [r for r in runs if not r["traced"] and "error" not in r]
    ok_traced = [r for r in runs if r["traced"] and "layers" in r]
    if not ok_untraced or (trace and not ok_traced):
        raise BenchError("no run completed: " + "; ".join(
            e for r in runs for e in r["errors"]))

    # -- metrics ----------------------------------------------------------------
    def stat(values):
        return dict(zip(("q1", "median", "q3"), _quartiles(values)), runs=len(values))

    work_per_run = wl.work(n_iters)
    samples = {
        "windows_per_s": [work_per_run / r["scaled"]["sweep_s"] for r in ok_untraced],
        "wall_s": [r["scaled"]["wall_s"] for r in ok_untraced],
        "setup_s": [r["scaled"]["setup_s"] for r in ok_untraced],
        "peak_rss_mb": [r["maxrss_kib"] / 1024.0 for r in ok_untraced],
    }
    raw = {
        "windows_per_s": [work_per_run / r["raw"]["sweep_s"] for r in ok_untraced],
        "wall_s": [r["raw"]["wall_s"] for r in ok_untraced],
        "setup_s": [r["raw"]["setup_s"] for r in ok_untraced],
        "reference_loop_s": [statistics.mean(r["ref_s"]) for r in ok_untraced],
    }
    if trace:
        for name in PER_LAYER_UNITS:
            if name in ok_traced[0]["layers"]:
                samples[name] = [r["layers"][name] for r in ok_traced]
        samples["cli.fanout_cpu_per_wall"] = [
            (r["cpu_end"] - r["cpu_sweep_start"]) / r["raw"]["sweep_s"] for r in ok_untraced]
        traced_wall = statistics.median(r["scaled"]["wall_s"] for r in ok_traced)
        samples["trace.overhead"] = [traced_wall / statistics.median(samples["wall_s"]) - 1.0]
    stats = {name: stat(v) for name, v in samples.items()}
    raw_stats = {name: stat(v) for name, v in raw.items()}
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    failed = sum(bool(r["errors"]) for r in runs)
    return {
        "tag": tag,
        "provenance": _provenance(wl, seed, n_iters, cfg_text),
        "runs": runs,
        "stats": stats,
        "raw_stats": raw_stats,
        "result": {
            "correct": failed == 0,
            "attempted": len(runs),
            "failed": failed,
            "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def _print_report(report: dict) -> None:
    prov = report["provenance"]
    print("provenance " + json.dumps(prov))
    for run in report["runs"]:
        kind = "traced" if run["traced"] else "untraced"
        status = "FAIL " + "; ".join(run["errors"]) if run["errors"] else "ok"
        extra = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in run["check_info"].items())
        if "self_sum_ratio" in run:
            extra += f" self_sum_ratio={run['self_sum_ratio']:.6f}"
        print(f"run {run['index']} {kind}: {status} {extra}".rstrip())
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    for name, st in report["stats"].items():
        print(f"metric {name} = {st['median']:.6g} {units[name]} "
              f"(median of {st['runs']} runs; q1 {st['q1']:.6g}, q3 {st['q3']:.6g})")
    for name, st in report["raw_stats"].items():
        unit = units.get(name, "s")
        print(f"raw {name} = {st['median']:.6g} {unit} "
              f"(median of {st['runs']} runs; q1 {st['q1']:.6g}, q3 {st['q3']:.6g})")
    res = report["result"]
    print(f"fail_ratio = {res['failed']}/{res['attempted']} "
          f"= {res['failed'] / res['attempted']:.3g}")
    print(json.dumps(res))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny n, accuracy bounds off (smoke test only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        report = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    slim = dict(report, runs=[{k: v for k, v in r.items() if k != "csv"}
                              for r in report["runs"]])
    (RECORDS / f"{report['tag']}.json").write_text(json.dumps(slim, indent=1))
    _print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
