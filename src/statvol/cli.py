"""Batch front-end: configuration, seeding, runs, CSV emission.

Subcommands
    price-asian       strike grid of Asian prices (reproduces the benchmark tables)
    price-european    strike grid of terminal-value prices
    vol-surface       (K, T) grid of European prices and implied volatilities
    stationary-stats  weighted moments/histogram of the volatility marginal
    check-schedule    step/weight admissibility diagnostics
    oracle            classical fixed-grid MC cross-check (square-root model)

Determinism contract: for a fixed (config, seed, threads) the emitted CSV is
byte-identical across runs, and results are identical across thread counts.
Replication ``i`` always consumes the Philox stream derived from
``(seed, i)`` and results are reduced in replication order, so the thread
pool only changes scheduling, never values.  Wall time goes to stderr, not
into the CSV.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

from . import engine, pricing, schedule
from .engine import DriverStepError, MarginalAccumulator
from .levy import TemperedStableMeasure, TruncationPolicy
from .models import BNSParams, BnsDriver, HestonDriver, HestonParams
from .pricing import AsianSpec, BandViolationError
from .rng import stream

__all__ = ["main", "ConfigError", "RunConfig", "load_config"]

_DEFAULT_STRIKES = tuple(float(k) for k in range(44, 57))


class ConfigError(ValueError):
    """Invalid configuration key, value, or combination."""


@dataclass
class RunConfig:
    model: str = ""
    s0: float = 50.0
    r: float = 0.05
    rho: float | None = None
    k: float = 2.0
    theta: float = 0.01
    sigma_v: float = 0.1
    mu: float = 1.0
    jump_c: float = 0.01
    jump_lambda: float = 1.0
    jump_alpha: float = 0.5
    truncation_power: float = 1.0
    c1: float = 1.0
    rho1: float = 1.0 / 3.0
    c2: float = 1.0
    rho2: float = 1.0 / 3.0
    strikes: tuple = _DEFAULT_STRIKES
    kind: str = "call"
    maturity: float = 1.0
    maturities: tuple | None = None
    n_iters: int = 500_000
    seed: int = 12345
    parity: bool = True
    replications: int = 1
    threads: int = 1
    out: str = "-"
    hist_bins: int = 200
    hist_lo: float = 0.0
    hist_hi: float = 0.05
    oracle_paths: int = 20_000
    oracle_fine_step: float = 1e-3
    eps: float = 0.0
    series_s: float = 2.0
    scan_max: int = 1_000_000


_BOOL_KEYS = {"parity"}
_INT_KEYS = {"n_iters", "seed", "replications", "threads", "hist_bins",
             "oracle_paths", "scan_max"}
_LIST_KEYS = {"strikes", "maturities"}
_STR_KEYS = {"model", "kind", "out"}


def _parse_bool(key: str, raw: str) -> bool:
    if raw in ("on", "true", "1", "yes"):
        return True
    if raw in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected on/off, got {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("numbers must be finite")
    return value


def load_config(path: str | Path) -> RunConfig:
    """Parse a flat key=value config file (see config_schema.txt)."""
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in _STR_KEYS:
                value = raw
            elif key in _BOOL_KEYS:
                value = _parse_bool(key, raw)
            elif key in _INT_KEYS:
                value = int(raw)
            elif key in _LIST_KEYS:
                value = tuple(_parse_float(tok) for tok in raw.split(",") if tok.strip())
            else:
                value = _parse_float(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {raw!r} ({exc})") from exc
        setattr(cfg, key, value)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.model not in ("heston", "bns"):
        raise ConfigError(f"model must be 'heston' or 'bns', got {cfg.model!r}")
    # the model records check these too, but their messages name their own
    # fields; the measure itself accepts lambda = 0, but a BNS variance then
    # has no mean
    if not cfg.s0 > 0.0:
        raise ConfigError(f"s0 must be > 0, got {cfg.s0}")
    if cfg.model == "heston" and cfg.rho is not None and not -1.0 <= cfg.rho <= 1.0:
        raise ConfigError(f"rho must lie in [-1, 1], got {cfg.rho}")
    if cfg.model == "bns":
        if not cfg.jump_lambda > 0.0:
            raise ConfigError(f"jump_lambda must be > 0, got {cfg.jump_lambda}")
        if not cfg.jump_c > 0.0:
            raise ConfigError(f"jump_c must be > 0, got {cfg.jump_c}")
        if not 0.0 < cfg.jump_alpha < 1.0:
            raise ConfigError(f"jump_alpha must lie in (0, 1), got {cfg.jump_alpha}")
        if not cfg.truncation_power >= 1.0:
            raise ConfigError(f"truncation_power must be >= 1, got {cfg.truncation_power}")
    if cfg.kind not in ("call", "put"):
        raise ConfigError(f"kind must be 'call' or 'put', got {cfg.kind!r}")
    if cfg.n_iters < 1:
        raise ConfigError(f"n_iters must be >= 1, got {cfg.n_iters}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.replications < 1:
        raise ConfigError(f"replications must be >= 1, got {cfg.replications}")
    if cfg.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {cfg.threads}")
    if not cfg.maturity > 0.0:
        raise ConfigError(f"maturity must be positive, got {cfg.maturity}")
    if not cfg.strikes:
        raise ConfigError("strikes must be non-empty")
    if any(k < 0.0 for k in cfg.strikes):
        raise ConfigError(f"strikes must be >= 0, got {cfg.strikes}")
    if cfg.maturities is not None and (not cfg.maturities or min(cfg.maturities) <= 0.0):
        raise ConfigError(f"maturities must be non-empty and positive, got {cfg.maturities}")
    if cfg.hist_bins < 1:
        raise ConfigError(f"hist_bins must be >= 1, got {cfg.hist_bins}")
    if not cfg.hist_hi > cfg.hist_lo:
        raise ConfigError("hist_hi must exceed hist_lo")
    if cfg.oracle_paths < 2:
        raise ConfigError(f"oracle_paths must be >= 2, got {cfg.oracle_paths}")
    if not cfg.oracle_fine_step > 0.0:
        raise ConfigError(f"oracle_fine_step must be positive, got {cfg.oracle_fine_step}")
    if cfg.scan_max < 10:
        raise ConfigError(f"scan_max must be >= 10, got {cfg.scan_max}")


def _build_schedule(cfg: RunConfig) -> schedule.Schedule:
    try:
        return schedule.make_polynomial_schedule(cfg.c1, cfg.rho1, cfg.c2, cfg.rho2)
    except schedule.ScheduleError as exc:
        raise ConfigError(str(exc)) from exc


_DRIVERS = {"heston": HestonDriver, "bns": BnsDriver}


def _build_params(cfg: RunConfig):
    """The model's validated parameter record; drivers are built on it."""
    try:
        if cfg.model == "heston":
            rho = 0.5 if cfg.rho is None else cfg.rho
            return HestonParams(
                s0=cfg.s0, r=cfg.r, rho=rho, k=cfg.k, theta=cfg.theta,
                sigma_v=cfg.sigma_v,
            )
        rho = -1.0 if cfg.rho is None else cfg.rho
        return BNSParams(
            s0=cfg.s0, r=cfg.r, rho=rho, mu=cfg.mu,
            jump=TemperedStableMeasure(c=cfg.jump_c, lam=cfg.jump_lambda,
                                       alpha=cfg.jump_alpha),
            truncation=TruncationPolicy(power=cfg.truncation_power),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x) -> str:
    if isinstance(x, float):
        s = f"{x:.12g}"
    else:
        s = str(x)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _check_out(out: str) -> None:
    """Fail before any simulation if ``out`` cannot be written; touches no file."""
    if out == "-":
        return
    path = Path(out)
    if path.exists():
        writable = not path.is_dir() and os.access(path, os.W_OK)
    else:
        writable = path.parent.is_dir() and os.access(path.parent, os.W_OK | os.X_OK)
    if not writable:
        raise ConfigError(f"cannot write out {out}: not a writable file "
                          "in an existing, writable directory")


def _emit(out: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write out {out}: {exc}") from exc


def _map_reps(cfg: RunConfig, worker):
    """Run ``worker(rep)`` for every replication, reduced in fixed order."""
    reps = range(cfg.replications)
    if cfg.threads <= 1 or cfg.replications == 1:
        return [worker(i) for i in reps]
    from concurrent.futures import ThreadPoolExecutor  # imported here: only a pool needs it

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(worker, reps))


def _combined_rows(cfg: RunConfig, per_rep: list[list[pricing.PriceEstimate]]):
    """Average per-strike estimates over replications (fixed order)."""
    n_reps = len(per_rep)
    rows = []
    for i, k in enumerate(cfg.strikes):
        vals = [per_rep[r][i].value for r in range(n_reps)]
        value = sum(vals) / n_reps
        se = math.sqrt(sum(per_rep[r][i].se ** 2 for r in range(n_reps))) / n_reps
        rows.append([k, value, se, n_reps * cfg.n_iters, cfg.seed])
    return rows


def _replicate_grid(cfg: RunConfig, maturities, kind: str, estimate):
    """Per maturity, every replication's ``estimate`` of the strike grid.

    The model parameters are built and validated once; each replication
    gets a fresh driver on them.  Replication ``rep`` of maturity index
    ``ti`` consumes stream ``ti * replications + rep``.
    """
    params = _build_params(cfg)
    sched = _build_schedule(cfg)  # one for every maturity and replication
    new_driver = _DRIVERS[cfg.model]
    per_maturity = []
    for ti, T in enumerate(maturities):
        specs = [AsianSpec(K=k, T=T, kind=kind, r=cfg.r) for k in cfg.strikes]

        def worker(rep: int, _specs=specs, _ti=ti):
            return estimate(new_driver(params), sched, _specs, cfg.n_iters,
                            stream(cfg.seed, _ti * cfg.replications + rep))

        per_maturity.append(_map_reps(cfg, worker))
    return per_maturity


def _price_strike_grid(cfg: RunConfig, estimate) -> None:
    [per_rep] = _replicate_grid(cfg, (cfg.maturity,), cfg.kind, estimate)
    rows = _combined_rows(cfg, per_rep)
    _emit(cfg.out, ["strike", "estimate", "std_error", "n", "seed"], rows)


def cmd_price_asian(cfg: RunConfig) -> None:
    _price_strike_grid(cfg, partial(pricing.price_asian_grid, use_parity=cfg.parity))


def cmd_price_european(cfg: RunConfig) -> None:
    _price_strike_grid(cfg, pricing.price_european_grid)


def cmd_vol_surface(cfg: RunConfig) -> None:
    maturities = cfg.maturities if cfg.maturities is not None else (cfg.maturity,)
    per_maturity = _replicate_grid(cfg, maturities, "call", pricing.price_european_grid)
    rows = []
    for T, per_rep in zip(maturities, per_maturity):
        for i, k in enumerate(cfg.strikes):
            price = sum(per_rep[r][i].value for r in range(len(per_rep))) / len(per_rep)
            try:
                iv = pricing.implied_vol(price, cfg.s0, k, T, cfg.r)
                status = "ok"
            except BandViolationError:
                iv = math.nan
                status = "band_violation"
            rows.append([k, T, price, iv, status])
    _emit(cfg.out, ["strike", "maturity", "price", "implied_vol", "status"], rows)


def cmd_stationary_stats(cfg: RunConfig) -> None:
    sched = _build_schedule(cfg)
    driver = _DRIVERS[cfg.model](_build_params(cfg))
    # both drivers carry the variance first: fold that coordinate alone
    marg = MarginalAccumulator(dim=1, bins=cfg.hist_bins,
                               lo=cfg.hist_lo, hi=cfg.hist_hi)
    res = engine.run(driver, sched, functional=None, T=None, n_iters=cfg.n_iters,
                     rng=stream(cfg.seed, 0), marginal=marg)
    rows = []
    for n, mean, var in res.marginal_checkpoints:
        rows.append(["moment", n, float(mean[0]), float(var[0]), "", "", ""])
    st = marg.stats()
    edges = st.bin_edges
    [hist] = st.histogram
    rows.append(["histogram", cfg.n_iters, "", "", "-inf", edges[0], hist[0]])
    for b in range(cfg.hist_bins):
        rows.append(["histogram", cfg.n_iters, "", "", edges[b], edges[b + 1], hist[b + 1]])
    rows.append(["histogram", cfg.n_iters, "", "", edges[-1], "+inf", hist[-1]])
    _emit(cfg.out, ["record", "n", "mean", "variance", "bin_lo", "bin_hi", "mass"], rows)


def cmd_check_schedule(cfg: RunConfig) -> None:
    sched = _build_schedule(cfg)
    try:
        diags = [
            schedule.check_weight_step_condition(sched, cfg.eps, n_max=cfg.scan_max),
            schedule.check_invariance_condition(sched, n_max=min(cfg.scan_max, 10**5)),
            schedule.check_series_condition(
                sched, cfg.series_s, eps=cfg.eps, T=cfg.maturity,
                k_max=min(cfg.scan_max, 10**5)),
        ]
    except schedule.ScheduleError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [[d.name, "pass" if d.passed else "fail", d.summary] for d in diags]
    _emit(cfg.out, ["condition", "verdict", "detail"], rows)


def cmd_oracle(cfg: RunConfig) -> None:
    from . import oracles  # imported here, with schemes: no other command needs them

    if cfg.model != "heston":
        raise ConfigError("the oracle command supports only model=heston")
    # Checked here, not in _validate: only the oracle ties its grid step to
    # the maturity, and other commands accept maturities below 1 with the
    # default step.
    if not cfg.oracle_fine_step <= 1e-3 * cfg.maturity:
        raise ConfigError(f"oracle_fine_step must be <= 1e-3 * maturity = "
                          f"{1e-3 * cfg.maturity}, got {cfg.oracle_fine_step}")
    params = _build_params(cfg)
    rows = []
    for i, k in enumerate(cfg.strikes):
        spec = AsianSpec(K=k, T=cfg.maturity, kind=cfg.kind, r=cfg.r)
        est = oracles.cir_direct_stationary_price(
            params, spec, cfg.oracle_paths, cfg.oracle_fine_step,
            stream(cfg.seed, i))
        rows.append([k, est.value, est.se, est.n_paths, cfg.seed])
    _emit(cfg.out, ["strike", "estimate", "std_error", "n_paths", "seed"], rows)


_COMMANDS = {
    "price-asian": cmd_price_asian,
    "price-european": cmd_price_european,
    "vol-surface": cmd_vol_surface,
    "stationary-stats": cmd_stationary_stats,
    "check-schedule": cmd_check_schedule,
    "oracle": cmd_oracle,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statvol",
        description="Ergodic Monte Carlo pricing in stationary stochastic "
                    "volatility models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, help="64-bit RNG seed")
        p.add_argument("--iters", type=int, help="iterations per replication")
        p.add_argument("--out", help="output CSV path ('-' for stdout)")
        p.add_argument("--parity", choices=["on", "off"],
                       help="call-put parity variance reduction")
        p.add_argument("--threads", type=int, help="worker threads")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.iters is not None:
            cfg.n_iters = args.iters
        if args.out is not None:
            cfg.out = args.out
        if args.parity is not None:
            cfg.parity = args.parity == "on"
        if args.threads is not None:
            cfg.threads = args.threads
        _validate(cfg)
        _check_out(cfg.out)
        _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DriverStepError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"# wall_time_s={time.perf_counter() - t0:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
