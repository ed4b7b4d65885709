"""The benchmark workloads: generated configs, the work they fold, output checks.

Every workload uses the README's benchmark parameter set, the 13 strikes
44..56 and ``T = 1`` unless stated otherwise.  ``n`` is fixed per workload:
the cost of a window grows with ``n`` (window length ~ T/gamma_n ~ n^(1/3)),
so windows/s is only comparable at one ``n``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

STRIKES = tuple(float(k) for k in range(44, 57))

# Reference Asian call prices at N = 1e8 for strikes 44..56, T = 1, from the
# source paper's benchmark tables: Table 1 for the square-root (Heston-type)
# model, Table 2 for the tempered-stable (BNS-type) model.  The same rows are
# pinned at N = 5e5 by tests/test_acceptance.py.
TABLE1 = (6.92, 5.97, 5.04, 4.12, 3.25, 2.46, 1.78, 1.23, 0.82, 0.53, 0.33, 0.21, 0.12)
TABLE2 = (6.75, 5.83, 4.93, 4.05, 3.18, 2.35, 1.57, 0.91, 0.55, 0.39, 0.29, 0.23, 0.18)

HESTON = {
    "model": "heston", "s0": "50", "r": "0.05", "rho": "0.5", "k": "2",
    "theta": "0.01", "sigma_v": "0.1",
}
BNS = {
    "model": "bns", "s0": "50", "r": "0.05", "rho": "-1", "mu": "1",
    "jump_c": "0.01", "jump_lambda": "1", "jump_alpha": "0.5",
    "truncation_power": "2",
}
GRID = {"strikes": ",".join(f"{k:g}" for k in STRIKES), "maturity": "1"}

# Invariant law of v in the square-root model: Gamma with mean theta and
# variance theta * sigma_v^2 / (2k).
V_MEAN = 0.01
V_VAR = 2.5e-5

# Accuracy bounds, fixed for each workload's own n.  Over seeds 0..44 the worst
# |diff| was at most 0.127 (Heston, n = 1.5e4) and 0.239 (BNS, n = 3e4); the
# final mean and variance of v (n = 7.5e4) stayed within 2.5% and 13.4% of
# the invariant law.  The bounds leave about twice that room.
HESTON_TABLE_BOUND = 0.25
BNS_TABLE_BOUND = 0.45
V_MEAN_REL_BAND = 0.05
V_VAR_REL_BAND = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    n_iters: int  # per replication, fixed for the timed runs
    smoke_iters: int  # for the smoke test only
    check: object  # check(rows, smoke) -> (errors, info)
    replications: int = 1
    maturities: tuple = (1.0,)
    marginal: bool = False  # folds marginal points, not windows

    def work(self, n_iters: int) -> int:
        """Windows folded (or marginal points, for a marginal sweep)."""
        return n_iters * self.replications * len(self.maturities)

    def config_text(self, n_iters: int, out: str) -> str:
        keys = dict(self.config, n_iters=str(n_iters), out=out)
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _asian_check(table: tuple, bound: float):
    def check(rows: list[dict], smoke: bool):
        errors = []
        strikes = tuple(float(r["strike"]) for r in rows)
        if strikes != STRIKES:
            return [f"strike column {strikes} != {STRIKES}"], {}
        est = [float(r["estimate"]) for r in rows]
        if not all(math.isfinite(x) for x in est):
            errors.append(f"non-finite estimate in {est}")
        worst = max(abs(x - ref) for x, ref in zip(est, table))
        if not smoke and not worst <= bound:
            errors.append(f"worst |diff| vs reference {worst:.4f} > {bound}")
        return errors, {"worst_abs_diff": worst, "bound": bound}

    return check


def _marginal_check(n_iters: int):
    mean_band = (V_MEAN * (1 - V_MEAN_REL_BAND), V_MEAN * (1 + V_MEAN_REL_BAND))
    var_band = (V_VAR * (1 - V_VAR_REL_BAND), V_VAR * (1 + V_VAR_REL_BAND))

    def check(rows: list[dict], smoke: bool):
        moments = [r for r in rows if r["record"] == "moment"]
        if not moments:
            return ["no moment rows"], {}
        last = moments[-1]
        mean, var = float(last["mean"]), float(last["variance"])
        mass = sum(float(r["mass"]) for r in rows if r["record"] == "histogram")
        errors = []
        if not abs(mass - 1.0) <= 1e-9:
            errors.append(f"histogram mass {mass} != 1")
        if not smoke:
            if int(last["n"]) != n_iters:
                errors.append(f"last moment row at n={last['n']}, expected {n_iters}")
            if not mean_band[0] <= mean <= mean_band[1]:
                errors.append(f"mean of v {mean:.6g} outside {mean_band}")
            if not var_band[0] <= var <= var_band[1]:
                errors.append(f"variance of v {var:.6g} outside {var_band}")
        return errors, {"mean_v": mean, "var_v": var}

    return check


def _surface_check(s0: float, r: float, maturities: tuple):
    slack = 1e-9 * s0  # the CSV prints 12 significant digits

    def check(rows: list[dict], smoke: bool):
        errors = []
        expected = [(k, t) for t in maturities for k in STRIKES]
        got = [(float(x["strike"]), float(x["maturity"])) for x in rows]
        if got != expected:
            return [f"(strike, maturity) rows {got} != {expected}"], {}
        violations = 0
        for x in rows:
            k, t, price = float(x["strike"]), float(x["maturity"]), float(x["price"])
            iv = float(x["implied_vol"])
            intrinsic = max(s0 - k * math.exp(-r * t), 0.0)
            inside = intrinsic + slack < price < s0 - slack
            if x["status"] == "ok":
                if not (math.isfinite(iv) and iv > 0.0):
                    errors.append(f"K={k} T={t}: status ok but implied vol {iv}")
                if not inside:
                    errors.append(f"K={k} T={t}: status ok but price {price} "
                                  f"outside ({intrinsic}, {s0})")
            elif x["status"] == "band_violation":
                violations += 1
                outside = price <= intrinsic + slack or price >= s0 - slack
                if not outside or not math.isnan(iv):
                    errors.append(f"K={k} T={t}: band_violation but price {price} "
                                  f"in ({intrinsic}, {s0}), implied vol {iv}")
            else:
                errors.append(f"K={k} T={t}: unknown status {x['status']!r}")
        return errors, {"band_violations": violations}

    return check


WORKLOADS = {
    "heston-asian": Workload(
        name="heston-asian", command="price-asian",
        config={**HESTON, **GRID, "parity": "on"},
        n_iters=15_000, smoke_iters=300,
        check=_asian_check(TABLE1, HESTON_TABLE_BOUND),
    ),
    "bns-asian": Workload(
        name="bns-asian", command="price-asian",
        config={**BNS, **GRID, "parity": "on"},
        n_iters=30_000, smoke_iters=300,
        check=_asian_check(TABLE2, BNS_TABLE_BOUND),
    ),
    "heston-marginal": Workload(
        name="heston-marginal", command="stationary-stats",
        config={**HESTON},
        n_iters=75_000, smoke_iters=500, marginal=True,
        check=_marginal_check(75_000),
    ),
    "heston-surface": Workload(
        name="heston-surface", command="vol-surface",
        config={**HESTON, **GRID, "maturities": "0.5,1,2", "replications": "2",
                "threads": "2"},
        n_iters=2_500, smoke_iters=200, replications=2, maturities=(0.5, 1.0, 2.0),
        check=_surface_check(50.0, 0.05, (0.5, 1.0, 2.0)),
    ),
}
