"""Wrappers that time the public boundaries of statvol from outside the package.

The benchmark never edits the program: it replaces module and class
attributes with timing wrappers before the CLI runs.  ``models`` and ``cli``
look those attributes up at call time, so the wrappers see every call.

Hot boundaries (called once per step or per window) are aggregated: a call
count, total and self time, and optionally a log-spaced histogram of call
durations.  One span per call would not fit in memory at the sizes the
benchmark runs.  The coarse boundaries (the CLI run, each replication and
each ``engine.run``) also keep full spans with parent ids.

Self time is a call's duration minus the durations of the wrapped calls made
inside it.  The accumulator of child time lives on a per-thread stack:
replications may run on a thread pool, and a process-wide accumulator would
charge one thread's children to another thread's call.
"""

from __future__ import annotations

import itertools
import math
import threading
import time

# Histogram buckets: HIST_PER_DECADE per decade starting at HIST_LO seconds.
HIST_LO = 1e-7
HIST_PER_DECADE = 20
HIST_BUCKETS = 8 * HIST_PER_DECADE  # up to 10 s per call


class _Agg:
    __slots__ = ("calls", "total", "self", "self_sweep", "size", "hist")

    def __init__(self, hist: bool):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.self_sweep = 0.0  # self time of calls made inside engine.run
        self.size = 0  # summed argument size, where the boundary has one
        self.hist = [0] * HIST_BUCKETS if hist else None


class _ThreadData:
    """One thread's call stack, aggregates and spans (merged when the run ends)."""

    __slots__ = ("stack", "span_ids", "sweep_depth", "aggs", "spans")

    def __init__(self):
        self.stack: list[list[float]] = []  # child-time accumulator per open call
        self.span_ids: list[int] = []  # ids of the open spans
        self.sweep_depth = 0  # open engine.run calls on this thread
        self.aggs: dict[str, _Agg] = {}
        self.spans: list[dict] = []


class _ThreadLocal(threading.local):
    # The registry keeps each thread's data alive after the thread ends.
    def __init__(self, registry: list, lock: threading.Lock):
        self.data = _ThreadData()
        with lock:
            registry.append(self.data)


def _bucket(dur: float) -> int:
    b = int(math.log10(max(dur, HIST_LO) / HIST_LO) * HIST_PER_DECADE)
    return min(b, HIST_BUCKETS - 1)


def hist_quantile(hist: list[int], q: float) -> float:
    """Quantile ``q`` of a duration histogram, interpolated inside its bucket."""
    total = sum(hist)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    for i, c in enumerate(hist):
        if c and seen + c >= target:
            frac = (target - seen) / c
            return HIST_LO * 10.0 ** ((i + frac) / HIST_PER_DECADE)
        seen += c
    return HIST_LO * 10.0 ** (HIST_BUCKETS / HIST_PER_DECADE)


class Tracer:
    """Installs the wrappers on statvol and collects what they measure."""

    def __init__(self):
        self._lock = threading.Lock()
        self._states: list[_ThreadData] = []
        self._tls = _ThreadLocal(self._states, self._lock)
        self._ids = itertools.count(1)

    def wrap(self, fn, name: str, *, hist: bool = False, sweep: bool = False, size=None):
        """Return ``fn`` wrapped so each call is counted and timed as ``name``.

        ``hist`` keeps a duration histogram; ``sweep`` marks the calls that
        make up the sweep (``engine.run``); ``size(args)`` gives a per-call
        quantity to sum, such as the window length.
        """
        tls = self._tls
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            st = tls.data
            stack = st.stack
            frame = [0.0]
            stack.append(frame)
            if sweep:
                st.sweep_depth += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                if sweep:
                    st.sweep_depth -= 1
                agg = st.aggs.get(name)
                if agg is None:
                    agg = st.aggs[name] = _Agg(hist)
                agg.calls += 1
                agg.total += dur
                own = dur - frame[0]
                agg.self += own
                if st.sweep_depth:
                    agg.self_sweep += own
                if hist:
                    agg.hist[_bucket(dur)] += 1
                if size is not None:
                    agg.size += size(args)

        return wrapper

    def span(self, name: str, fn, parent: int | None = None):
        """Wrap ``fn`` as a coarse span whose parent may sit on another thread."""
        tls = self._tls
        ids = self._ids

        def wrapper(*args, **kwargs):
            st = tls.data
            sid = next(ids)
            par = parent if parent is not None else (st.span_ids[-1] if st.span_ids else None)
            st.span_ids.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.span_ids.pop()
                st.spans.append({"id": sid, "parent": par, "name": name,
                                 "thread": threading.get_ident(),
                                 "start": t0, "end": t1})

        return wrapper

    def current_span(self) -> int | None:
        ids = self._tls.data.span_ids
        return ids[-1] if ids else None

    def install(self, cli, engine, levy, models, pricing, schedule) -> None:
        """Replace the public boundaries of the statvol modules with wrappers."""
        w = self.wrap
        for cls in (models.HestonDriver, models.BnsDriver):
            cls.step = w(cls.step, "models.step")
            cls.price_path = w(cls.price_path, "models.price_path",
                               size=lambda args: len(args[1]))
        levy.compound_poisson_increment = w(levy.compound_poisson_increment, "levy.increment")
        levy.sample_jump_above = w(levy.sample_jump_above, "levy.jump")
        schedule.Schedule.horizon_index = w(schedule.Schedule.horizon_index,
                                            "schedule.horizon_index")
        schedule.Schedule.ensure = w(schedule.Schedule.ensure, "schedule.ensure")
        engine.FunctionalAverage.update = w(engine.FunctionalAverage.update, "engine.fold")
        engine.MarginalAccumulator.update = w(engine.MarginalAccumulator.update,
                                              "engine.marginal")
        pricing.implied_vol = w(pricing.implied_vol, "pricing.implied_vol")
        cli.load_config = w(cli.load_config, "cli.load_config")

        run = self.span("engine.run", w(engine.run, "engine.run", sweep=True))

        def traced_run(*args, **kwargs):
            # the window functional is the third argument of engine.run
            if "functional" in kwargs:
                if kwargs["functional"] is not None:
                    kwargs["functional"] = w(kwargs["functional"], "pricing.functional",
                                             hist=True)
            elif len(args) > 2 and args[2] is not None:
                args = (*args[:2], w(args[2], "pricing.functional", hist=True), *args[3:])
            return run(*args, **kwargs)

        engine.run = traced_run

        map_reps = cli._map_reps

        def traced_map_reps(cfg, worker):
            # replications may run on pool threads: pin their parent here
            return map_reps(cfg, self.span("replication", worker, self.current_span()))

        cli._map_reps = traced_map_reps

    def report(self) -> dict:
        """Aggregates merged over threads, plus every recorded span."""
        merged: dict[str, dict] = {}
        spans: list[dict] = []
        with self._lock:
            states = list(self._states)
        for st in states:
            spans.extend(st.spans)
            for name, a in st.aggs.items():
                m = merged.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                             "self_sweep": 0.0, "size": 0, "hist": None})
                m["calls"] += a.calls
                m["total"] += a.total
                m["self"] += a.self
                m["self_sweep"] += a.self_sweep
                m["size"] += a.size
                if a.hist is not None:
                    if m["hist"] is None:
                        m["hist"] = [0] * HIST_BUCKETS
                    m["hist"] = [x + y for x, y in zip(m["hist"], a.hist)]
        spans.sort(key=lambda s: s["start"])
        return {"aggregates": merged, "spans": spans}
