"""One statvol CLI run in a fresh interpreter, timed from the outside.

Usage: python3 perfbench/runner.py SPEC_JSON SPAWN_TIME

``SPEC_JSON`` names a file holding ``src`` (the directory that holds the
statvol package), ``argv`` (the CLI arguments), ``trace`` (install the
boundary wrappers of ``tracer``) and ``result`` (where this script writes
its measurements as JSON).  ``SPAWN_TIME`` is ``time.monotonic()`` read by
the parent just before it started this interpreter; the monotonic clock is
system-wide, so it marks the start of the run on the same time line.

``engine.run`` is wrapped to stamp its first entry, the end of set-up and
the start of the sweep; the wrapper fires once per replication, so it costs
nothing measurable.  To gauge how fast the machine ran, ``reference_loop``
is timed three times in this process: before statvol is imported, at the
first ``engine.run`` entry (other replication threads wait for it) and after
``main`` returns.  The parent leaves these loops out of every interval.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import threading
import time
import warnings


REFERENCE_ITERS = 14_000


def reference_loop(np) -> float:
    """Fixed work shaped like a window fold (small numpy calls and a few float
    operations per iteration); its duration gauges the machine's speed."""
    t0 = time.monotonic()
    xs = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for i in range(REFERENCE_ITERS):
        seg = xs[i & 31 : (i & 31) + 24]
        acc += float(np.dot(np.exp(seg), np.cumsum(seg))) * 1e-3
        for j in range(6):
            acc += math.sqrt(i + j) * 1e-9
    return time.monotonic() - t0


def main() -> int:
    t_spawn = float(sys.argv[2])
    import numpy  # statvol imports it anyway; its import stays in the set-up time

    ref_start = reference_loop(numpy)
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    # Count every RuntimeWarning (the Heston scheme-convergence warning is
    # raised by design) while still printing each one to stderr.
    runtime_warnings = []
    show = warnings.showwarning

    def counting_showwarning(message, category, *args, **kwargs):
        if issubclass(category, RuntimeWarning):
            runtime_warnings.append(str(message))
        show(message, category, *args, **kwargs)

    warnings.showwarning = counting_showwarning
    warnings.simplefilter("always", RuntimeWarning)

    from statvol import cli, engine, levy, models, pricing, schedule

    tracer = None
    entry = cli.main
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli, engine, levy, models, pricing, schedule)
        entry = tracer.span("run", cli.main)

    sweep: dict = {}
    lock = threading.Lock()
    run = engine.run

    def stamped_run(*args, **kwargs):
        if not sweep:
            with lock:
                if not sweep:
                    t_entry = time.monotonic()
                    ref = reference_loop(numpy)
                    sweep.update(t_entry=t_entry, ref=ref, t_start=time.monotonic(),
                                 cpu_start=time.process_time())
        return run(*args, **kwargs)

    engine.run = stamped_run

    code = entry(spec["argv"])
    t_end = time.monotonic()
    cpu_end = time.process_time()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    ref_end = reference_loop(numpy)

    result = {
        "exit_code": code,
        "t_spawn": t_spawn,
        "ref_s": [ref_start, sweep.get("ref"), ref_end],
        "t_setup_end": sweep.get("t_entry"),
        "t_sweep_start": sweep.get("t_start"),
        "cpu_sweep_start": sweep.get("cpu_start"),
        "t_end": t_end,
        "cpu_end": cpu_end,
        "maxrss_kib": usage.ru_maxrss,
        "runtime_warnings": len(runtime_warnings),
        "trace": tracer.report() if tracer is not None else None,
    }
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
