"""Reproducible random number streams.

All simulations draw from numpy ``Generator`` objects backed by the
counter-based Philox bit generator.  Streams are derived from a 64-bit
user seed plus an integer key path (the CLI passes one key: the
replication index, or the strike index of an oracle run) through
``SeedSequence`` spawn keys, so the stream consumed by replication ``i``
is a pure function of ``(seed, i)`` and never depends on the order in
which replications run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox stream identified by ``seed`` and an integer key path.

    ``stream(seed)`` is the root stream; ``stream(seed, r)`` is the stream
    owned by replication ``r``.  Distinct key paths yield statistically
    independent streams.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))
