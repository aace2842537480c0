"""Deterministic low-discrepancy probe points inside chart domains: Halton
sequences, reproducible bit for bit, kept ``MARGIN`` clear of each face.
"""

from __future__ import annotations

import numpy as np

from .curvature import BATCH_BYTES, GeometryError, check_int

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
MARGIN = 0.1  # share of each axis kept clear at both ends


def halton_points(domain, count: int, seed: int = 0) -> np.ndarray:
    """``count`` points in the box ``domain``, a list of at most 8 (lo, hi)
    pairs.  ``seed`` >= 0 starts the sequence at index 20 + 1013 seed, so two
    seeds give disjoint point sets for ``count`` <= 1013.  GeometryError for
    a negative count or seed, or a ``count`` whose points take more than
    ``BATCH_BYTES``, before anything is built."""
    check_int(count, "probe count", 0)
    check_int(seed, "probe seed", 0)
    lo, hi = np.asarray(domain, dtype=float).reshape(len(domain), 2).T
    if len(lo) > len(_PRIMES):
        raise ValueError(f"at most {len(_PRIMES)} axes supported")
    if 8 * count * len(lo) > BATCH_BYTES:
        raise GeometryError(f"{count} probes of {len(lo)} coordinates exceed "
                            f"the {BATCH_BYTES} byte probe budget")
    # radical inverses over as many digits as base 2 needs; an index past
    # int64 (a huge seed) stays a Python int in an object array
    start = 20 + 1013 * seed
    base = np.array(_PRIMES[:len(lo)])
    i = np.tile(np.array([start + row for row in range(count)])[:, None], len(base))
    f, u = np.ones(len(base)), np.zeros((count, len(base)))
    for _ in range((start + count).bit_length()):
        f = f / base
        u = u + f * (i % base)
        i = i // base
    pad = MARGIN * (hi - lo)
    return lo + pad + u.astype(float) * (hi - lo - 2 * pad)


def chart_probes(chart, count: int, seed: int = 0) -> np.ndarray:
    return halton_points(chart.domain, count, seed=seed)
