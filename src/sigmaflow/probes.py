"""Deterministic low-discrepancy probe points inside chart domains.

Halton sequences with a fixed seed offset keep every report reproducible
bit-for-bit; the boxes are shrunk by a small margin so probes stay away
from domain boundaries.
"""

from __future__ import annotations

import numpy as np

from .curvature import check_int

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _halton_1d(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton_points(domain, count: int, seed: int = 0, margin: float = 0.1) -> np.ndarray:
    """``count`` points in the box ``domain`` (list of (lo, hi) pairs).

    ``seed`` >= 0 offsets the sequence start, so different seeds give
    disjoint deterministic point sets; a negative seed is rejected, since
    every index <= 0 gives the same point.
    """
    check_int(seed, "probe seed", 0)
    dim = len(domain)
    if dim > len(_PRIMES):
        raise ValueError(f"at most {len(_PRIMES)} axes supported")
    pts = np.empty((count, dim))
    start = 20 + 1013 * seed
    for row in range(count):
        for d in range(dim):
            lo, hi = domain[d]
            pad = margin * (hi - lo)
            u = _halton_1d(start + row, _PRIMES[d])
            pts[row, d] = lo + pad + u * (hi - lo - 2 * pad)
    return pts


def chart_probes(chart, count: int, seed: int = 0) -> np.ndarray:
    return halton_points(chart.domain, count, seed=seed)
