"""Fixed reference computation that calibrates the speed of a shared machine.

On a shared host the same pass can take twice as long for tens of seconds
at a time, so raw times of separate runs spread too widely to compare.  The
benchmark therefore runs this kernel after every timed operation and
rescales each time by ``NOMINAL_S / reference``: a time then reads in
seconds of a machine on which the kernel takes ``NOMINAL_S``.  The kernel
mixes what sigmaflow spends its time on (gather-multiply-bincount over a
product table, small-array arithmetic behind Python method calls, and
plain interpreter work) and never calls sigmaflow, so a change to the
program cannot move it.
"""

import time

import numpy as np

NOMINAL_S = 0.015

_rng = np.random.default_rng(20201106)
_IA, _IB, _IO = (_rng.integers(0, 495, 4845) for _ in range(3))
_A, _B = _rng.random(495), _rng.random(495)
_JA, _JB, _JO = _IA[:45] % 15, _IB[:45] % 15, _IO[:45] % 15


class _Jet:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        return _Jet(self.c + other.c)

    def __mul__(self, other):
        return _Jet(np.bincount(_JO, weights=self.c[_JA] * other.c[_JB],
                                minlength=15))


def reference_seconds() -> float:
    """Time of one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(240):
        np.bincount(_IO, weights=_A[_IA] * _B[_IB], minlength=495)
    x, y = _Jet(np.ones(15)), _Jet(np.full(15, 0.5))
    for _ in range(2400):
        x = y + x * y
    acc = 0
    for i in range(80000):
        acc += (i * i) % 7
    return time.perf_counter() - t0
