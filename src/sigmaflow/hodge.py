"""Helmholtz-Hodge splitting of smooth vector fields on flat square tori.

A field X on [0, 2pi)^n splits uniquely as X = grad h + Y with div Y = 0
and h of zero mean.  On the torus the potential solves the Poisson problem
Lap h = div X, which diagonalizes in Fourier modes: h_hat = (div X)_hat
divided by -|m|^2 for each nonzero integer frequency m.  Everything runs
through the FFT; grids must be power-of-two per axis so the transform stays
in its fast radix-2 regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class HodgeError(ValueError):
    pass


@dataclass(frozen=True)
class TorusField:
    """Sampled vector field: components[a] holds X^a on the uniform grid,
    axis ordering matching coordinate ordering."""
    dim: int
    shape: tuple
    components: tuple

    @classmethod
    def from_arrays(cls, comps):
        comps = tuple(np.asarray(c, dtype=float) for c in comps)
        dim = len(comps)
        if dim not in (2, 3):
            raise HodgeError("only 2- and 3-dimensional tori are supported")
        shape = comps[0].shape
        if len(shape) != dim or any(c.shape != shape for c in comps):
            raise HodgeError("component grids must share one shape per axis")
        _check_extents(shape)
        if any(not np.all(np.isfinite(c)) for c in comps):
            raise HodgeError("non-finite field samples")
        return cls(dim=dim, shape=shape, components=comps)

    @classmethod
    def from_exprs(cls, exprs, shape):
        """Sample callables f(x) (x an array of coordinates in [0, 2pi))."""
        _check_extents(shape)
        axes = [np.arange(nax) * (2 * math.pi / nax) for nax in shape]
        grids = np.meshgrid(*axes, indexing="ij")
        return cls.from_arrays([f(*grids) for f in exprs])


def _check_extents(shape):
    for nax in shape:
        if nax < 4 or nax & (nax - 1):
            raise HodgeError(f"grid extent {nax} is not a power of two >= 4")


def _wavenumbers(shape):
    return [np.fft.fftfreq(nax, d=1.0 / nax) for nax in shape]


def _spectral_partial(fhat, shape, axis):
    m = _wavenumbers(shape)[axis]
    idx = [None] * len(shape)
    idx[axis] = slice(None)
    return 1j * m[tuple(idx)] * fhat


def divergence(field: TorusField) -> np.ndarray:
    out = np.zeros(field.shape)
    for a, comp in enumerate(field.components):
        chat = np.fft.fftn(comp)
        out += np.fft.ifftn(_spectral_partial(chat, field.shape, a)).real
    return out


def hodge_decompose(field: TorusField):
    """Return (Y, h) with X = Y + grad h, div Y = 0, mean h = 0."""
    shape = field.shape
    div_hat = np.zeros(shape, dtype=complex)
    for a, comp in enumerate(field.components):
        div_hat += _spectral_partial(np.fft.fftn(comp), shape, a)

    m2 = np.zeros(shape)
    for a, m in enumerate(_wavenumbers(shape)):
        idx = [None] * len(shape)
        idx[a] = slice(None)
        m2 = m2 + m[tuple(idx)] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        h_hat = np.where(m2 > 0, div_hat / np.where(m2 > 0, -m2, 1.0), 0.0)

    h = np.fft.ifftn(h_hat).real
    grads = [np.fft.ifftn(_spectral_partial(h_hat, shape, a)).real
             for a in range(field.dim)]
    y = TorusField.from_arrays([c - g for c, g in zip(field.components, grads)])
    return y, h


def decomposition_report(field: TorusField, y: TorusField, h: np.ndarray):
    """Residual diagnostics of the decomposition (Y, h) of ``field``, as
    ``hodge_decompose`` returns it: sup |div Y|, sup reconstruction error,
    |mean h|."""
    h_hat = np.fft.fftn(h)
    recon = [np.fft.ifftn(_spectral_partial(h_hat, field.shape, a)).real + yc
             for a, yc in enumerate(y.components)]
    sup_recon = max(np.max(np.abs(r - c))
                    for r, c in zip(recon, field.components))
    return {
        "div_residual": float(np.max(np.abs(divergence(y)))),
        "reconstruction": float(sup_recon),
        "potential_mean": float(abs(np.mean(h))),
    }
