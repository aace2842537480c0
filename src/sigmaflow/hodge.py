"""Helmholtz-Hodge splitting of vector fields on the flat tori [0, 2pi)^n,
n = 2 or 3.

A sampled field X splits as X = grad h + Y with div Y = 0 on the grid and h
of zero mean: h solves Lap h = div X mode by mode, by real-input FFTs on the
half spectrum; README says how a derivative reads the Nyquist wavenumber.
Grid extents are powers of two >= 4, which keep the FFT radix-2.
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
    shape: tuple
    components: tuple

    @classmethod
    def from_arrays(cls, comps):
        comps = tuple(np.asarray(c, dtype=float) for c in comps)
        if len(comps) not in (2, 3):
            raise HodgeError("only 2- and 3-dimensional tori are supported")
        shape = comps[0].shape
        if len(shape) != len(comps) or any(c.shape != shape for c in comps):
            raise HodgeError("component grids must share one shape per axis")
        _check_extents(shape)
        if any(not np.all(np.isfinite(c)) for c in comps):
            raise HodgeError("non-finite field samples")
        return cls(shape=shape, components=comps)

    @classmethod
    def from_exprs(cls, exprs, shape):
        """Sample each callable f(x1, ..., xn) once, on sparse coordinate grids
        of [0, 2pi)^n; its samples are broadcast to ``shape`` as a read-only view."""
        _check_extents(shape)
        axes = [np.arange(nax) * (2 * math.pi / nax) for nax in shape]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        return cls.from_arrays([np.broadcast_to(f(*grids), shape) for f in exprs])


def _check_extents(shape):
    for nax in shape:
        if nax < 4 or nax & (nax - 1):
            raise HodgeError(f"grid extent {nax} is not a power of two >= 4")


def _partials(shape):
    """The spectral partials i m_a of each axis a on the half spectrum of
    ``shape``, on one sparse grid of integer wavenumbers m, zero at each
    axis's Nyquist wavenumber."""
    freqs = [np.fft.fftfreq(nax, d=1.0 / nax) for nax in shape[:-1]]
    freqs.append(np.fft.rfftfreq(shape[-1], d=1.0 / shape[-1]))
    for m, nax in zip(freqs, shape):
        m[np.abs(m) == nax // 2] = 0.0
    return [1j * m for m in np.meshgrid(*freqs, indexing="ij", sparse=True)]


def _rfft(x):
    return np.fft.rfftn(x, axes=range(x.ndim))


def _irfft(x_hat, shape):
    return np.fft.irfftn(x_hat, s=shape, axes=range(len(shape)))


def divergence(field: TorusField) -> np.ndarray:
    # summed in real space, one component at a time: a sum in Fourier space
    # rounds differently (div_residual moves in its third digit)
    return sum(_irfft(d * _rfft(comp), field.shape)
               for d, comp in zip(_partials(field.shape), field.components))


def hodge_decompose(field: TorusField):
    """Return (Y, h) with X = Y + grad h, div Y = 0, mean h = 0; HodgeError
    where a transform overflows, as finite samples near the float range can."""
    partials = _partials(field.shape)
    lap = sum((d * d).real for d in partials)  # div o grad: -|m|^2 off Nyquist
    try:
        with np.errstate(over="raise", invalid="raise"):
            div_hat = sum(d * _rfft(comp) for d, comp in zip(partials, field.components))
            h_hat = np.where(lap < 0, div_hat / np.where(lap < 0, lap, 1.0), 0.0)
            h = _irfft(h_hat, field.shape)
            y = [c - _irfft(d * h_hat, field.shape) for d, c in zip(partials, field.components)]
    except FloatingPointError as err:
        raise HodgeError("the field overflows the spectral split") from err
    return TorusField.from_arrays(y), h


def decomposition_report(field: TorusField, y: TorusField, h: np.ndarray):
    """Residual diagnostics of the decomposition (Y, h) of ``field``, as
    ``hodge_decompose`` returns it: sup |div Y|, sup reconstruction error,
    |mean h|."""
    h_hat = _rfft(h)
    # per component, so no (n, *shape) stack is held; np.max keeps a NaN
    sup_recon = np.max([np.max(np.abs(_irfft(d * h_hat, field.shape) + yc - c)) for d, yc, c
                        in zip(_partials(field.shape), y.components, field.components)])
    return {
        "div_residual": float(np.max(np.abs(divergence(y)))),
        "reconstruction": float(sup_recon),
        "potential_mean": float(abs(np.mean(h))),
    }
