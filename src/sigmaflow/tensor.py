"""Dense pointwise tensors, symmetric spectra and elementary symmetric
polynomials.

Component layout: contravariant slots first, then covariant slots,
row-major.  Dimensions are desk-scale (<= 8), so everything is dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TensorError(ValueError):
    pass


@dataclass(frozen=True)
class TensorValue:
    dim: int
    valence: tuple[int, int]  # (p contravariant, q covariant)
    components: np.ndarray

    def __post_init__(self):
        p, q = self.valence
        expected = (self.dim,) * (p + q)
        comps = np.asarray(self.components, dtype=float)
        if comps.shape != expected:
            raise TensorError(
                f"components shape {comps.shape} != {expected} for valence {self.valence}"
            )
        object.__setattr__(self, "components", comps)

    @property
    def rank(self) -> int:
        return sum(self.valence)


def scalar(value: float) -> float:
    return float(value)


def contract(t: TensorValue, slot_a: int, slot_b: int) -> TensorValue:
    """Contract contravariant slot ``slot_a`` against covariant slot
    ``slot_b`` (both indexed within their own variance group)."""
    p, q = t.valence
    if not 0 <= slot_a < p:
        raise TensorError(f"contravariant slot {slot_a} out of range for valence {t.valence}")
    if not 0 <= slot_b < q:
        raise TensorError(f"covariant slot {slot_b} out of range for valence {t.valence}")
    comps = np.trace(t.components, axis1=slot_a, axis2=p + slot_b)
    if p + q == 2:
        return float(comps)
    return TensorValue(t.dim, (p - 1, q - 1), comps)


def symmetrize2(t: TensorValue) -> TensorValue:
    if t.valence != (0, 2):
        raise TensorError("symmetrize2 expects a (0,2) tensor")
    return TensorValue(t.dim, (0, 2), 0.5 * (t.components + t.components.T))


def raise_index(t: TensorValue, metric: np.ndarray, slot: int = 0) -> TensorValue:
    """Raise covariant slot ``slot`` with the inverse of ``metric``."""
    p, q = t.valence
    if not 0 <= slot < q:
        raise TensorError("no such covariant slot")
    ginv = np.linalg.inv(metric)
    comps = np.tensordot(ginv, np.moveaxis(t.components, p + slot, 0), axes=(1, 0))
    comps = np.moveaxis(comps, 0, p)  # raised slot becomes last contravariant
    return TensorValue(t.dim, (p + 1, q - 1), comps)


def lower_index(t: TensorValue, metric: np.ndarray, slot: int = 0) -> TensorValue:
    p, q = t.valence
    if not 0 <= slot < p:
        raise TensorError("no such contravariant slot")
    comps = np.tensordot(metric, np.moveaxis(t.components, slot, 0), axes=(1, 0))
    comps = np.moveaxis(comps, 0, p - 1 + q)  # lowered slot becomes last covariant
    return TensorValue(t.dim, (p - 1, q + 1), comps)


# -- symmetric eigenvalues -------------------------------------------------


@dataclass(frozen=True)
class SymmetricSpectrum:
    eigenvalues: np.ndarray  # ascending

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def jacobi_eigenvalues(a: np.ndarray, tol: float = 1e-13, max_sweeps: int = 50) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0].copy()
    scale = np.max(np.abs(a)) or 1.0
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0)) \
                    if theta != 0.0 else 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                a = 0.5 * (a + a.T)
    return np.sort(np.diag(a))


def sym_eigenvalues(m: TensorValue, metric: np.ndarray) -> SymmetricSpectrum:
    """Ascending eigenvalues of a metric-self-adjoint (1,1) tensor.

    The endomorphism is moved to a metric-orthonormal frame via the
    Cholesky factor of ``metric`` and symmetrized there; g^{-1}A is not
    symmetric in coordinates but is self-adjoint with respect to g.  The
    program computes sigma_k without eigenvalues (``sigma.sigmas``); this
    route and ``elementary_all`` are kept as the independent oracle.
    """
    if m.valence != (1, 1):
        raise TensorError("sym_eigenvalues expects a (1,1) tensor")
    comps = m.components
    if not np.all(np.isfinite(comps)):
        raise TensorError("non-finite entries in endomorphism")
    chol = np.linalg.cholesky(metric)
    frame = chol.T @ comps @ np.linalg.inv(chol.T)
    frame = 0.5 * (frame + frame.T)
    return SymmetricSpectrum(jacobi_eigenvalues(frame))


# -- elementary symmetric polynomials --------------------------------------


def elementary_symmetric(spec: SymmetricSpectrum | np.ndarray, k: int) -> float:
    """sigma_k of the eigenvalues via the product-coefficient recurrence."""
    eig = spec.eigenvalues if isinstance(spec, SymmetricSpectrum) else np.asarray(spec)
    n = len(eig)
    if not 0 <= k <= n:
        raise TensorError(f"k={k} out of range 0..{n}")
    return elementary_all(eig)[k]


def elementary_all(eig) -> np.ndarray:
    """All sigma_0..sigma_n at once; coefficients of prod (1 + lambda_i t)."""
    eig = np.asarray(eig, dtype=float)
    n = len(eig)
    e = np.zeros(n + 1)
    e[0] = 1.0
    for lam in eig:
        for k in range(n, 0, -1):
            e[k] += lam * e[k - 1]
    return e


def sigmas_from_power_sums(powers, n: int):
    """Newton's identities: sigma_k from power sums p_1..p_n.

    Works over any commutative ring (floats or Taylor scalars);
    ``powers[m-1]`` is the trace of the m-th power of the endomorphism.
    """
    sig = [1.0 if not hasattr(powers[0], "ctx") else powers[0].ctx.constant(1.0)]
    for k in range(1, n + 1):
        acc = None
        for j in range(1, k + 1):
            term = sig[k - j] * powers[j - 1] * ((-1.0) ** (j - 1))
            acc = term if acc is None else acc + term
        sig.append(acc * (1.0 / k))
    return sig
