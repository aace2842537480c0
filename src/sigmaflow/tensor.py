"""Dense pointwise tensors, symmetric spectra and Newton's identities, the
elementary symmetric polynomials from power sums.

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


# -- symmetric eigenvalues -------------------------------------------------


JACOBI_TOL = 1e-13  # off-diagonal norm over the largest entry that ends the sweeps
JACOBI_MAX_SWEEPS = 50


def jacobi_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0].copy()
    scale = np.max(np.abs(a)) or 1.0
    for _ in range(JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= JACOBI_TOL * scale:
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


def sym_eigenvalues(m: TensorValue, metric: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (1,1) tensor self-adjoint for ``metric``, in
    a metric-orthonormal frame from the Cholesky factor.  With
    ``oracles.elementary_all`` it is the tests' oracle for ``sigma.sigmas``."""
    if m.valence != (1, 1):
        raise TensorError("sym_eigenvalues expects a (1,1) tensor")
    comps = m.components
    if not np.all(np.isfinite(comps)):
        raise TensorError("non-finite entries in endomorphism")
    chol = np.linalg.cholesky(metric)
    frame = chol.T @ comps @ np.linalg.inv(chol.T)
    frame = 0.5 * (frame + frame.T)
    return jacobi_eigenvalues(frame)


# -- Newton's identities ---------------------------------------------------


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
