import itertools
import re

import numpy as np
import pytest

from oracles import (contract, elementary_symmetric, lower_index, raise_index,
                     symmetrize2)
from sigmaflow.tensor import (TensorError, TensorValue, elementary_all,
                              jacobi_eigenvalues, sigmas_from_power_sums,
                              sym_eigenvalues)


def random_spd(rng, n, spread=1.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.exp(spread * rng.standard_normal(n))
    return q @ np.diag(lam) @ q.T


def charpoly_roots(a):
    """Independent eigenvalue oracle: roots of det(a - t I)."""
    return np.sort(np.roots(np.poly(a)).real)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_jacobi_against_characteristic_polynomial(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        m = rng.standard_normal((n, n))
        a = 0.5 * (m + m.T)
        mine = jacobi_eigenvalues(a)
        oracle = charpoly_roots(a)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(mine - oracle)) < 1e-8 * scale


def test_jacobi_preserves_trace_and_det():
    rng = np.random.default_rng(9)
    for n in (2, 3, 5):
        m = rng.standard_normal((n, n))
        a = 0.5 * (m + m.T)
        eig = jacobi_eigenvalues(a)
        assert np.sum(eig) == pytest.approx(np.trace(a), rel=1e-12, abs=1e-12)
        assert np.prod(eig) == pytest.approx(np.linalg.det(a), rel=1e-10, abs=1e-10)


def test_sym_eigenvalues_metric_self_adjoint():
    # spectrum of g^{-1} A must match the generalized problem A v = lam g v
    rng = np.random.default_rng(21)
    for n in (3, 4, 5):
        g = random_spd(rng, n, 0.5)
        s = rng.standard_normal((n, n))
        a = 0.5 * (s + s.T)
        endo = TensorValue(n, (1, 1), np.linalg.inv(g) @ a)
        mine = sym_eigenvalues(endo, g)
        oracle = np.sort(np.roots(np.poly(np.linalg.inv(g) @ a)).real)
        assert np.allclose(mine, oracle, atol=1e-8 * max(1, np.max(np.abs(oracle))))


def test_sym_eigenvalues_takes_a_finite_11_tensor():
    with pytest.raises(TensorError, match=re.escape("sym_eigenvalues expects a (1,1) tensor")):
        sym_eigenvalues(TensorValue(3, (0, 2), np.eye(3)), np.eye(3))
    endo = np.eye(3)
    endo[0, 1] = np.nan
    with pytest.raises(TensorError, match="non-finite entries in endomorphism"):
        sym_eigenvalues(TensorValue(3, (1, 1), endo), np.eye(3))


def test_elementary_symmetric_brute_force():
    rng = np.random.default_rng(4)
    lam = rng.standard_normal(5)
    e = elementary_all(lam)
    assert e[0] == pytest.approx(1.0)
    for k in range(1, 6):
        brute = sum(np.prod([lam[i] for i in comb])
                    for comb in itertools.combinations(range(5), k))
        assert e[k] == pytest.approx(brute, rel=1e-12, abs=1e-12)
        assert elementary_symmetric(lam, k) == pytest.approx(brute, rel=1e-12,
                                                             abs=1e-12)
    with pytest.raises(TensorError):
        elementary_symmetric(lam, 6)


def test_newton_identities_match_elementary():
    rng = np.random.default_rng(31)
    for n in (3, 4, 5):
        lam = rng.standard_normal(n)
        powers = [float(np.sum(lam ** m)) for m in range(1, n + 1)]
        sig = sigmas_from_power_sums(powers, n)
        e = elementary_all(lam)
        assert np.allclose(sig, e, rtol=1e-11, atol=1e-11)


def test_contract_is_trace():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4))
    t = TensorValue(4, (1, 1), m)
    assert contract(t, 0, 0) == pytest.approx(np.trace(m))
    r = TensorValue(3, (1, 2), rng.standard_normal((3, 3, 3)))
    c = contract(r, 0, 1)
    assert c.valence == (0, 1)
    assert np.allclose(c.components, np.einsum("aba->b", r.components))


def test_raise_lower_round_trip():
    rng = np.random.default_rng(13)
    g = random_spd(rng, 4)
    t = TensorValue(4, (0, 2), rng.standard_normal((4, 4)))
    up = raise_index(t, g, slot=0)
    assert up.valence == (1, 1)
    back = lower_index(up, g, slot=0)
    # the lowered slot re-enters as the last covariant slot, so the round
    # trip lands on the transpose of the original (0,2) tensor
    assert np.allclose(back.components, t.components.T, rtol=1e-12, atol=1e-12)
    assert np.allclose(up.components, np.linalg.inv(g) @ t.components,
                       rtol=1e-12, atol=1e-12)


def test_symmetrize2():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmetrize2(TensorValue(2, (0, 2), m))
    assert np.allclose(s.components, [[1.0, 1.0], [1.0, 3.0]])
    with pytest.raises(TensorError):
        symmetrize2(TensorValue(2, (1, 1), m))


def test_tensor_shape_validation():
    with pytest.raises(TensorError):
        TensorValue(3, (0, 2), np.zeros((3, 4)))


def test_sigmas_from_power_sums_over_taylor_ring():
    from sigmaflow.taylor import context
    ctx = context(1)
    t = ctx.variable(0, 0.7)
    # eigenvalues t and 2t: p_m = t^m + (2t)^m; sigma_1 = 3t, sigma_2 = 2t^2
    powers = [t + 2 * t, t * t + 4 * t * t]
    sig = sigmas_from_power_sums(powers, 2)
    assert sig[1].value == pytest.approx(3 * 0.7)
    assert sig[1].derivative((1,)) == pytest.approx(3.0)
    assert sig[2].value == pytest.approx(2 * 0.49)
    assert sig[2].derivative((1,)) == pytest.approx(4 * 0.7)
