import math

import numpy as np
import pytest

from sigmaflow import expr as ex
from sigmaflow.hodge import (HodgeError, TorusField, decomposition_report,
                             divergence, hodge_decompose)
from tests.oracles import hodge_full_spectrum

RANDOM_SHAPES = [(8, 8), (16, 32), (8, 8, 8), (16, 8, 32)]


def l2_inner(a_comps, b_comps):
    return sum(float(np.sum(a * b)) for a, b in zip(a_comps, b_comps))


def grid2(n=64):
    axes = np.arange(n) * (2 * math.pi / n)
    return np.meshgrid(axes, axes, indexing="ij")


def test_pure_gradient_field():
    # X = grad(sin x cos 2y): Y must vanish, h recovered up to its mean
    f = TorusField.from_exprs([
        lambda x, y: np.cos(x) * np.cos(2 * y),
        lambda x, y: -2 * np.sin(x) * np.sin(2 * y),
    ], (64, 64))
    y, h = hodge_decompose(f)
    assert max(np.max(np.abs(c)) for c in y.components) < 1e-12
    xx, yy = grid2()
    assert np.max(np.abs(h - np.sin(xx) * np.cos(2 * yy))) < 1e-12


def test_pure_divergence_free_field():
    f = TorusField.from_exprs([
        lambda x, y: -np.sin(y),
        lambda x, y: np.sin(x),
    ], (64, 64))
    y, h = hodge_decompose(f)
    assert np.max(np.abs(h)) < 1e-13
    for a in range(2):
        assert np.max(np.abs(y.components[a] - f.components[a])) < 1e-13


def test_known_mixed_split():
    f = TorusField.from_exprs([
        lambda x, y: np.cos(x) * np.cos(y) - np.sin(y),
        lambda x, y: -np.sin(x) * np.sin(y) + np.sin(x),
    ], (64, 64))
    y, h = hodge_decompose(f)
    xx, yy = grid2()
    assert np.max(np.abs(h - np.sin(xx) * np.cos(yy))) < 1e-12
    assert np.max(np.abs(y.components[0] + np.sin(yy))) < 1e-12
    assert np.max(np.abs(y.components[1] - np.sin(xx))) < 1e-12


def test_report_residuals_2d_and_3d():
    f2 = TorusField.from_exprs([
        lambda x, y: np.sin(x + 2 * y) + np.cos(3 * x),
        lambda x, y: np.exp(np.cos(y)) * np.sin(x),
    ], (64, 64))
    rep = decomposition_report(f2, *hodge_decompose(f2))
    assert rep["div_residual"] < 1e-9
    assert rep["reconstruction"] < 1e-9
    assert rep["potential_mean"] < 1e-12
    # a NaN in the second component reaches the worst value over components
    bad = TorusField(f2.shape, (f2.components[0], f2.components[1] * np.nan))
    assert math.isnan(decomposition_report(bad, *hodge_decompose(f2))["reconstruction"])

    f3 = TorusField.from_exprs([
        lambda x, y, z: np.sin(y) * np.cos(z),
        lambda x, y, z: np.sin(z + x),
        lambda x, y, z: np.cos(x) * np.sin(2 * y) + np.cos(z),
    ], (32, 32, 32))
    rep3 = decomposition_report(f3, *hodge_decompose(f3))
    assert rep3["div_residual"] < 1e-9
    assert rep3["reconstruction"] < 1e-9


def test_orthogonality_of_parts():
    f = TorusField.from_exprs([
        lambda x, y: np.sin(x) * np.cos(2 * y) + np.cos(y),
        lambda x, y: np.cos(x + y) + np.sin(3 * x) * np.sin(y),
    ], (64, 64))
    y, h = hodge_decompose(f)
    h_hat = np.fft.fftn(h)
    grads = []
    for a in range(2):
        m = np.fft.fftfreq(64, d=1.0 / 64)
        shape = [None, None]
        shape[a] = slice(None)
        grads.append(np.fft.ifftn(1j * m[tuple(shape)] * h_hat).real)
    ip = l2_inner(y.components, grads)
    scale = math.sqrt(l2_inner(y.components, y.components)
                      * max(l2_inner(grads, grads), 1e-300))
    assert abs(ip) < 1e-9 * max(scale, 1.0)


def test_idempotence():
    f = TorusField.from_exprs([
        lambda x, y, z: np.sin(x) * np.cos(y) + np.sin(2 * z),
        lambda x, y, z: np.cos(x + z),
        lambda x, y, z: np.sin(y - x),
    ], (32, 32, 32))
    y1, h1 = hodge_decompose(f)
    y2, h2 = hodge_decompose(y1)
    assert np.max(np.abs(h2)) < 1e-12
    for a in range(3):
        assert np.max(np.abs(y2.components[a] - y1.components[a])) < 1e-12


def test_divergence_spectral():
    f = TorusField.from_exprs([
        lambda x, y: np.sin(2 * x) * np.cos(y),
        lambda x, y: np.cos(x) * np.sin(3 * y),
    ], (64, 64))
    xx, yy = grid2()
    exact = 2 * np.cos(2 * xx) * np.cos(yy) + 3 * np.cos(xx) * np.cos(3 * yy)
    assert np.max(np.abs(divergence(f) - exact)) < 1e-11


def test_a_failing_component_is_evaluated_once():
    # the evaluator names the failing sample of the 8 x 8 grid itself, so
    # the component is not sampled again to find it
    tree, calls = ex.parse("log(1 - x1)"), []

    def component(*grids):
        calls.append(grids)
        return ex.eval_float(tree, grids)

    with pytest.raises(ex.EvalError) as err:
        TorusField.from_exprs([component, lambda *grids: 1.0], (8, 8))
    assert len(calls) == 1
    assert (str(err.value), err.value.probe) == (
        "log(1 - x1): log of non-positive value -0.570796 at [1.5707963267948966, 0.0]", 16)


def test_grid_validation():
    with pytest.raises(HodgeError):
        TorusField.from_arrays([np.zeros((63, 63)), np.zeros((63, 63))])
    with pytest.raises(HodgeError):
        TorusField.from_arrays([np.zeros((8, 8))])  # 1d not supported
    with pytest.raises(HodgeError):
        TorusField.from_arrays([np.zeros((8, 8)), np.zeros((8, 16))])
    bad = np.zeros((8, 8))
    bad[0, 0] = np.nan
    with pytest.raises(HodgeError):
        TorusField.from_arrays([bad, np.zeros((8, 8))])


def random_field(shape):
    # white noise: every wavenumber, the Nyquist ones of each axis included
    rng = np.random.default_rng(sum(shape))
    return TorusField.from_arrays(rng.standard_normal((len(shape), *shape)))


@pytest.mark.parametrize("shape", RANDOM_SHAPES)
def test_every_sampled_field_splits_exactly(shape):
    f = random_field(shape)
    scale = max(float(np.max(np.abs(c))) for c in f.components)
    rep = decomposition_report(f, *hodge_decompose(f))
    assert rep["div_residual"] <= 1e-12 * scale
    assert rep["reconstruction"] <= 1e-12 * scale
    assert rep["potential_mean"] <= 1e-12 * scale


@pytest.mark.parametrize("shape", RANDOM_SHAPES)
def test_half_spectrum_split_matches_full_spectrum_oracle(shape):
    f = random_field(shape)
    scale = max(float(np.max(np.abs(c))) for c in f.components)
    y, h = hodge_decompose(f)
    y_ref, h_ref = hodge_full_spectrum(f.components)
    assert np.max(np.abs(h - h_ref)) <= 1e-13 * scale
    for got, want in zip(y.components, y_ref):
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_full_spectrum_oracle_recovers_a_known_split():
    xx, yy = grid2(16)
    y_ref, h_ref = hodge_full_spectrum([np.cos(xx) * np.cos(yy) - np.sin(yy),
                                        -np.sin(xx) * np.sin(yy) + np.sin(xx)])
    assert np.max(np.abs(h_ref - np.sin(xx) * np.cos(yy))) < 1e-13
    assert np.max(np.abs(y_ref[0] + np.sin(yy))) < 1e-13
    assert np.max(np.abs(y_ref[1] - np.sin(xx))) < 1e-13


def test_nyquist_field_is_divergence_free_on_the_grid():
    # sin(4 x) vanishes at the 8 grid points, so cos(4 x) has no sampled
    # derivative: it is its own divergence-free part
    f = TorusField.from_exprs([lambda x, y: np.cos(4 * x), lambda x, y: 0.0], (8, 8))
    y, h = hodge_decompose(f)
    assert np.array_equal(divergence(f), np.zeros((8, 8)))
    assert not np.any(h)
    for got, want in zip(y.components, f.components):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape, sources", [
    ((16, 32), ["exp(cos(x1))*sin(x2) + x1^2/(1 + x2^2)", "log(2 + sin(x1*x2))"]),
    ((8, 16, 32), ["sqrt(1 + x1)*cos(x2 - x3)", "tanh(x1 - x2) + x3", "2"]),
])
def test_sparse_grid_samples_equal_dense_grid_samples(shape, sources):
    trees = [ex.parse(src) for src in sources]
    f = TorusField.from_exprs([lambda *xs, t=t: ex.eval_float(t, xs) for t in trees],
                              shape)
    dense = np.meshgrid(*(np.arange(n) * (2 * math.pi / n) for n in shape),
                        indexing="ij")
    for got, t in zip(f.components, trees):
        assert got.shape == shape
        assert np.array_equal(got, ex.eval_float(t, dense))
