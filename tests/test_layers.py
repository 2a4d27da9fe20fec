import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from masknet.errors import ConfigError, DimensionError
from masknet.gradchecks import LAYER_CASES, layer_check
from masknet.layers import (
    DEFAULT_LN_EPS,
    apply_mask,
    instance_mask_fwd,
    layer_norm_bwd,
    layer_norm_fwd,
    ln_emb_fwd,
    ln_hid_fwd,
)
from masknet.numeric import make_rng
from oracles import (
    mask_unit_param_count,
    o_instance_mask,
    o_layer_norm,
    o_layer_norm_bwd_np,
    o_layer_norm_np,
    o_ln_emb,
)


def test_layer_norm_two_point():
    y, _ = layer_norm_fwd(np.array([[1.0, 3.0]]), np.ones(2), np.zeros(2), eps=1e-15)
    assert np.allclose(y, [[-1.0, 1.0]], atol=1e-7)


def test_layer_norm_constant_input_returns_bias():
    b = np.array([2.0, 2.0, 2.0])
    y, _ = layer_norm_fwd(np.full((1, 3), 7.0), np.ones(3), b)
    assert np.allclose(y, b, atol=1e-12)  # zero-variance slice guarded by eps


def test_layer_norm_pre_gain_statistics(rng):
    x = rng.normal(size=(64, 16))
    _, (xhat, _) = layer_norm_fwd(x, np.ones(16), np.zeros(16))
    assert np.abs(xhat.mean(axis=-1)).max() < 1e-10
    assert np.abs(xhat.std(axis=-1) - 1.0).max() < 1e-6


def test_layer_norm_matches_oracle(rng):
    x = rng.normal(size=6)
    g = rng.normal(size=6) + 1.0
    b = rng.normal(size=6)
    y, _ = layer_norm_fwd(x[None, :], g, b)
    assert np.allclose(y[0], o_layer_norm(x, g, b, DEFAULT_LN_EPS), atol=1e-12)


@st.composite
def layer_norm_inputs(draw):
    """x of shape (B, H) or (B, f, k), some slices constant, with g, b and dy."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 5), st.integers(1, 12)), st.tuples(*[st.integers(1, 5)] * 3)))
    values = st.floats(-1e3, 1e3, allow_subnormal=False)
    x = draw(hnp.arrays(np.float64, shape, elements=values))
    constant = draw(hnp.arrays(np.bool_, shape[:-1]))
    x[constant] = x[constant][..., :1]
    g, b = (draw(hnp.arrays(np.float64, shape[1:], elements=values)) for _ in range(2))
    return x, g, b, draw(hnp.arrays(np.float64, shape, elements=values))


@given(layer_norm_inputs())
def test_layer_norm_bits_match_the_mean_var_formulation(inputs):
    x, g, b, dy = inputs
    y, (xhat, inv_std) = layer_norm_fwd(x, g, b)
    want_y, want_xhat, want_inv_std = o_layer_norm_np(x, g, b, DEFAULT_LN_EPS)
    assert np.array_equal(y, want_y) and np.array_equal(xhat, want_xhat) and np.array_equal(inv_std, want_inv_std)
    for got, want in zip(layer_norm_bwd(dy, (xhat, inv_std), g), o_layer_norm_bwd_np(dy, xhat, inv_std, g)):
        assert np.array_equal(got, want)


@given(st.integers(2, 16), st.data())
def test_layer_norm_invariant_to_scaling_and_shifting_a_slice(h, data):
    """LN(a*x + c) = LN(x) for a > 0 but for eps and rounding.  Neighbouring
    entries of a slice are at least 1 apart, so its variance is at least 0.25;
    with a >= 0.5, eps = 1e-8 moves xhat by at most
    0.5 * eps / a^2 * sqrt(h) / var <= 3.2e-7, and rounding a*x + c for
    |c| <= 100 by about 1e-13."""
    rows = data.draw(st.integers(1, 4))
    x = data.draw(hnp.arrays(np.float64, (rows, h), elements=st.floats(-1.0, 1.0))) + 3.0 * np.arange(h)
    a = data.draw(hnp.arrays(np.float64, (rows, 1), elements=st.floats(0.5, 10.0)))
    c = data.draw(hnp.arrays(np.float64, (rows, 1), elements=st.floats(-100.0, 100.0)))
    g, b = np.ones(h), np.zeros(h)
    assert np.abs(layer_norm_fwd(a * x + c, g, b)[0] - layer_norm_fwd(x, g, b)[0]).max() <= 1e-6


def test_layer_norm_shape_mismatch():
    with pytest.raises(DimensionError):
        layer_norm_fwd(np.zeros((1, 4)), np.ones(3), np.zeros(3))


def test_ln_emb_per_field_slices():
    # first slice normalizes to [-1, 1]; constant second slice collapses to its bias
    g = np.ones((2, 2))
    b = np.stack([np.zeros(2), np.array([0.7, 0.7])])
    v = np.array([[1.0, 3.0, 5.0, 5.0]])
    y, _ = ln_emb_fwd(v, g, b, k=2, eps=1e-15)
    assert np.allclose(y[0, :2], [-1.0, 1.0], atol=1e-6)
    assert np.allclose(y[0, 2:], [0.7, 0.7], atol=1e-7)


def test_ln_emb_field_independence(rng):
    f, k = 3, 4
    g = rng.normal(size=(f, k)) + 1.0
    b = rng.normal(size=(f, k))
    v = rng.normal(size=(2, f * k))
    y, _ = ln_emb_fwd(v, g, b, k)
    perm = [2, 0, 1]
    vp = v.reshape(2, f, k)[:, perm].reshape(2, f * k)
    yp, _ = ln_emb_fwd(vp, g[perm], b[perm], k)
    assert np.allclose(yp, y.reshape(2, f, k)[:, perm].reshape(2, f * k), atol=1e-15)


def test_ln_emb_matches_oracle(rng):
    f, k = 2, 3
    g = rng.normal(size=(f, k)) + 1.0
    b = rng.normal(size=(f, k))
    v = rng.normal(size=f * k)
    y, _ = ln_emb_fwd(v[None, :], g, b, k)
    assert np.allclose(y[0], o_ln_emb(v, g, b, k, DEFAULT_LN_EPS), atol=1e-12)


def test_ln_emb_width_not_divisible():
    with pytest.raises(ConfigError):
        ln_emb_fwd(np.zeros((1, 5)), np.ones((2, 2)), np.zeros((2, 2)), k=2)


def test_ln_hid_zero_weights_gives_relu_bias():
    w = np.zeros((3, 4))
    b = np.array([-1.0, 0.5, 2.0])
    y, _ = ln_hid_fwd(np.ones((1, 4)), w, np.ones(3), b)
    assert np.allclose(y, [[0.0, 0.5, 2.0]], atol=1e-12)


def test_ln_hid_negative_bias_clips_to_zero(rng):
    w = rng.normal(size=(3, 4))
    y, _ = ln_hid_fwd(rng.normal(size=(2, 4)), w, np.ones(3), np.full(3, -50.0))
    assert np.array_equal(y, np.zeros((2, 3)))


def test_instance_mask_annihilator_and_identity(rng):
    m, z, t = 4, 4, 8
    v = rng.normal(size=(2, m))
    zero = [np.zeros((t, m)), np.zeros(t), np.zeros((z, t)), np.zeros(z)]
    mask, _ = instance_mask_fwd(v, *zero)
    assert np.array_equal(mask, np.zeros((2, z)))
    assert np.array_equal(apply_mask(mask, v), np.zeros((2, m)))
    # zero aggregation + unit projection bias: mask of ones leaves targets unchanged
    ident = [np.zeros((t, m)), np.zeros(t), rng.normal(size=(z, t)), np.ones(z)]
    mask, _ = instance_mask_fwd(v, ident[0], ident[1], ident[2] * 0, ident[3])
    assert np.array_equal(mask, np.ones((2, z)))
    assert np.array_equal(apply_mask(mask, v), v)


def test_instance_mask_matches_oracle(rng):
    m, z, t = 5, 3, 6
    w1, b1 = rng.normal(size=(t, m)), rng.normal(size=t)
    w2, b2 = rng.normal(size=(z, t)), rng.normal(size=z)
    v = rng.normal(size=m)
    mask, _ = instance_mask_fwd(v[None, :], w1, b1, w2, b2)
    assert np.allclose(mask[0], o_instance_mask(v, w1, b1, w2, b2), atol=1e-13)


def test_mask_unit_param_count_closed_form():
    # f=39 fields at k=10 masking the embedding itself with reduction 2
    assert mask_unit_param_count(m=390, z=390, r=2) == 609_570


def test_apply_mask_arithmetic_and_errors():
    out = apply_mask(np.array([[2.0, 0.0, -1.0]]), np.array([[3.0, 5.0, 4.0]]))
    assert np.array_equal(out, [[6.0, 0.0, -4.0]])
    with pytest.raises(DimensionError):
        apply_mask(np.zeros((1, 3)), np.zeros((1, 4)))


@pytest.mark.parametrize("name", list(LAYER_CASES), ids=lambda name: f"check_{name}")
def test_layer_gradchecks(name):
    # a fresh generator per case: inputs other than run_suite's shared stream draws
    rep = layer_check(name, make_rng(7, 5))
    assert rep.name == name
    assert rep.passed, rep.line()


def test_relu_gradcheck_checks_the_library_relu(monkeypatch):
    import masknet.gradchecks

    monkeypatch.setattr(masknet.gradchecks, "relu_bwd", lambda dy, x: dy)  # the sign mask forgotten
    assert not layer_check("relu", make_rng(7, 5)).passed
