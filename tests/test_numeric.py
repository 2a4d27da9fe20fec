import numpy as np
import pytest

from masknet.errors import ConfigError, DimensionError, MaskNetError
from masknet.numeric import (
    CACHE_LINE,
    GradcheckReport,
    ParamStore,
    affine_bwd,
    affine_fwd,
    gradcheck,
    make_rng,
    sigmoid,
    relu_bwd,
    relu_fwd,
)
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
from oracles import o_sigmoid_sign_split, sigmoid_bwd


def test_affine_identity():
    x = np.array([[3.0, -1.0]])
    y = affine_fwd(x, np.eye(2), np.zeros(2))
    assert np.array_equal(y, x)


def test_affine_zero_weights():
    y = affine_fwd(np.array([[9.0, 9.0, 9.0]]), np.zeros((2, 3)), np.array([5.0, 5.0]))
    assert np.array_equal(y, np.array([[5.0, 5.0]]))


def test_affine_shape_mismatch_names_operands():
    with pytest.raises(DimensionError, match="affine"):
        affine_fwd(np.zeros((1, 3)), np.zeros((2, 4)))
    with pytest.raises(DimensionError, match="affine"):
        affine_fwd(np.zeros((1, 3)), np.zeros((2, 3)), np.zeros(3))


def test_affine_gradcheck(rng):
    store = ParamStore({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=4), "x": rng.normal(size=(1, 3))})
    u = rng.normal(size=(1, 4))

    def f(store):
        p = store.params
        y = affine_fwd(p["x"], p["w"], p["b"])
        dx, dw, db = affine_bwd(u, p["x"], p["w"])
        store.grads["x"] += dx
        store.grads["w"] += dw
        store.grads["b"] += db
        return float((u * y).sum()), None

    rep = gradcheck(f, store, tol=1e-6, name="affine")
    assert rep.passed, rep.line()


def test_relu_basic():
    x = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(relu_fwd(x), [[0.0, 0.0, 2.0]])
    # subgradient at 0 is 0
    assert np.array_equal(relu_bwd(np.ones((1, 3)), x), [[0.0, 0.0, 1.0]])


def test_relu_all_negative():
    x = -np.arange(1.0, 5.0).reshape(1, 4)
    assert np.array_equal(relu_fwd(x), np.zeros((1, 4)))
    assert np.array_equal(relu_bwd(np.ones((1, 4)), x), np.zeros((1, 4)))


def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid_bwd(1.0, sigmoid(0.0)) == 0.25
    assert sigmoid(-800.0) > 0.0
    assert sigmoid(800.0) < 1.0
    big = sigmoid(np.array([-1e4, 1e4, 0.0]))
    assert np.all(np.isfinite(big)) and np.all((big > 0) & (big < 1))


# Both sides of 0, the exp underflow and overflow edges and the clip edges.
SIGMOID_EDGES = [v for p in (0.0, 1e-300, 36.8, 709.8, 745.2, 1e4, np.inf) for v in (p, -p)] + [np.nan]


def test_sigmoid_bits_match_the_sign_split_oracle():
    want = o_sigmoid_sign_split(np.array(SIGMOID_EDGES))
    assert np.array_equal(sigmoid(np.array(SIGMOID_EDGES)), want, equal_nan=True)
    for s, w in zip(SIGMOID_EDGES, want):
        out = sigmoid(s)
        assert type(out) is float
        assert np.array_equal(out, w, equal_nan=True), s


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0), elements=st.floats()))
def test_sigmoid_bits_match_the_sign_split_oracle_anywhere(s):
    assert np.array_equal(sigmoid(s), o_sigmoid_sign_split(s), equal_nan=True)


def test_sigmoid_matches_definition():
    for s in (-3.0, -0.5, 0.1, 7.0):
        assert sigmoid(s) == pytest.approx(1.0 / (1.0 + np.exp(-s)), rel=1e-15)


def test_gradcheck_quadratic_self_test():
    store = ParamStore({"theta": np.array([3.0])})

    def f(store):
        th = store.params["theta"][0]
        store.grads["theta"] += 2.0 * th
        return th * th, None

    rep = gradcheck(f, store, h=1e-4, tol=1e-6, name="theta_squared")
    # analytic 6 vs central difference 6: exact for a quadratic up to rounding
    assert rep.passed and rep.max_rel_err < 1e-10


def test_gradcheck_reports_nonfinite():
    store = ParamStore({"theta": np.array([0.0])})

    def f(store):
        th = store.params["theta"][0]
        store.grads["theta"] += 0.0
        return float("nan") if th != 0.0 else 1.0, None

    rep = gradcheck(f, store, name="nan_case")
    assert not rep.passed and "non-finite" in rep.failure


def test_gradcheck_rejects_bad_step():
    store = ParamStore({"t": np.ones(1)})
    with pytest.raises(MaskNetError):
        gradcheck(lambda s: (0.0, None), store, h=1e-2)


def test_param_store_invariants(rng):
    a0 = rng.normal(size=(2, 3))
    store = ParamStore({"a": a0, "c": np.arange(4.0)})
    a = store.params["a"]
    assert np.array_equal(a, a0) and a is not a0
    assert store.grads["a"].shape == a.shape
    assert store.names() == ["a", "c"]
    assert np.array_equal(store.param_buf, np.concatenate([a0.ravel(), np.arange(4.0)]))
    for buf in (store.param_buf, store.grad_buf, store.adam_m, store.adam_v):
        assert buf.size == 10 and buf.ctypes.data % CACHE_LINE == 0
    store.grads["a"] += 1.0
    store.zero_grads()
    assert np.array_equal(store.grads["a"], np.zeros((2, 3)))
    assert store.size() == 10
    assert store.l2_sq() == pytest.approx(float((a * a).sum()) + 14.0)
    snap = store.snapshot()
    saved = a.copy()
    a += 5.0
    store.restore(snap)
    assert np.array_equal(store.params["a"], saved)
    store.params["c"][...] = 7.0
    assert np.array_equal(store.param_buf[6:], np.full(4, 7.0))
    assert store.span(["a", "c"]) == slice(0, 10)
    with pytest.raises(MaskNetError):
        store.span(["c", "a"])


def test_rng_determinism_and_streams():
    a = make_rng(42, 0).normal(size=8)
    b = make_rng(42, 0).normal(size=8)
    c = make_rng(42, 1).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        make_rng(-1, 0)


def test_report_line_format():
    rep = GradcheckReport("demo", 1e-4, 1e-9, "w[0]", 10, 1)
    assert rep.passed and rep.line().startswith("PASS demo:")
