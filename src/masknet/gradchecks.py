"""Finite-difference verification suite covering every layer and topology.

Each case wraps one operation (or a whole model) in a closure whose "parameters"
include the operation's inputs, so input gradients get checked alongside weight
gradients.  Scalar losses are random linear functionals of the output, which
catches per-coordinate sign errors that a plain sum would cancel.
"""

from __future__ import annotations

import numpy as np

from .data import CATEGORICAL, NUMERICAL, Field, FeatureSchema
from .layers import (
    apply_mask,
    apply_mask_bwd,
    instance_mask_bwd,
    instance_mask_fwd,
    layer_norm_bwd,
    layer_norm_fwd,
    ln_emb_bwd,
    ln_emb_fwd,
    ln_hid_bwd,
    ln_hid_fwd,
)
from .maskblock import Ablation
from .model import Model, ModelSpec
from .numeric import (
    GradcheckReport,
    ParamStore,
    affine_bwd,
    affine_fwd,
    gradcheck,
    make_rng,
    relu_bwd,
    relu_fwd,
    sigmoid,
)
from .train import objective_closure

STREAM_GRADCHECK = 5


def _away_from_kinks(x: np.ndarray, margin: float = 1e-3) -> np.ndarray:
    """Push values out of the +/-margin band around 0 where ReLU FD is invalid."""
    return np.where(np.abs(x) < margin, x + np.sign(x + 0.5) * 2 * margin, x)


def _op_case(name, tol, inputs, u, fwd, bwd, wrt, kink=None) -> GradcheckReport:
    """Check one operation whose inputs are all checked parameters: `fwd(p)`
    gives (y, cache), the loss is sum(u * y), `bwd(u, cache, p)` gives the
    gradients of the names in `wrt` in that order, and `kink(cache)` gives the
    pre-ReLU array whose signs mark kinks."""
    store = ParamStore(inputs)

    def f(store):
        p = store.params
        y, cache = fwd(p)
        for key, grad in zip(wrt, bwd(u, cache, p)):
            store.grads[key] += grad
        return float((u * y).sum()), None if kink is None else (kink(cache) > 0.0).ravel()

    return gradcheck(f, store, tol=tol, name=name)


def _sigmoid_logloss(p):
    # one instance, one sigmoid unit, label 1: the oracle self-test
    s = sigmoid(float(p["w"] @ p["x"]))
    return -np.log(s), s


# One row per layer, in suite order.  Each row maps the draw helper
# n(*shape) to _op_case's arguments; keyword arguments and dict literals are
# evaluated left to right, so the inputs are drawn in the order listed, then u.
LAYER_CASES = {
    "dense_affine": lambda n: dict(
        tol=1e-6, inputs={"w": n(4, 3), "b": n(4), "x": n(2, 3)}, u=n(2, 4),
        fwd=lambda p: (affine_fwd(p["x"], p["w"], p["b"]), None),
        bwd=lambda u, c, p: affine_bwd(u, p["x"], p["w"]), wrt=("x", "w", "b"),
    ),
    "relu": lambda n: dict(
        tol=1e-6, inputs={"x": _away_from_kinks(n(3, 5))}, u=n(3, 5),
        fwd=lambda p: (relu_fwd(p["x"]), p["x"]),
        bwd=lambda u, x, p: (relu_bwd(u, x),), wrt=("x",), kink=lambda x: x,
    ),
    "sigmoid_logloss": lambda n: dict(
        tol=1e-5, inputs={"w": n(4), "x": n(4)}, u=1.0,
        fwd=_sigmoid_logloss,
        bwd=lambda u, s, p: (u * (s - 1.0) * p["w"], u * (s - 1.0) * p["x"]), wrt=("x", "w"),
    ),
    "layer_norm": lambda n: dict(
        tol=1e-5, inputs={"g": n(16) + 1.0, "b": n(16), "x": n(3, 16)}, u=n(3, 16),
        fwd=lambda p: layer_norm_fwd(p["x"], p["g"], p["b"]),
        bwd=lambda u, c, p: layer_norm_bwd(u, c, p["g"]), wrt=("x", "g", "b"),
    ),
    "ln_emb": lambda n: dict(  # 3 fields of width 4
        tol=1e-5, inputs={"g": n(3, 4) + 1.0, "b": n(3, 4), "x": n(2, 12)}, u=n(2, 12),
        fwd=lambda p: ln_emb_fwd(p["x"], p["g"], p["b"], 4),
        bwd=lambda u, c, p: ln_emb_bwd(u, c, p["g"]), wrt=("x", "g", "b"),
    ),
    "ln_hid": lambda n: dict(  # width 6 -> 4
        tol=1e-4, inputs={"w": n(4, 6), "g": n(4) + 1.0, "b": n(4), "x": n(2, 6)}, u=n(2, 4),
        fwd=lambda p: ln_hid_fwd(p["x"], p["w"], p["g"], p["b"]),
        bwd=lambda u, c, p: ln_hid_bwd(u, c, p["w"], p["g"]), wrt=("x", "w", "g", "b"), kink=lambda c: c[2],
    ),
    "instance_mask": lambda n: dict(  # m=6 -> t=8 -> z=4, reduction 2
        tol=1e-5, inputs={"w1": n(8, 6), "b1": n(8), "w2": n(4, 8), "b2": n(4), "x": n(2, 6)}, u=n(2, 4),
        fwd=lambda p: instance_mask_fwd(p["x"], p["w1"], p["b1"], p["w2"], p["b2"]),
        bwd=lambda u, c, p: instance_mask_bwd(u, c, p["w1"], p["w2"]),
        wrt=("x", "w1", "b1", "w2", "b2"), kink=lambda c: c[1],
    ),
    "apply_mask": lambda n: dict(
        tol=1e-6, inputs={"mask": n(2, 5), "target": n(2, 5)}, u=n(2, 5),
        fwd=lambda p: (apply_mask(p["mask"], p["target"]), None),
        bwd=lambda u, c, p: apply_mask_bwd(u, p["mask"], p["target"]), wrt=("mask", "target"),
    ),
}


def layer_check(name: str, rng) -> GradcheckReport:
    """Run the row `name` of LAYER_CASES on the generator's next draws."""
    return _op_case(name, **LAYER_CASES[name](lambda *shape: rng.normal(size=shape)))


# ---------------------------------------------------------------------------
# Whole-model checks (tiny dims)
# ---------------------------------------------------------------------------


_TINY_SCHEMA = FeatureSchema(
    (Field("c1", CATEGORICAL, ("a", "b", "c")), Field("c2", CATEGORICAL, ("p", "q")), Field("x1", NUMERICAL))
)


def _model_case(spec: ModelSpec, rng, name: str, lam: float = 0.0, head_scale: float = 0.5) -> GradcheckReport:
    """Check a tiny model's training objective on a 3-row batch (OOV indices included)."""
    model = Model(spec, _TINY_SCHEMA)
    # the zero-init head would hide everything upstream; randomize it
    head = model.store.params.get("head.w")
    if head is not None:
        head += rng.normal(scale=head_scale, size=head.shape)
        model.store.params["head.w0"] += rng.normal(scale=0.1)
    cat = np.column_stack([rng.integers(0, f.vocab_size + 1, size=3) for f in _TINY_SCHEMA.categorical])
    num = rng.normal(size=(3, len(_TINY_SCHEMA.numerical)))
    labels = rng.integers(0, 2, size=3).astype(np.float64)
    f = objective_closure(model, cat.astype(np.int64), num, labels, lam=lam)
    # central differences err by O(h^2); near the saturated slices of width-2
    # and -3 hidden LN blocks the default h=1e-4 alone exceeds the tolerance
    return gradcheck(f, model.store, h=1e-6, tol=1e-4, name=name)


def run_suite(seed: int = 0) -> list[GradcheckReport]:
    """Every layer, both block variants (inside 2/3-block models), all
    topologies, plus an L2-regularized objective; tiny dims throughout."""
    rng = make_rng(seed, STREAM_GRADCHECK)
    reports = [layer_check(name, rng) for name in LAYER_CASES]
    # k >= 3: width-2 LN slices saturate toward +/-1, whose extreme curvature
    # near zero slice variance breaks finite differences (not the gradient)
    k, r = 4, 2
    serial2 = ModelSpec(topology="serial", block_widths=(3, 4), embed_dim=k, reduction=r, seed=11)
    serial3 = ModelSpec(topology="serial", block_widths=(3, 2, 3), embed_dim=k, reduction=r, seed=12)
    parallel = ModelSpec(topology="parallel", block_widths=(2, 3), top_widths=(3,), embed_dim=k, reduction=r, seed=13)
    dnn = ModelSpec(topology="dnn", block_widths=(3, 2), embed_dim=k, seed=14)
    linear = ModelSpec(topology="linear", block_widths=(), seed=15)
    reports += [
        _model_case(serial2, rng, "serial_masknet_2_blocks"),
        _model_case(serial3, rng, "serial_masknet_3_blocks"),
        _model_case(parallel, rng, "parallel_masknet"),
        _model_case(dnn, rng, "dnn_baseline"),
        _model_case(linear, rng, "linear_baseline"),
        _model_case(serial2, rng, "serial_masknet_l2_objective", lam=0.01),
    ]
    for name in ("no_mask", "no_ln", "no_ffn"):
        ablation = Ablation.from_names([name])
        spec = ModelSpec(topology="serial", block_widths=(3, 3), embed_dim=k, reduction=r, ablation=ablation, seed=16)
        reports.append(_model_case(spec, rng, f"serial_masknet_{name}"))
    return reports
