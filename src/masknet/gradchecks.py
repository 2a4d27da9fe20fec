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
    sigmoid,
)
from .train import objective_closure

STREAM_GRADCHECK = 5


def _away_from_kinks(x: np.ndarray, margin: float = 1e-3) -> np.ndarray:
    """Push values out of the +/-margin band around 0 where ReLU FD is invalid."""
    return np.where(np.abs(x) < margin, x + np.sign(x + 0.5) * 2 * margin, x)


def check_dense_affine(rng) -> GradcheckReport:
    store = ParamStore({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=4), "x": rng.normal(size=(2, 3))})
    u = rng.normal(size=(2, 4))

    def f(store):
        p = store.params
        y = affine_fwd(p["x"], p["w"], p["b"])
        dx, dw, db = affine_bwd(u, p["x"], p["w"])
        store.grads["x"] += dx
        store.grads["w"] += dw
        store.grads["b"] += db
        return float((u * y).sum()), None

    return gradcheck(f, store, tol=1e-6, name="dense_affine")


def check_relu(rng) -> GradcheckReport:
    store = ParamStore({"x": _away_from_kinks(rng.normal(size=(3, 5)))})
    u = rng.normal(size=(3, 5))

    def f(store):
        x = store.params["x"]
        y = np.maximum(x, 0.0)
        store.grads["x"] += u * (x > 0.0)
        return float((u * y).sum()), (x > 0.0).ravel()

    return gradcheck(f, store, tol=1e-6, name="relu")


def check_sigmoid_logloss(rng) -> GradcheckReport:
    # one-instance, one-layer sigmoid model: the oracle self-test
    store = ParamStore({"w": rng.normal(size=4), "x": rng.normal(size=4)})
    y_true = 1.0

    def f(store):
        w, x = store.params["w"], store.params["x"]
        p = sigmoid(float(w @ x))
        loss = -(y_true * np.log(p) + (1 - y_true) * np.log1p(-p))
        dlogit = p - y_true
        store.grads["w"] += dlogit * x
        store.grads["x"] += dlogit * w
        return float(loss), None

    return gradcheck(f, store, tol=1e-5, name="sigmoid_logloss")


def check_layer_norm(rng) -> GradcheckReport:
    H = 16
    store = ParamStore({"g": rng.normal(size=H) + 1.0, "b": rng.normal(size=H), "x": rng.normal(size=(3, H))})
    u = rng.normal(size=(3, H))

    def f(store):
        p = store.params
        y, cache = layer_norm_fwd(p["x"], p["g"], p["b"])
        dx, dg, db = layer_norm_bwd(u, cache, p["g"])
        store.grads["x"] += dx
        store.grads["g"] += dg
        store.grads["b"] += db
        return float((u * y).sum()), None

    return gradcheck(f, store, tol=1e-5, name="layer_norm")


def check_ln_emb(rng) -> GradcheckReport:
    f_fields, k = 3, 4
    store = ParamStore({
        "g": rng.normal(size=(f_fields, k)) + 1.0,
        "b": rng.normal(size=(f_fields, k)),
        "x": rng.normal(size=(2, f_fields * k)),
    })
    u = rng.normal(size=(2, f_fields * k))

    def f(store):
        p = store.params
        y, cache = ln_emb_fwd(p["x"], p["g"], p["b"], k)
        dx, dg, db = ln_emb_bwd(u, cache, p["g"])
        store.grads["x"] += dx
        store.grads["g"] += dg
        store.grads["b"] += db
        return float((u * y).sum()), None

    return gradcheck(f, store, tol=1e-5, name="ln_emb")


def check_ln_hid(rng) -> GradcheckReport:
    t, m = 6, 4
    store = ParamStore({
        "w": rng.normal(size=(m, t)),
        "g": rng.normal(size=m) + 1.0,
        "b": rng.normal(size=m),
        "x": rng.normal(size=(2, t)),
    })
    u = rng.normal(size=(2, m))

    def f(store):
        p = store.params
        y, cache = ln_hid_fwd(p["x"], p["w"], p["g"], p["b"])
        dx, dw, dg, db = ln_hid_bwd(u, cache, p["w"], p["g"])
        store.grads["x"] += dx
        store.grads["w"] += dw
        store.grads["g"] += dg
        store.grads["b"] += db
        return float((u * y).sum()), (cache[2] > 0.0).ravel()

    return gradcheck(f, store, tol=1e-4, name="ln_hid")


def check_instance_mask(rng) -> GradcheckReport:
    m, z, r = 6, 4, 2
    t = r * z
    store = ParamStore({
        "w1": rng.normal(size=(t, m)),
        "b1": rng.normal(size=t),
        "w2": rng.normal(size=(z, t)),
        "b2": rng.normal(size=z),
        "x": rng.normal(size=(2, m)),
    })
    u = rng.normal(size=(2, z))

    def f(store):
        p = store.params
        mask, cache = instance_mask_fwd(p["x"], p["w1"], p["b1"], p["w2"], p["b2"])
        dv, dw1, db1, dw2, db2 = instance_mask_bwd(u, cache, p["w1"], p["w2"])
        store.grads["x"] += dv
        store.grads["w1"] += dw1
        store.grads["b1"] += db1
        store.grads["w2"] += dw2
        store.grads["b2"] += db2
        return float((u * mask).sum()), (cache[1] > 0.0).ravel()

    return gradcheck(f, store, tol=1e-5, name="instance_mask")


def check_apply_mask(rng) -> GradcheckReport:
    store = ParamStore({"mask": rng.normal(size=(2, 5)), "target": rng.normal(size=(2, 5))})
    u = rng.normal(size=(2, 5))

    def f(store):
        p = store.params
        y = apply_mask(p["mask"], p["target"])
        dm, dt = apply_mask_bwd(u, p["mask"], p["target"])
        store.grads["mask"] += dm
        store.grads["target"] += dt
        return float((u * y).sum()), None

    return gradcheck(f, store, tol=1e-6, name="apply_mask")


# ---------------------------------------------------------------------------
# Whole-model checks (tiny dims)
# ---------------------------------------------------------------------------


def tiny_schema() -> FeatureSchema:
    return FeatureSchema(
        (
            Field("c1", CATEGORICAL, ("a", "b", "c")),
            Field("c2", CATEGORICAL, ("p", "q")),
            Field("x1", NUMERICAL),
        )
    )


def tiny_batch(schema: FeatureSchema, rng, n: int = 3):
    cat = np.column_stack(
        [rng.integers(0, f.vocab_size + 1, size=n) for f in schema.categorical]
    )
    num = rng.normal(size=(n, len(schema.numerical)))
    labels = rng.integers(0, 2, size=n).astype(np.float64)
    return cat.astype(np.int64), num, labels


def _model_case(spec: ModelSpec, rng, name: str, lam: float = 0.0, head_scale: float = 0.5) -> GradcheckReport:
    schema = tiny_schema()
    model = Model(spec, schema)
    # the zero-init head would hide everything upstream; randomize it
    head = model.store.params.get("head.w")
    if head is not None:
        head += rng.normal(scale=head_scale, size=head.shape)
        model.store.params["head.w0"] += rng.normal(scale=0.1)
    cat, num, labels = tiny_batch(schema, rng)
    f = objective_closure(model, cat, num, labels, lam=lam)
    return gradcheck(f, model.store, tol=1e-4, name=name)


def run_suite(seed: int = 0) -> list[GradcheckReport]:
    """Every layer, both block variants (inside 2/3-block models), all
    topologies, plus an L2-regularized objective; tiny dims throughout."""
    rng = make_rng(seed, STREAM_GRADCHECK)
    reports = [
        check_dense_affine(rng),
        check_relu(rng),
        check_sigmoid_logloss(rng),
        check_layer_norm(rng),
        check_ln_emb(rng),
        check_ln_hid(rng),
        check_instance_mask(rng),
        check_apply_mask(rng),
    ]
    # k >= 3: width-2 LN slices saturate toward +/-1, whose extreme curvature
    # near zero slice variance breaks finite differences (not the gradient)
    k, r = 4, 2
    serial2 = ModelSpec(topology="serial", block_widths=(3, 4), embed_dim=k, reduction=r, seed=11)
    serial3 = ModelSpec(topology="serial", block_widths=(3, 2, 3), embed_dim=k, reduction=r, seed=12)
    parallel = ModelSpec(
        topology="parallel", block_widths=(2, 3), top_widths=(3,), embed_dim=k, reduction=r, seed=13
    )
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
    for names in (["no_mask"], ["no_ln"], ["no_ffn"]):
        spec = ModelSpec(
            topology="serial",
            block_widths=(3, 3),
            embed_dim=k,
            reduction=r,
            ablation=Ablation.from_names(names),
            seed=16,
        )
        reports.append(_model_case(spec, rng, f"serial_masknet_{names[0]}"))
    return reports
