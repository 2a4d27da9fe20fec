import math

import numpy as np
import pytest

from masknet.data import SyntheticSpec, gen_synthetic, split_dataset
from masknet.errors import ConfigError, TrainingError
from masknet.maskblock import Ablation
from masknet.model import Model, ModelSpec
from masknet.numeric import ParamStore, gradcheck, make_rng
from masknet.train import (
    ADAM_CHUNK,
    TrainConfig,
    adam_step,
    add_l2_grad,
    logloss,
    objective_closure,
    train,
    train_step,
)
from oracles import adam_trace, o_adam_arrays, objective


def test_logloss_values():
    half = np.array([0.5])
    assert logloss(half, np.array([1.0])) == pytest.approx(math.log(2.0), abs=1e-12)
    assert logloss(half, np.array([0.0])) == pytest.approx(math.log(2.0), abs=1e-12)
    assert logloss(np.array([0.9]), np.array([1.0])) == pytest.approx(0.105360516, abs=1e-8)
    # limit: clamped at 1e-12, never infinite
    assert logloss(np.array([1.0]), np.array([1.0])) <= 1.2e-12
    assert logloss(np.array([0.0]), np.array([1.0])) == pytest.approx(-math.log(1e-12), rel=1e-6)


def small_synth(seed=11, n=400):
    full = gen_synthetic(SyntheticSpec(fields=3, vocab=4, latent_dim=2, instances=n, logit_scale=3.0, seed=seed))
    return split_dataset(full, seed)


def tiny_spec(topo, seed=0, **kw):
    defaults = dict(block_widths=(6, 6), embed_dim=4, reduction=2, seed=seed)
    defaults.update(kw)
    return ModelSpec(topology=topo, **defaults)


def test_objective_is_logloss_plus_l2():
    tr, va, te = small_synth()
    model = Model(tiny_spec("dnn"), tr.schema)
    cat, num, labels = tr.cat[:32], tr.num[:32], tr.labels[:32]
    base = objective(model, cat, num, labels, lam=0.0)
    probs, _ = model.forward(cat, num)
    assert base == pytest.approx(logloss(probs, labels), abs=0)
    lam = 0.01
    reg = objective(model, cat, num, labels, lam=lam)
    assert reg == pytest.approx(base + lam * model.store.l2_sq(), rel=1e-12)


def test_full_objective_gradcheck_with_l2():
    tr, _, _ = small_synth()
    model = Model(tiny_spec("serial", seed=3), tr.schema)
    rng = make_rng(3, 13)
    model.store.params["head.w"] += rng.normal(size=model.store.params["head.w"].shape)
    f = objective_closure(model, tr.cat[:3], tr.num[:3], tr.labels[:3], lam=0.02)
    rep = gradcheck(f, model.store, tol=1e-4, name="objective_l2")
    assert rep.passed, rep.line()


def test_train_step_is_the_gradcheck_objective():
    tr, _, _ = small_synth()
    model = Model(tiny_spec("parallel", seed=4), tr.schema)
    model.store.params["head.w"] += make_rng(4, 13).normal(size=model.store.params["head.w"].shape)
    cat, num, labels = tr.cat[:16], tr.num[:16], tr.labels[:16]
    model.store.grads["head.w"] += 5.0  # stale gradient: train_step must clear it
    loss, cache = train_step(model, cat, num, labels, 0.01)
    grads = model.store.grad_buf.copy()
    assert loss == logloss(cache["probs"], labels)
    objective_value, _ = objective_closure(model, cat, num, labels, lam=0.01)(model.store)
    assert objective_value == loss + 0.01 * model.store.l2_sq()
    assert np.array_equal(model.store.grad_buf, grads)


def test_adam_zero_gradient_is_noop():
    store = ParamStore({"w": np.array([1.0, -2.0])})
    adam_step(store, TrainConfig(learning_rate=0.1))
    assert np.array_equal(store.params["w"], [1.0, -2.0])
    assert store.step == 1


def test_adam_first_step_is_sign_scaled():
    store = ParamStore({"w": np.zeros(3)})
    store.grads["w"] += np.array([0.5, -3.0, 1e-3])
    cfg = TrainConfig(learning_rate=0.01)
    adam_step(store, cfg)
    # bias-corrected m/sqrt(v) = g/|g|, so |update| ~ lr regardless of |g|
    assert np.allclose(np.abs(store.params["w"]), cfg.learning_rate, rtol=1e-4)
    assert np.array_equal(np.sign(store.params["w"]), [-1.0, 1.0, -1.0])


def test_adam_two_step_trace_matches_oracle():
    store = ParamStore({"w": np.array([0.7])})
    cfg = TrainConfig(learning_rate=0.05, beta1=0.9, beta2=0.999, adam_eps=1e-8)
    grads = [0.3, -1.2]
    expect = adam_trace(0.7, grads, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
    seen = []
    for g in grads:
        store.zero_grads()
        store.grads["w"] += g
        adam_step(store, cfg)
        seen.append(float(store.params["w"][0]))
    assert seen == pytest.approx(expect, abs=1e-15)


def test_adam_step_matches_per_array_reference_bitwise(rng):
    shapes = {"emb": (7000, 10), "w": (40, 37), "b": (40,), "s": (1,), "t": (3, 5, 7)}
    init = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    store = ParamStore(init)
    assert store.size() > ADAM_CHUNK  # more than one chunk,
    assert store.size() % ADAM_CHUNK  # the last one partial
    ref = {k: a.copy() for k, a in init.items()}
    ref_m = {k: np.zeros(shape) for k, shape in shapes.items()}
    ref_v = {k: np.zeros(shape) for k, shape in shapes.items()}
    cfg = TrainConfig(learning_rate=1e-2, l2=1e-3)
    for t in range(1, 7):
        grads = {k: rng.normal(size=shape) * (rng.random(shape) < 0.7) for k, shape in shapes.items()}
        store.zero_grads()
        for k, g in grads.items():
            store.grads[k] += g
        add_l2_grad(store, cfg.l2)
        adam_step(store, cfg)
        ref_g = {k: grads[k] + 2.0 * cfg.l2 * ref[k] for k in shapes}
        o_adam_arrays(ref, ref_g, ref_m, ref_v, t, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
        for k in shapes:
            assert np.array_equal(store.params[k], ref[k]), (t, k)


@pytest.mark.parametrize(
    "bad",
    [
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"l2": -1e-3},
        {"epochs": 0},
        {"patience": 0},
        {"beta1": 1.0},
        {"beta1": -0.1},
        {"beta2": 1.0},
        {"adam_eps": 0.0},
        {"learning_rate": float("inf")},
        {"l2": float("inf")},
        {"adam_eps": float("inf")},
        {"beta1": float("nan")},
    ],
)
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        TrainConfig(**bad)


@pytest.mark.parametrize("topo", ["serial", "parallel", "dnn", "linear"])
def test_initial_batch_loss_is_ln2(topo):
    tr, va, te = small_synth()
    model = Model(tiny_spec(topo, seed=1), tr.schema)
    cfg = TrainConfig(batch_size=64, learning_rate=1e-3, epochs=1, seed=1)
    hist = train(model, tr, va, cfg)
    assert hist.first_batch_loss == pytest.approx(math.log(2.0), abs=1e-9)


@pytest.mark.parametrize("topo", ["serial", "parallel", "dnn"])
def test_single_instance_overfit(topo):
    tr, _, _ = small_synth(seed=4)
    one = tr.take(np.array([0]), "train")
    model = Model(tiny_spec(topo, seed=4), one.schema)
    cfg = TrainConfig(batch_size=1, learning_rate=1e-2, epochs=5000, patience=5000, seed=4)
    hist = train(model, one, None, cfg)
    assert hist.rows[-1][1] < 1e-3, f"{topo}: {hist.rows[-1]}"


def test_training_is_bit_deterministic():
    tr, va, te = small_synth(seed=7)

    def run():
        model = Model(tiny_spec("serial", seed=7), tr.schema)
        hist = train(model, tr, va, TrainConfig(batch_size=64, learning_rate=3e-3, epochs=3, seed=7))
        return hist, model

    h1, m1 = run()
    h2, m2 = run()
    assert h1.rows == h2.rows  # bit-for-bit float equality
    assert h1.first_batch_loss == h2.first_batch_loss
    for name in m1.store.names():
        assert np.array_equal(m1.store.params[name], m2.store.params[name])


def test_ablated_masknet_and_biasless_dnn_share_trajectories():
    tr, va, te = small_synth(seed=9)
    ab = Ablation(no_mask=True, no_ln=True)
    mask = Model(tiny_spec("serial", seed=9, ablation=ab), tr.schema)
    dnn = Model(tiny_spec("dnn", seed=9, dnn_bias=False), tr.schema)
    cfg = TrainConfig(batch_size=64, learning_rate=3e-3, epochs=3, seed=9)
    h1 = train(mask, tr, va, cfg)
    h2 = train(dnn, tr, va, cfg)
    assert h1.rows == h2.rows


def test_l2_shrinks_parameter_norm():
    tr, va, te = small_synth(seed=5)

    def final_norm(lam):
        model = Model(tiny_spec("dnn", seed=5), tr.schema)
        train(model, tr, va, TrainConfig(batch_size=64, learning_rate=3e-3, epochs=5, l2=lam, seed=5))
        return model.store.l2_sq()

    assert final_norm(1e-3) < final_norm(0.0)


def test_nonfinite_loss_aborts_with_batch_index():
    tr, va, te = small_synth(seed=6)
    model = Model(tiny_spec("dnn", seed=6), tr.schema)
    model.store.params["mlp1.w"][0, 0] = np.nan
    with pytest.raises(TrainingError, match="epoch 1, batch 0"):
        train(model, tr, va, TrainConfig(batch_size=64, epochs=1, seed=6))


def test_history_csv_shape():
    tr, va, te = small_synth(seed=8)
    model = Model(tiny_spec("linear", seed=8), tr.schema)
    hist = train(model, tr, va, TrainConfig(batch_size=64, epochs=2, seed=8))
    text = hist.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("# first_batch_loss=")
    assert lines[1] == "epoch,train_logloss,valid_auc"
    assert len(lines) == 2 + len(hist.rows)
