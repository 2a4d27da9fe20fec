import math
import tracemalloc
import types

import numpy as np
import pytest

from conftest import random_batch, small_schema
from masknet import model as model_module
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
    loss, probs = train_step(model, cat, num, labels, 0.01)
    grads = model.store.grad_buf.copy()
    assert loss == logloss(probs, labels)
    objective_value, _ = objective_closure(model, cat, num, labels, lam=0.01)(model.store)
    assert objective_value == loss + 0.01 * model.store.l2_sq()
    assert np.array_equal(model.store.grad_buf, grads)


def tiled_model(topo, widths=(6, 6, 6), f_cat=7, vocab=50, embed_dim=10, n=1024):
    """A model with a random head, and an n-row batch of its schema."""
    schema = small_schema(f_cat=f_cat, f_num=1, vocab=vocab)
    model = Model(tiny_spec(topo, seed=3, block_widths=widths, top_widths=widths[:2], embed_dim=embed_dim), schema)
    head = model.store.params["head.w" if topo != "linear" else "lin.w0"]
    head += make_rng(3, 13).normal(scale=0.5, size=head.shape)
    return model, random_batch(schema, make_rng(3, 14), n=n)


def one_call_step(model, cat, num, labels, lam):
    """The step as one forward and one backward over the whole batch."""
    model.store.zero_grads()
    probs, cache = model.forward(cat, num)
    model.backward(cache, (probs - labels) / len(labels))
    add_l2_grad(model.store, lam)
    return logloss(probs, labels), probs, model.store.grad_buf.copy()


@pytest.mark.parametrize("n, calls", [(1024, [256] * 4), (300, [300]), (600, [256, 344]), (511, [511]), (512, [256, 256])])
def test_train_step_forward_calls(monkeypatch, n, calls):
    model, (cat, num, labels) = tiled_model("dnn")
    seen = []
    forward = model.forward
    monkeypatch.setattr(model, "forward", lambda cat, num: seen.append(len(cat)) or forward(cat, num))
    train_step(model, cat[:n], num[:n], labels[:n], 0.0)
    assert seen == calls


@pytest.mark.parametrize("n", [1, 300, 511])
@pytest.mark.parametrize("topo", ["serial", "parallel", "dnn", "linear"])
def test_train_step_of_one_tile_has_the_bits_of_one_call(topo, n):
    model, (cat, num, labels) = tiled_model(topo)
    cat, num, labels = cat[:n], num[:n], labels[:n]
    loss, probs, grads = one_call_step(model, cat, num, labels, 0.01)
    got_loss, got_probs = train_step(model, cat, num, labels, 0.01)
    assert got_loss == loss
    assert np.array_equal(got_probs, probs)
    assert np.array_equal(model.store.grad_buf, grads)


@pytest.mark.parametrize("topo", ["serial", "parallel", "dnn", "linear"])
def test_train_step_in_tiles_keeps_the_loss_bits(topo):
    # 256-row tiles give each row the bits of one 1024-row forward; only the
    # sums over the batch (dw, db, the LN and embedding sums) add up by tile
    model, (cat, num, labels) = tiled_model(topo, widths=(64, 64, 64))
    loss, probs, grads = one_call_step(model, cat, num, labels, 0.01)
    got_loss, got_probs = train_step(model, cat, num, labels, 0.01)
    assert got_loss == loss
    assert np.array_equal(got_probs, probs)
    assert np.abs(model.store.grad_buf - grads).max() <= 1e-12 * np.abs(grads).max()


@pytest.mark.parametrize("topo", ["serial", "parallel"])
def test_objective_closure_sees_every_tile(monkeypatch, topo):
    monkeypatch.setattr(model_module, "SCORE_TILE", 8)  # 20 rows: tiles of 8 and 12
    model, (cat, num, labels) = tiled_model(topo, widths=(3, 4), f_cat=2, vocab=3, embed_dim=4, n=20)
    f = objective_closure(model, cat, num, labels, lam=0.01)
    _, kinks = f(model.store)
    _, cache = model.forward(cat, num)
    tiles = (slice(0, 8), slice(8, 20))
    assert np.array_equal(kinks, np.concatenate([(a[t] > 0.0).ravel() for t in tiles for a in cache["relu_pre"]]))
    rep = gradcheck(f, model.store, h=1e-6, tol=1e-4, name=f"tiled_{topo}")
    assert rep.passed, rep.line()


@pytest.mark.parametrize("topo", ["serial", "parallel", "dnn"])
def test_train_step_memory_does_not_grow_with_the_batch(topo):
    # a step keeps one tile's activations alive, so 4 tiles peak like 1
    model, (cat, num, labels) = tiled_model(topo, widths=(64, 64, 64))
    train_step(model, cat[:256], num[:256], labels[:256], 0.0)
    peaks = []
    tracemalloc.start()
    try:
        for n in (256, 1024):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            train_step(model, cat[:n], num[:n], labels[:n], 0.0)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


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


def test_import_masknet_train_binds_the_module():
    # the package binds no function under a submodule's name
    import masknet.train as t

    assert isinstance(t, types.ModuleType)
    assert t.train_step is train_step
