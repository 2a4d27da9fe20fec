"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The training-based criteria share module-scoped fixtures so every
(seed, model) pair on the synthetic benchmark is trained exactly once.
Budgets are matched across models: identical data, split, batch size,
learning rate, and epoch cap (well under the 30-epoch ceiling).
Run with `pytest tests/test_acceptance.py -v -s` to stream the lines.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_batch, small_schema
from masknet.data import SyntheticSpec, gen_synthetic, split_dataset
from masknet.evaluate import HIST_BINS, auc, inspect_masks, relaimp
from masknet.experiments import run_ablation_grid, run_experiment
from masknet.gradchecks import run_suite
from masknet.layers import layer_norm_fwd
from masknet.maskblock import Ablation
from masknet.model import Model, ModelSpec
from masknet.numeric import make_rng
from masknet.train import TrainConfig, train
from oracles import brute_force_auc, o_forward_parallel, o_forward_serial

SEEDS = (1, 2, 3)
WIDTHS = (64, 64, 64)
# matched desk-scale budget for every model on the synthetic benchmark
BUDGET = dict(batch_size=128, learning_rate=5e-3, epochs=5, patience=5)


def _spec(topology, seed, ablation=()):
    return ModelSpec(
        topology=topology,
        block_widths=WIDTHS,
        embed_dim=10,
        reduction=2,
        ablation=Ablation.from_names(ablation),
        seed=seed,
    )


@pytest.fixture(scope="module")
def bundles():
    out = {}
    for seed in SEEDS:
        full = gen_synthetic(SyntheticSpec(seed=seed))
        splits = split_dataset(full, seed)
        test = splits[2]
        out[seed] = (splits, auc(test.logits, test.labels))
    return out


@pytest.fixture(scope="module")
def central(bundles):
    """Criterion-4 runs: {(seed, topology): (model, ExperimentResult)}, plus wall time."""
    runs = {}
    t0 = time.time()
    for seed in SEEDS:
        splits, _ = bundles[seed]
        for topo in ("linear", "dnn", "serial"):
            cfg = TrainConfig(seed=seed, **BUDGET)
            runs[(seed, topo)] = run_experiment(_spec(topo, seed), splits, cfg)
    return runs, time.time() - t0


@pytest.mark.parametrize("seed", [0, 2, 3])  # 2 and 3 failed on correct gradients at h = 1e-4
def test_criterion_1_gradients(seed):
    t0 = time.time()
    reports = run_suite(seed=seed)
    elapsed = time.time() - t0
    for rep in reports:
        assert rep.passed, rep.line()
        assert rep.tol <= 1e-4, rep.line()
    names = {r.name for r in reports}
    for required in (
        "dense_affine", "relu", "layer_norm", "ln_emb", "ln_hid", "instance_mask",
        "apply_mask", "serial_masknet_2_blocks", "serial_masknet_3_blocks",
        "parallel_masknet", "dnn_baseline",
    ):
        assert required in names, required
    assert elapsed < 60.0, f"gradcheck suite took {elapsed:.1f}s"
    worst = max(r.max_rel_err for r in reports)
    print(f"CRITERION 1 (gradients, seed {seed}): PASS - {len(reports)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2a_auc_brute_force():
    rng = make_rng(2024, 1)
    cases = 0
    while cases < 100:
        n = int(rng.integers(10, 1001))
        scores = np.round(rng.normal(size=n), 1)  # ties guaranteed
        labels = (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(np.float64)
        if labels.sum() in (0, n):
            continue
        fast, brute = auc(scores, labels), brute_force_auc(scores, labels)
        assert fast == brute, f"case {cases}: {fast} != {brute}"
        cases += 1
    print("CRITERION 2a (AUC vs brute force): PASS - 100 cases exact")


def test_criterion_2b_ablated_equals_dnn():
    schema = small_schema(f_cat=3, f_num=1, vocab=6)
    ab = Ablation(no_mask=True, no_ln=True)
    masknet = Model(ModelSpec(topology="serial", block_widths=(8, 6), embed_dim=4, ablation=ab, seed=42), schema)
    dnn = Model(ModelSpec(topology="dnn", block_widths=(8, 6), embed_dim=4, seed=42), schema)
    head_rng = make_rng(42, 3)
    hw = head_rng.normal(size=masknet.store.params["head.w"].shape)
    masknet.store.params["head.w"] += hw
    dnn.store.params["head.w"] += hw
    rng = make_rng(43, 3)
    cat, num, _ = random_batch(schema, rng, n=100)
    pm, _ = masknet.forward(cat, num)
    pd, _ = dnn.forward(cat, num)
    gap = np.abs(pm - pd).max()
    assert gap <= 1e-12, gap
    print(f"CRITERION 2b (ablated MaskNet == DNN): PASS - max forward gap {gap:.2e} over 100 instances")


def test_criterion_2c_tiny_config_oracles():
    schema = small_schema(f_cat=2, f_num=0, vocab=3)  # f=2, k=2 tiny config
    rng = make_rng(7, 3)
    worst = 0.0
    serial = Model(ModelSpec(topology="serial", block_widths=(3, 3), embed_dim=2, reduction=1, seed=1), schema)
    parallel = Model(
        ModelSpec(topology="parallel", block_widths=(3, 3), top_widths=(4,), embed_dim=2, reduction=1, seed=2),
        schema,
    )
    for model, oracle in ((serial, o_forward_serial), (parallel, o_forward_parallel)):
        model.store.params["head.w"] += rng.normal(size=model.store.params["head.w"].shape)
        cat, num, _ = random_batch(schema, rng, n=20)
        probs, _ = model.forward(cat, num)
        for i in range(20):
            worst = max(worst, abs(probs[i] - oracle(model, cat[i], num[i])))
    assert worst <= 1e-12, worst
    print(f"CRITERION 2c (scripted forward oracle): PASS - max gap {worst:.2e} (serial+parallel, both block kinds)")


def test_criterion_3_relaimp_reference_values():
    small_gap = relaimp(0.7820, 0.7785)
    large_gap = relaimp(0.8119, 0.7895)
    assert round(small_gap, 2) == 1.26, small_gap
    assert round(large_gap, 2) == 7.74, large_gap
    print(f"CRITERION 3 (RelaImp reference values): PASS - {small_gap:+.2f}% and {large_gap:+.2f}%")


def test_criterion_4_central_claim(bundles, central):
    runs, elapsed = central
    passes = 0
    for seed in SEEDS:
        _, bayes = bundles[seed]
        target = 0.5 + 0.85 * (bayes - 0.5)
        lin = runs[(seed, "linear")][1].test.auc
        dnn = runs[(seed, "dnn")][1].test.auc
        ser = runs[(seed, "serial")][1].test.auc
        ok = (
            lin < dnn < ser
            and ser - dnn >= 0.01
            and dnn - lin >= 0.05
            and ser >= target
        )
        passes += ok
        print(
            f"  seed {seed}: linear={lin:.4f} dnn={dnn:.4f} serial={ser:.4f} "
            f"bayes={bayes:.4f} 85%target={target:.4f} -> {'ok' if ok else 'FAIL'}"
        )
    assert passes >= 2, f"only {passes}/3 seeds pass"
    assert elapsed < 900.0, f"criterion-4 training took {elapsed:.0f}s"
    print(f"CRITERION 4 (central claim): PASS - {passes}/3 seeds, {elapsed:.0f}s CPU")


@pytest.fixture(scope="module")
def ablation_grid(bundles, central):
    splits, _ = bundles[1]
    cfg = TrainConfig(seed=1, **BUDGET)
    runs, _ = central
    model, result = runs[(1, "serial")]

    def reuse_serial_at_1(spec, data, train_cfg):
        # the grid's serial/full run is criterion 4's serial@1: same spec, config and splits
        if data is splits and spec == _spec("serial", 1) and train_cfg == cfg:
            return model, result
        return run_experiment(spec, data, train_cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("masknet.experiments.run_experiment", reuse_serial_at_1)
        return run_ablation_grid(splits, _spec("serial", 1), cfg)


def test_criterion_5_ablation_machinery(ablation_grid, tmp_path):
    results, table = ablation_grid
    assert len(results) == 8  # 4 variants x 2 topologies
    full = results[("serial", "full")].test.auc
    no_mask = results[("serial", "no_mask")].test.auc
    margin = full - no_mask
    assert margin >= 0.01, f"full={full:.4f} no_mask={no_mask:.4f}"
    report = tmp_path / "ablation_report.txt"
    report.write_text(table)
    text = report.read_text()
    for row in ("full", "-w/o mask", "-w/o ln", "-w/o ffn"):
        assert row in text
    assert "serial" in text and "parallel" in text
    print(f"CRITERION 5 (ablation machinery): PASS - serial full-vs-no_mask margin {margin:+.4f}")
    print(table, end="")


def test_criterion_6_training_anchors():
    full = gen_synthetic(SyntheticSpec(fields=3, vocab=4, latent_dim=2, instances=400, logit_scale=3.0, seed=5))
    splits = split_dataset(full, 5)
    tr, va, _ = splits
    # (a) initial batch loss is ln 2 for every topology
    for topo in ("serial", "parallel", "dnn", "linear"):
        model = Model(ModelSpec(topology=topo, block_widths=(6, 6), embed_dim=4, seed=5), tr.schema)
        hist = train(model, tr, va, TrainConfig(batch_size=64, epochs=1, seed=5))
        assert abs(hist.first_batch_loss - math.log(2.0)) <= 1e-9, topo
    # (b) single-instance memorization within 5000 steps
    one = tr.take(np.array([0]), "train")
    for topo in ("serial", "parallel", "dnn"):
        model = Model(ModelSpec(topology=topo, block_widths=(6, 6), embed_dim=4, seed=5), one.schema)
        hist = train(model, one, None, TrainConfig(batch_size=1, learning_rate=1e-2, epochs=5000, patience=5000, seed=5))
        assert hist.rows[-1][1] < 1e-3, (topo, hist.rows[-1])
    # (c) fixed seed, bit-identical history
    def run():
        model = Model(ModelSpec(topology="serial", block_widths=(6, 6), embed_dim=4, seed=6), tr.schema)
        return train(model, tr, va, TrainConfig(batch_size=64, learning_rate=3e-3, epochs=3, seed=6))

    h1, h2 = run(), run()
    assert h1.rows == h2.rows and h1.first_batch_loss == h2.first_batch_loss
    print("CRITERION 6 (training anchors): PASS - ln2 init, 1-instance overfit, bit-identical reruns")


def test_criterion_7_ln_invariants():
    # every LN site of a built default model: per-field embedding slices + each block
    schema = small_schema(f_cat=7, f_num=1, vocab=12)
    model = Model(_spec("serial", 0), schema)
    rng = make_rng(17, 3)
    widths = [model.store.params["ln_emb.g"].shape[-1]]
    widths += [model.store.params[f"block{i}.ln.g"].size for i in range(1, model.spec.u + 1)]
    worst_mean, worst_std = 0.0, 0.0
    for h in widths:
        x = rng.normal(size=(256, h))
        _, (xhat, _) = layer_norm_fwd(x, np.ones(h), np.zeros(h), model.spec.ln_eps)
        worst_mean = max(worst_mean, float(np.abs(xhat.mean(axis=-1)).max()))
        worst_std = max(worst_std, float(np.abs(xhat.std(axis=-1) - 1.0).max()))
    assert worst_mean <= 1e-10, worst_mean
    assert worst_std <= 1e-6, worst_std
    print(f"CRITERION 7 (LN invariants): PASS - |mean|<={worst_mean:.1e}, |std-1|<={worst_std:.1e} at widths {widths}")


def test_criterion_8_mask_inspection(bundles, central, tmp_path):
    runs, _ = central
    model = runs[(1, "serial")][0]
    splits, _ = bundles[1]
    test = splits[2]
    insp = inspect_masks(model, test, sample_size=2000, n_examples=2, seed=8)
    assert len(insp.histograms) == len(WIDTHS)
    for hist in insp.histograms:
        path = tmp_path / f"mask_hist_block{hist.block}.txt"
        path.write_text(hist.text())
        assert hist.counts.sum() > 0 and len(hist.counts) == HIST_BINS
    # distinct instances produce distinct masks
    rng = make_rng(88, 3)
    differing = 0
    for _ in range(100):
        i, j = rng.choice(test.n, size=2, replace=False)
        cat = test.cat[[i, j]]
        num = test.num[[i, j]]
        masks = model.mask_values(cat, num)
        linf = max(float(np.abs(mk[0] - mk[1]).max()) for mk in masks)
        differing += linf > 1e-6
    assert differing >= 99, differing
    print(f"CRITERION 8 (mask inspection): PASS - {len(insp.histograms)} histograms, {differing}/100 pairs distinct")
