import numpy as np
import pytest

from masknet.data import SyntheticSpec, gen_synthetic
from masknet.errors import MetricError
from masknet.evaluate import HIST_BINS, auc, evaluate_model, inspect_masks, relaimp
from masknet.model import Model, ModelSpec
from masknet.numeric import make_rng
from oracles import brute_force_auc


def test_auc_perfectly_separated():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0.0, 0.0, 1.0, 1.0])
    assert auc(scores, labels) == 1.0
    assert auc(-scores, labels) == 0.0


def test_auc_all_ties_is_half():
    assert auc(np.zeros(10), np.array([0, 1] * 5, dtype=float)) == 0.5


def test_auc_single_class_undefined():
    with pytest.raises(MetricError):
        auc(np.arange(4.0), np.ones(4))
    with pytest.raises(MetricError):
        auc(np.arange(4.0), np.zeros(4))


def test_auc_matches_brute_force_exactly():
    rng = make_rng(3, 17)
    for case in range(30):
        n = int(rng.integers(10, 400))
        # quantized scores force plenty of ties
        scores = np.round(rng.normal(size=n), 1)
        labels = (rng.uniform(size=n) < 0.4).astype(np.float64)
        if labels.sum() in (0, n):
            continue
        assert auc(scores, labels) == brute_force_auc(scores, labels)


def test_auc_invariant_under_monotone_transforms():
    rng = make_rng(4, 17)
    scores = rng.normal(size=200)
    labels = (rng.uniform(size=200) < 0.5).astype(np.float64)
    base = auc(scores, labels)
    assert auc(np.exp(scores), labels) == base
    assert auc(3.0 * scores + 11.0, labels) == base


def test_auc_complement_for_tie_free_scores():
    rng = make_rng(5, 17)
    scores = rng.permutation(300).astype(np.float64)  # distinct
    labels = (rng.uniform(size=300) < 0.5).astype(np.float64)
    assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


def test_relaimp_reference_values():
    assert relaimp(0.7820, 0.7785) == pytest.approx(1.26, abs=0.005)
    assert relaimp(0.8119, 0.7895) == pytest.approx(7.74, abs=0.005)
    assert relaimp(0.7785, 0.7785) == 0.0
    with pytest.raises(MetricError):
        relaimp(0.6, 0.5)
    assert relaimp(0.9, 1.0) == pytest.approx(-20.0)  # the largest baseline allowed
    for base in (float("nan"), float("inf"), 1.5):
        with pytest.raises(MetricError, match="outside"):
            relaimp(0.6, base)


def test_evaluate_model_report(rng):
    ds = gen_synthetic(SyntheticSpec(fields=3, vocab=4, instances=300, seed=2))
    model = Model(ModelSpec(topology="linear", block_widths=()), ds.schema)
    rep = evaluate_model(model, ds, baseline=("fm", 0.75))
    assert rep.n_pos + rep.n_neg == ds.n
    assert rep.auc == 0.5  # untrained model scores every instance identically
    assert rep.relaimp_pct == pytest.approx(-100.0)
    text = rep.text()
    assert "auc=0.500000" in text and "baseline=fm" in text


def trained_like_model(seed=3):
    ds = gen_synthetic(SyntheticSpec(fields=4, vocab=6, instances=500, seed=seed))
    spec = ModelSpec(topology="serial", block_widths=(5, 5), embed_dim=4, reduction=2, seed=seed)
    model = Model(spec, ds.schema)
    return model, ds


def test_inspect_masks_structure():
    model, ds = trained_like_model()
    insp = inspect_masks(model, ds, sample_size=200, n_examples=2, seed=0)
    assert len(insp.histograms) == 2
    for b, hist in enumerate(insp.histograms):
        assert hist.block == b + 1
        assert len(hist.edges) == HIST_BINS + 1
        assert len(hist.counts) == HIST_BINS
        width = model.store.params[f"block{b + 1}.mask.b2"].size
        assert hist.counts.sum() == 200 * width
        text = hist.text()
        assert text.splitlines()[0].startswith(f"# block={b + 1} bins={HIST_BINS}")
        assert "np.float64" not in text  # plain parseable floats only
        lo, hi, count = text.splitlines()[2].split(",")
        float(lo), float(hi), int(count)
    assert insp.example_masks[0].shape[0] == 2


def test_untrained_masks_concentrate_near_zero():
    model, ds = trained_like_model(seed=4)  # projection bias init 0
    insp = inspect_masks(model, ds, sample_size=300, seed=1)
    for hist in insp.histograms:
        assert max(abs(hist.edges[0]), abs(hist.edges[-1])) < 3.0


def test_identical_instances_identical_masks():
    model, ds = trained_like_model(seed=5)
    cat = np.repeat(ds.cat[:1], 2, axis=0)
    num = np.repeat(ds.num[:1], 2, axis=0)
    for mk in model.mask_values(cat, num):
        assert np.array_equal(mk[0], mk[1])


def test_inspect_masks_rejects_empty_sample():
    model, ds = trained_like_model(seed=6)
    with pytest.raises(MetricError):
        inspect_masks(model, ds, sample_size=0)


def test_inspect_masks_rejects_negative_examples():
    model, ds = trained_like_model(seed=6)
    with pytest.raises(MetricError, match="n_examples"):
        inspect_masks(model, ds, sample_size=40, n_examples=-1)  # was a silent [:-1] slice


def test_examples_text_format():
    model, ds = trained_like_model(seed=7)
    insp = inspect_masks(model, ds, sample_size=50, n_examples=2, seed=2)
    lines = insp.examples_text().splitlines()
    assert lines[0].startswith("instance,block")
    assert len(lines) == 1 + 2 * len(insp.histograms)
    assert "np.float64" not in lines[1]
    float(lines[1].split(",")[2])
