import numpy as np
import pytest

from masknet.data import (
    ColumnSpec,
    SyntheticSpec,
    build_manifest,
    build_schema_and_encode,
    dataset_to_csv,
    gen_synthetic,
    ingest_csv,
    marginal_ctr_scores,
    parse_column_spec,
    read_delimited,
    schema_spec_text,
    split_dataset,
    split_indices,
    standardize_numerical,
)
from masknet.errors import ConfigError, IngestError, SchemaError
from masknet.evaluate import auc

COLS = [
    ColumnSpec("color", "categorical"),
    ColumnSpec("size", "numerical"),
    ColumnSpec("label", "label"),
]


def csv_of(rows):
    return "color,size,label\n" + "\n".join(rows) + "\n"


def test_vocab_built_in_first_seen_order():
    raw = read_delimited(csv_of(["a,1.0,0", "b,2.0,1", "a,3.0,0"]), COLS)
    schema, ds = build_schema_and_encode(raw)
    fld = schema.categorical[0]
    assert fld.vocab == ("a", "b") and fld.vocab_size == 2
    assert ds.cat[:, 0].tolist() == [0, 1, 0]


def test_unseen_category_maps_to_oov():
    raw = read_delimited(csv_of(["a,1.0,0", "b,2.0,1", "zz,3.0,0"]), COLS)
    schema, ds = build_schema_and_encode(raw, train_rows=np.array([0, 1]))
    assert ds.cat[2, 0] == schema.categorical[0].vocab_size  # reserved OOV slot


def test_numerical_passthrough():
    raw = read_delimited(csv_of(["a,3.5,0"]), COLS)
    _, ds = build_schema_and_encode(raw)
    assert ds.num[0, 0] == 3.5


def test_malformed_row_names_line():
    with pytest.raises(IngestError, match="line 3"):
        read_delimited("color,size,label\na,1.0,0\nb,2.0\n", COLS)


def test_non_binary_label_rejected():
    raw = read_delimited(csv_of(["a,1.0,2"]), COLS)
    with pytest.raises(SchemaError, match="label"):
        build_schema_and_encode(raw)
    raw = read_delimited(csv_of(["a,1.0,oops"]), COLS)
    with pytest.raises(IngestError):
        build_schema_and_encode(raw)


def test_header_mismatch_rejected():
    with pytest.raises(SchemaError, match="header"):
        read_delimited("color,size,wrong\na,1.0,0\n", COLS)


def test_column_spec_parsing():
    cols = parse_column_spec("# comment\ncolor,categorical\nsize,numerical\nlabel,label\n")
    assert [c.kind for c in cols] == ["categorical", "numerical", "label"]
    with pytest.raises(SchemaError):
        parse_column_spec("color,categorical\n")  # no label
    with pytest.raises(SchemaError):
        parse_column_spec("a,categorical\nlabel,label\nx,bogus\n")


def test_split_sizes_and_determinism():
    tr, va, te = split_indices(10, seed=7)
    assert (len(tr), len(va), len(te)) == (8, 1, 1)
    tr, va, te = split_indices(100, seed=7)
    assert (len(tr), len(va), len(te)) == (80, 10, 10)
    assert not set(tr) & set(va) and not set(tr) & set(te) and not set(va) & set(te)
    tr2, va2, te2 = split_indices(100, seed=7)
    assert np.array_equal(tr, tr2) and np.array_equal(va, va2) and np.array_equal(te, te2)
    assert not np.array_equal(split_indices(100, seed=8)[0], tr)
    with pytest.raises(ConfigError):
        split_indices(9, seed=0)


def test_vocab_round_trip():
    raw = read_delimited(csv_of(["a,1.0,0", "b,2.0,1", "c,3.0,0"]), COLS)
    schema, ds = build_schema_and_encode(raw)
    fld = schema.categorical[0]
    assert [fld.decode(fld.encode(t)) for t in fld.vocab] == list(fld.vocab)
    assert fld.decode(fld.encode("unseen")) == "<OOV>"


def test_synthetic_scale_zero_is_chance():
    ds = gen_synthetic(SyntheticSpec(fields=4, vocab=10, instances=100_000, logit_scale=0.0, seed=3))
    assert np.all(ds.logits == 0.0)
    assert 0.49 <= ds.positive_rate <= 0.51
    # nothing to learn: even the marginal predictor sits at chance
    tr, va, te = split_dataset(ds, seed=3)
    assert 0.45 <= auc(marginal_ctr_scores(tr, te), te.labels) <= 0.55


def test_synthetic_default_oracles():
    ds = gen_synthetic(SyntheticSpec(seed=1))
    tr, va, te = split_dataset(ds, seed=1)
    bayes = auc(te.logits, te.labels)
    marginal = auc(marginal_ctr_scores(tr, te), te.labels)
    assert bayes > 0.95  # near-deterministic labels at scale 4
    assert marginal <= 0.62  # zero-mean latents leave no single-field signal
    assert marginal <= bayes


def test_synthetic_degenerate_single_category():
    # one category per field: a single constant logit, so ranking is all ties
    ds = gen_synthetic(SyntheticSpec(fields=2, vocab=1, latent_dim=2, instances=500, seed=9))
    assert np.all(ds.logits == ds.logits[0])
    from masknet.errors import MetricError

    try:
        assert auc(ds.logits, ds.labels) == 0.5  # tie rule
    except MetricError:
        pass  # single-class labels are possible when the constant logit is extreme


def test_synthetic_determinism():
    a = gen_synthetic(SyntheticSpec(seed=5))
    b = gen_synthetic(SyntheticSpec(seed=5))
    assert np.array_equal(a.cat, b.cat) and np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.logits, b.logits)


def test_manifest_contents():
    spec = SyntheticSpec(fields=4, vocab=8, instances=2000, seed=2)
    full = gen_synthetic(spec)
    splits = split_dataset(full, seed=2)
    man = build_manifest(full, spec=spec, splits=splits, split_seed=2)
    for key in ("instances", "positive_rate", "bayes_auc_full", "bayes_auc_test",
                "marginal_auc_test", "generator.logit_scale", "n_train"):
        assert key in man, key
    assert man["instances"] == "2000"
    assert man["n_train"] == "1600"


def test_csv_round_trip_preserves_content():
    spec = SyntheticSpec(fields=3, vocab=5, instances=200, seed=4)
    full = gen_synthetic(spec)
    text = dataset_to_csv(full)
    cols = parse_column_spec(schema_spec_text(full.schema, with_logit=True))
    raw = read_delimited(text, cols)
    schema2, ds2 = build_schema_and_encode(raw)
    # same category tokens row by row, labels and stored logits intact
    for i in (0, 57, 199):
        orig = [f.decode(int(full.cat[i, a])) for a, f in enumerate(full.schema.categorical)]
        back = [f.decode(int(ds2.cat[i, a])) for a, f in enumerate(schema2.categorical)]
        assert orig == back
    assert np.array_equal(full.labels, ds2.labels)
    assert np.allclose(full.logits, ds2.logits, rtol=0, atol=0)


def test_ingest_csv_pipeline_vocab_from_train_only():
    # a token that appears once lands outside the training rows for this seed
    rows = [f"tok{i},{i}.0,{i % 2}" for i in range(20)]
    text = csv_of(rows)
    schema, tr, va, te = ingest_csv(text, COLS, seed=0)
    fld = schema.categorical[0]
    assert fld.vocab_size == tr.n  # every training token unique
    held_out = np.concatenate([va.cat[:, 0], te.cat[:, 0]])
    assert np.all(held_out == fld.vocab_size)  # all OOV
    assert tr.split == "train" and te.split == "test"


def test_standardize_uses_train_stats():
    rng = np.random.default_rng(0)
    rows = [f"c{i % 3},{rng.normal(5.0, 3.0)},{i % 2}" for i in range(50)]
    _, tr, va, te = ingest_csv(csv_of(rows), COLS, seed=6)
    tr2, va2, te2 = standardize_numerical(tr, va, te)
    assert abs(tr2.num.mean()) < 1e-12
    assert abs(tr2.num.std() - 1.0) < 1e-12
    assert va2.num.shape == va.num.shape
    # valid/test shifted by the same train statistics
    shift = (va.num - va2.num * tr.num.std()).mean()
    assert shift == pytest.approx(tr.num.mean(), rel=1e-9)


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
def test_non_finite_numerical_cell_names_line_and_field(token):
    raw = read_delimited(csv_of(["a,1.0,0", f"b,{token},1", "a,3.0,0"]), COLS)
    with pytest.raises(IngestError, match=r"line 3: field 'size'.*not finite"):
        build_schema_and_encode(raw)


@pytest.mark.parametrize("token", ["nan", "-inf"])
def test_non_finite_logit_cell_names_line_and_field(token):
    cols = COLS + [ColumnSpec("true_logit", "logit")]
    text = "color,size,label,true_logit\na,1.0,0,0.5\na,2.0,1,0.25\n" + f"b,2.0,1,{token}\n"
    with pytest.raises(IngestError, match=r"line 4: logit 'true_logit'.*not finite"):
        build_schema_and_encode(read_delimited(text, cols))
