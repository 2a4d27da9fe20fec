import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masknet import data
from masknet.data import (
    CATEGORICAL,
    NUMERICAL,
    ColumnSpec,
    Dataset,
    FeatureSchema,
    Field,
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
from masknet.errors import ConfigError, IngestError, MaskNetError, SchemaError
from masknet.evaluate import auc
from oracles import o_dataset_to_csv, o_ingest

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


def test_repeated_header_column_is_named():
    cols = [ColumnSpec("a", "categorical"), ColumnSpec("label", "label")]
    with pytest.raises(SchemaError, match=r"^header names column 'a' twice$"):
        read_delimited("a,a,label\nx,y,0\n", cols)
    with pytest.raises(SchemaError, match=r"^header names column 'label' twice$"):
        read_delimited("label, a ,label\n0,x,1\n", cols)


def test_repeated_spec_name_is_rejected_with_its_line():
    # the CSV reader keys columns by name, so the second entry would win silently
    with pytest.raises(SchemaError, match=r"^schema spec line 3: column 'a' is declared twice$"):
        parse_column_spec("a,categorical\n# comment\na,numerical\nlabel,label\n")
    with pytest.raises(SchemaError, match=r"^schema spec line 2: column 'label' is declared twice$"):
        parse_column_spec("label,label\nlabel,categorical\n")


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
    raw = read_delimited(csv_of(["a,1.0,0", "b,2.0,1", "c,3.0,0", "unseen,4.0,1"]), COLS)
    schema, ds = build_schema_and_encode(raw, train_rows=np.arange(3))
    assert schema.categorical[0].vocab == ("a", "b", "c")
    tokens = [line.split(",")[0] for line in dataset_to_csv(ds).splitlines()[1:]]
    assert tokens == ["a", "b", "c", "<OOV>"]


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
        orig = [f.vocab[full.cat[i, a]] for a, f in enumerate(full.schema.categorical)]
        back = [f.vocab[ds2.cat[i, a]] for a, f in enumerate(schema2.categorical)]
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


def test_error_names_physical_line_after_blank_lines():
    raw = read_delimited(csv_of(["a,1.0,0", "", "", "b,oops,1"]), COLS)
    with pytest.raises(IngestError, match=r"^line 5: field 'size' value 'oops' is not a number$"):
        build_schema_and_encode(raw)


def test_error_names_physical_line_after_multi_line_cell():
    with pytest.raises(IngestError, match=r"^line 4: expected 3 cells, got 2$"):
        read_delimited(csv_of(['"a\nb",1.0,0', "c,2.0"]), COLS)


@pytest.mark.parametrize(
    "rows, message",
    [
        # past the csv module's field size limit (131072 characters)
        (["a,1.0,0", "b,2.0,1", "x" * 200_000 + ",3.0,0", "c,4.0,1"], "line 4: field larger than field limit"),
        (["a,1.0,0", "b\rc,2.0,1"], "line 3: new-line character seen in unquoted field"),
    ],
)
def test_csv_parse_error_names_line(rows, message):
    with pytest.raises(IngestError, match="^" + message):
        read_delimited(csv_of(rows), COLS)


@pytest.mark.parametrize(
    "rows, error, message",
    [
        # the earliest faulty row wins, even over a later label fault
        (["a,1.0,0,0", "b,x,1,0", "c,2.0,oops,0"], IngestError, "line 3: field 'size' value 'x' is not a number"),
        # within a row: the label, then the logit, then the numerical fields
        (["a,1.0,0,0", "b,x,2,y"], SchemaError, "line 3: label must be 0 or 1, got '2'"),
        (["a,x,1,y"], IngestError, "line 2: logit 'y' is not a number"),
        # a non-finite cell only once every cell parses, wherever it sits,
        # and a numerical field's before the logit's
        (["a,nan,0,0", "b,x,1,0"], IngestError, "line 3: field 'size' value 'x' is not a number"),
        (["a,1.0,0,inf", "b,nan,1,0"], IngestError, "line 3: field 'size' value 'nan' is not finite"),
    ],
)
def test_which_fault_wins(rows, error, message):
    cols = COLS + [ColumnSpec("true_logit", "logit")]
    text = "color,size,label,true_logit\n" + "\n".join(rows) + "\n"
    with pytest.raises(error) as info:
        build_schema_and_encode(read_delimited(text, cols))
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# CSV ingest and export against the row-by-row oracles
# ---------------------------------------------------------------------------

DELIMITERS = [",", ";", "\t", "|"]
# leading and trailing padding that str.strip() removes, non-ASCII spaces included
_PAD = st.sampled_from(["", "", " ", "  ", "\t", "\u00a0", "\u2003"])
# category tokens: delimiters, quotes, line breaks and spaces need quoting or stripping
_TOKEN = st.text(st.sampled_from(list('ab,;|\t" \n\u00a0\u2003é')), max_size=4)
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1e3", ".5", "-0", "+2.", "1_0"]),
)
_LABEL = st.sampled_from(["0", "1", "0.0", "1.0", "1e0", "-0"])
_CELL = {CATEGORICAL: _TOKEN, NUMERICAL: _NUMBER, "logit": _NUMBER, "label": _LABEL}
# fault -> (the column kinds it goes in, its cells)
_FAULTS = {
    "not a number": (("label", "logit", NUMERICAL), ["oops", "", "1,5"]),
    "not finite": (("logit", NUMERICAL), ["nan", " -inf", "1e999"]),
    "not 0 or 1": (("label",), ["2", "0.5", "-1", "nan"]),
    "short row": ((), []),
}


def _padded(cell):
    return st.tuples(_PAD, cell, _PAD).map("".join)


@st.composite
def _delimited_case(draw):
    """Random delimited text: shuffled header, padded cells, blank lines,
    quoted multi-line cells, random training rows and up to two injected
    faults, so that both the values and the error that wins are compared."""
    cols = [ColumnSpec(f"c{i}", CATEGORICAL) for i in range(draw(st.integers(1, 3)))]
    cols += [ColumnSpec(f"x{i}", NUMERICAL) for i in range(draw(st.integers(0, 2)))]
    cols += [ColumnSpec("label", "label")] + [ColumnSpec("true_logit", "logit")] * draw(st.booleans())
    cols = draw(st.permutations(cols))
    delimiter = draw(st.sampled_from(DELIMITERS))
    n = draw(st.integers(0, 12))
    rows = [[draw(_padded(_CELL[c.kind])) for c in cols] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        row = rows[draw(st.integers(0, n - 1))]
        fault = draw(st.sampled_from(sorted(_FAULTS)))
        targets = [j for j, c in enumerate(cols[: len(row)]) if c.kind in _FAULTS[fault][0]]
        if fault == "short row" and len(row) > 1:  # an empty row would be a blank line
            del row[-1]
        elif targets:
            row[draw(st.sampled_from(targets))] = draw(st.sampled_from(_FAULTS[fault][1]))
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow([c.name for c in cols])
    for row in rows:
        buf.write("\n" * draw(st.sampled_from([0, 0, 0, 1, 2])))
        writer.writerow(row)
    train_rows = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=n)) if n else None
    return buf.getvalue(), cols, delimiter, train_rows


def _outcome(ingest):
    try:
        fields, *arrays = ingest()
    except MaskNetError as exc:
        return type(exc), str(exc)
    return fields, [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=300)
@given(case=_delimited_case())
def test_ingest_matches_row_by_row_oracle(case):
    text, cols, delimiter, train_rows = case

    def ingest():
        rows = None if train_rows is None else np.array(train_rows, dtype=np.int64)
        schema, ds = build_schema_and_encode(read_delimited(text, cols, delimiter), rows)
        fields = [(f.name, f.kind, f.vocab) for f in schema.fields]
        return fields, ds.cat, ds.num, ds.labels, ds.logits

    assert _outcome(ingest) == _outcome(lambda: o_ingest(text, cols, delimiter, train_rows))


_FLOAT = st.floats() | st.sampled_from([-0.0, 1e-300, 0.1, 1e22])
# export delimiters: the ingest ones, and characters that float reprs hold
EXPORT_DELIMITERS = DELIMITERS + [".", "e", "-", "n"]
_EXPORT_TOKEN = _TOKEN | st.sampled_from(["", "\r", "a\rb", "1e-05", "nan", "-0.5"])


@st.composite
def _dataset_case(draw):
    """A dataset with OOV indices, tokens that need quoting (or need it only
    under some delimiters), numerical fields with any float, labels of 0, 1
    and -0.0, and logits or none."""
    fields = [Field(f"c{i}", CATEGORICAL, tuple(draw(st.lists(_EXPORT_TOKEN, max_size=4))))
              for i in range(draw(st.integers(1, 3)))]
    fields += [Field(f"x {i}", NUMERICAL) for i in range(draw(st.integers(0, 2)))]
    schema = FeatureSchema(tuple(draw(st.permutations(fields))))
    n = draw(st.integers(0, 10))
    cat = np.array([[draw(st.integers(0, f.vocab_size)) for f in schema.categorical] for _ in range(n)], dtype=np.int64)
    num = np.array([[draw(_FLOAT) for _ in schema.numerical] for _ in range(n)], dtype=np.float64)
    labels = np.array([draw(st.sampled_from([0.0, 1.0, -0.0])) for _ in range(n)])
    logits = np.array([draw(_FLOAT) for _ in range(n)]) if draw(st.booleans()) else None
    ds = Dataset(schema, cat.reshape(n, len(schema.categorical)), num.reshape(n, len(schema.numerical)), labels, logits)
    return ds, draw(st.sampled_from(EXPORT_DELIMITERS))


@settings(max_examples=300)
@given(case=_dataset_case(), block=st.sampled_from([3, data._CSV_BLOCK]))
def test_export_matches_row_by_row_writer(case, block):
    """Any dataset, one block or blocks of 3 rows (several, the last partial)."""
    ds, delimiter = case
    with mock.patch.object(data, "_CSV_BLOCK", block):
        assert dataset_to_csv(ds, delimiter) == o_dataset_to_csv(ds, delimiter)


def _quoting_case(n, with_logits):
    schema = FeatureSchema((
        Field("city", CATEGORICAL, ("a,b", 'say "hi"', "two\nlines", " pad ", "x;y|z\tw", "", "r\rn", "1.5e-07")),
        Field("price", NUMERICAL),
    ))
    return Dataset(
        schema,
        cat=np.arange(n, dtype=np.int64).reshape(n, 1) % 9,  # index 8 is the OOV slot
        num=np.resize([0.1, -0.0, 1e300, np.nan, -np.inf, 2.5], (n, 1)),
        labels=np.resize([0.0, 1.0, -0.0, 0.0, 1.0, 0.0], n),
        logits=np.linspace(-1.0, 1.0, n) if with_logits else None,
    )


@pytest.mark.parametrize("delimiter", EXPORT_DELIMITERS)
@pytest.mark.parametrize("with_logits", [False, True])
def test_export_quotes_tokens_and_writes_oov(delimiter, with_logits):
    ds = _quoting_case(9, with_logits)
    text = dataset_to_csv(ds, delimiter)
    assert text == o_dataset_to_csv(ds, delimiter)
    assert "<OOV>" in text


@pytest.mark.parametrize("n", [0, 3, 10])
def test_export_by_blocks_matches_row_by_row_writer(monkeypatch, n):
    """No rows (the header alone), one full block, and a last partial block."""
    monkeypatch.setattr(data, "_CSV_BLOCK", 3)
    ds = _quoting_case(n, with_logits=True)
    assert dataset_to_csv(ds, ",") == o_dataset_to_csv(ds, ",")
