"""Feature schema, CSV ingestion, 8:1:1 splitting, and the synthetic benchmark.

The synthetic generator produces a pure multiplicative-interaction task: each
(field, category) pair owns a latent vector, the instance logit is the sum of
pairwise dot products of the chosen categories' latents, and the label is a
Bernoulli draw through the sigmoid.  True logits are stored with the data so
any run can compute its own Bayes-oracle AUC ceiling instead of trusting a
hard-coded constant.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IngestError, MaskNetError, SchemaError, check_finite_fields
from .numeric import make_rng, sigmoid

CATEGORICAL = "categorical"
NUMERICAL = "numerical"
LABEL = "label"
LOGIT = "logit"
OOV_TOKEN = "<OOV>"  # how an OOV index is written back to text

# rng stream ids, so independent uses of one seed never share a draw sequence
STREAM_SPLIT = 1
STREAM_SYNTH = 2
STREAM_SHUFFLE = 3


@dataclass(frozen=True)
class Field:
    """One input column. Categorical fields carry a dense vocabulary; index
    len(vocab) is the reserved out-of-vocabulary slot."""

    name: str
    kind: str
    vocab: tuple[str, ...] = ()

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


class TableRows(NamedTuple):
    """Where each field's rows sit when per-field tables are stacked in schema
    order: a categorical field owns vocab_size + 1 rows (the last is its OOV
    slot), a numerical field one row."""

    cat_pos: np.ndarray  # schema positions of the categorical fields
    cat_first: np.ndarray  # first row of each categorical field
    cat_oov: np.ndarray  # OOV index (vocab_size), the largest valid one
    num_pos: np.ndarray  # schema positions of the numerical fields
    num_row: np.ndarray  # the row of each numerical field


@dataclass(frozen=True)
class FeatureSchema:
    fields: tuple[Field, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate field names in schema")
        if not self.fields:
            raise SchemaError("schema needs at least one field")
        for f in self.fields:
            if f.kind not in (CATEGORICAL, NUMERICAL):
                raise SchemaError(f"field {f.name!r} has unknown kind {f.kind!r}")

    @property
    def f(self) -> int:
        return len(self.fields)

    @cached_property
    def categorical(self) -> tuple[Field, ...]:
        return tuple(f for f in self.fields if f.kind == CATEGORICAL)

    @cached_property
    def numerical(self) -> tuple[Field, ...]:
        return tuple(f for f in self.fields if f.kind == NUMERICAL)

    @cached_property
    def table_rows(self) -> TableRows:
        sizes = [f.vocab_size + 1 if f.kind == CATEGORICAL else 1 for f in self.fields]
        first = np.cumsum([0] + sizes)
        is_cat = np.array([f.kind == CATEGORICAL for f in self.fields])
        cat_pos, num_pos = np.flatnonzero(is_cat), np.flatnonzero(~is_cat)
        return TableRows(
            cat_pos=cat_pos,
            cat_first=first[cat_pos],
            cat_oov=np.array([f.vocab_size for f in self.categorical], dtype=np.int64),
            num_pos=num_pos,
            num_row=first[num_pos],
        )


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar dataset.  cat columns follow schema.categorical order,
    num columns follow schema.numerical order."""

    schema: FeatureSchema
    cat: np.ndarray  # (N, n_categorical) int64
    num: np.ndarray  # (N, n_numerical) float64
    labels: np.ndarray  # (N,) float64 in {0, 1}
    logits: np.ndarray | None = None  # true generator logits, synthetic only
    split: str = "full"

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def positive_rate(self) -> float:
        return float(self.labels.mean())

    def take(self, idx: np.ndarray, split: str) -> "Dataset":
        return Dataset(
            schema=self.schema,
            cat=self.cat[idx],
            num=self.num[idx],
            labels=self.labels[idx],
            logits=None if self.logits is None else self.logits[idx],
            split=split,
        )


# ---------------------------------------------------------------------------
# Delimited-text ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str  # categorical | numerical | label | logit


def parse_column_spec(text: str) -> list[ColumnSpec]:
    """Sidecar schema format: one 'name,kind' line per column, '#' comments."""
    cols: list[ColumnSpec] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise SchemaError(f"schema spec line {lineno}: expected 'name,kind', got {line!r}")
        name, kind = parts
        if kind not in (CATEGORICAL, NUMERICAL, LABEL, LOGIT):
            raise SchemaError(f"schema spec line {lineno}: unknown kind {kind!r}")
        if any(c.name == name for c in cols):
            raise SchemaError(f"schema spec line {lineno}: column {name!r} is declared twice")
        cols.append(ColumnSpec(name, kind))
    if sum(c.kind == LABEL for c in cols) != 1:
        raise SchemaError("schema spec must declare exactly one label column")
    if sum(c.kind == LOGIT for c in cols) > 1:
        raise SchemaError("schema spec may declare at most one logit column")
    if not any(c.kind in (CATEGORICAL, NUMERICAL) for c in cols):
        raise SchemaError("schema spec declares no feature columns")
    return cols


@dataclass
class RawTable:
    """Parsed delimited text, by column: header-ordered column specs and each
    column's stripped cells, plus the text, to name lines in errors."""

    columns: list[ColumnSpec]
    cells: list[list[str]]
    text: str
    delimiter: str

    @property
    def n(self) -> int:
        return len(self.cells[0])

    def line_of(self, row: int) -> int:
        """Physical line on which a row (the row-th non-blank record after
        the header) starts.  Re-reads the text, so only errors call this."""
        reader = csv.reader(io.StringIO(self.text), delimiter=self.delimiter)
        start, rows = 1, itertools.count(-1)  # the header is row -1
        for record in reader:
            if record and next(rows) == row:
                return start
            start = reader.line_num + 1
        raise IndexError(row)


# Records move into the columns this many at a time: reading them all first
# keeps a row-major copy beside the columns, and its lists reach the garbage
# collector's oldest generation (measured slower than a per-record loop).
# Of 8 to 4096, 32 left the least freed heap behind for later allocations.
_READ_CHUNK = 32


def read_delimited(text: str, columns: list[ColumnSpec], delimiter: str = ",") -> RawTable:
    """Parse delimited text with a required header row.

    The header must contain exactly the declared column names; column order is
    taken from the header.  Cells are stripped and blank lines skipped; a row
    with the wrong cell count raises IngestError naming the physical line on
    which it starts.
    """
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError("empty input: missing header row")
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            twice = next(h for i, h in enumerate(header) if h in header[:i])
            raise SchemaError(f"header names column {twice!r} twice")
        by_name = {c.name: c for c in columns}
        if sorted(header) != sorted(by_name):
            missing = set(by_name) - set(header)
            extra = set(header) - set(by_name)
            raise SchemaError(f"header does not match schema spec (missing={sorted(missing)}, extra={sorted(extra)})")
        raw = RawTable([by_name[h] for h in header], [[] for _ in header], text, delimiter)
        width = len(header)
        while chunk := list(itertools.islice(reader, _READ_CHUNK)):
            widths = list(map(len, chunk))
            if widths.count(width) != len(chunk):
                for r, w in enumerate(widths):
                    if w and w != width:
                        line = raw.line_of(raw.n + r - widths[:r].count(0))
                        raise IngestError(f"line {line}: expected {width} cells, got {w}")
                chunk = [record for record in chunk if record]
            for column, chunk_cells in zip(raw.cells, zip(*chunk)):
                column.extend(map(str.strip, chunk_cells))
    except csv.Error as exc:  # a cell over the field size limit, a stray carriage return
        raise IngestError(f"line {reader.line_num}: {exc}") from None
    return raw


def _first_fault(c: ColumnSpec, cells: list[str]) -> tuple[int, type[MaskNetError], str]:
    """Row, error class and message of a column's first cell that float()
    rejects or, in the label column, that is not 0 or 1."""
    what = {LABEL: "label", LOGIT: "logit"}.get(c.kind, f"field {c.name!r} value")
    for i, tok in enumerate(cells):
        try:
            v = float(tok)
        except ValueError:
            return i, IngestError, f"{what} {tok!r} is not a number"
        if c.kind == LABEL and v not in (0.0, 1.0):
            return i, SchemaError, f"label must be 0 or 1, got {tok!r}"
    raise MaskNetError(f"column {c.name!r} has no bad cell")


def build_schema_and_encode(
    raw: RawTable, train_rows: np.ndarray | None = None
) -> tuple[FeatureSchema, Dataset]:
    """Build vocabularies and encode every row, one column at a time.

    Vocabularies are built only from `train_rows` (all rows when None), in
    first-seen order; categories outside them encode to the reserved OOV
    index.  Numerical cells pass through as raw scalars.  A cell that is not
    a number (or a label not 0 or 1) raises naming its line; the first such
    row wins, then the label, the logit and the numerical fields in schema
    order.  Only then is a non-finite numerical, then logit, cell an error.
    """
    n = raw.n
    vocab_rows = range(n) if train_rows is None else np.unique(np.asarray(train_rows, dtype=np.intp)).tolist()
    cells = {c.name: col for c, col in zip(raw.columns, raw.cells)}
    fields, cat = [], []
    for c, col in zip(raw.columns, raw.cells):
        if c.kind == CATEGORICAL:
            index = {tok: i for i, tok in enumerate(dict.fromkeys(map(col.__getitem__, vocab_rows)))}
            cat.append(np.fromiter(map(index.get, col, itertools.repeat(len(index))), dtype=np.int64, count=n))
            fields.append(Field(c.name, c.kind, tuple(index)))
        elif c.kind == NUMERICAL:
            fields.append(Field(c.name, c.kind))
    schema = FeatureSchema(tuple(fields))
    cat = np.column_stack(cat or [np.empty((n, 0), dtype=np.int64)])

    label = next(c for c in raw.columns if c.kind == LABEL)
    logit = [c for c in raw.columns if c.kind == LOGIT]
    numerical = [c for c in raw.columns if c.kind == NUMERICAL]  # schema order
    values, faults = {}, []
    for c in [label] + logit + numerical:  # a row's order of precedence: min() keeps the first
        try:
            col = values[c.name] = np.fromiter(map(float, cells[c.name]), dtype=np.float64, count=n)
        except ValueError:
            col = None
        if col is None or (c is label and not ((col == 0.0) | (col == 1.0)).all()):
            faults.append(_first_fault(c, cells[c.name]))
    if faults:
        i, cls, msg = min(faults, key=lambda f: f[0])
        raise cls(f"line {raw.line_of(i)}: {msg}")
    for c in numerical + logit:
        bad = np.flatnonzero(~np.isfinite(values[c.name]))
        if bad.size:
            i = int(bad[0])
            what = f"{'logit' if c.kind == LOGIT else 'field'} {c.name!r} value {cells[c.name][i]!r}"
            raise IngestError(f"line {raw.line_of(i)}: {what} is not finite")

    num = np.column_stack([values[c.name] for c in numerical] or [np.empty((n, 0))])
    logits = values[logit[0].name] if logit else None
    return schema, Dataset(schema=schema, cat=cat, num=num, labels=values[label.name], logits=logits)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic shuffled 8:1:1 split (floor rule, remainder to train)."""
    if n < 10:
        raise ConfigError(f"need at least 10 instances to split, got {n}")
    perm = make_rng(seed, STREAM_SPLIT).permutation(n)
    tenth = n // 10
    train = np.sort(perm[: n - 2 * tenth])
    valid = np.sort(perm[n - 2 * tenth : n - tenth])
    test = np.sort(perm[n - tenth :])
    return train, valid, test


def split_dataset(d: Dataset, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    tr, va, te = split_indices(d.n, seed)
    return d.take(tr, "train"), d.take(va, "valid"), d.take(te, "test")


def ingest_csv(
    text: str, columns: list[ColumnSpec], seed: int, delimiter: str = ","
) -> tuple[FeatureSchema, Dataset, Dataset, Dataset]:
    """Full pipeline: parse, split rows 8:1:1, build vocab from the training
    rows only, encode all three splits."""
    raw = read_delimited(text, columns, delimiter)
    tr, va, te = split_indices(raw.n, seed)
    schema, full = build_schema_and_encode(raw, train_rows=tr)
    return schema, full.take(tr, "train"), full.take(va, "valid"), full.take(te, "test")


def standardize_numerical(
    train: Dataset, *others: Dataset
) -> tuple[Dataset, ...]:
    """Z-score numerical columns using training-split statistics."""
    if train.num.shape[1] == 0:
        return (train, *others)
    mean = train.num.mean(axis=0)
    std = train.num.std(axis=0)
    std[std < 1e-12] = 1.0
    return tuple(replace(ds, num=(ds.num - mean) / std) for ds in (train, *others))


# ---------------------------------------------------------------------------
# Synthetic multiplicative-interaction benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    fields: int = 8
    vocab: int = 50
    latent_dim: int = 4
    instances: int = 60_000
    logit_scale: float = 4.0
    seed: int = 1


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw the benchmark dataset; labels carry no main effects by construction.

    Each (field, category) latent is i.i.d. normal with std 1/sqrt(latent_dim);
    the instance logit is logit_scale times the sum of pairwise latent dot
    products, so only feature interactions are informative.
    """
    if spec.fields < 2 or spec.latent_dim < 1 or spec.instances < 1 or spec.vocab < 1:
        raise ConfigError(f"invalid synthetic spec: {spec}")
    check_finite_fields(spec)
    rng = make_rng(spec.seed, STREAM_SYNTH)
    f, nv, d, n = spec.fields, spec.vocab, spec.latent_dim, spec.instances
    latents = rng.normal(0.0, 1.0, size=(f, nv, d)) / np.sqrt(d)
    cat = rng.integers(0, nv, size=(n, f), dtype=np.int64)
    chosen = latents[np.arange(f)[None, :], cat]  # (n, f, d)
    total = chosen.sum(axis=1)
    pair_sum = 0.5 * ((total * total).sum(axis=1) - (chosen * chosen).sum(axis=(1, 2)))
    logits = spec.logit_scale * pair_sum
    labels = (rng.uniform(size=n) < sigmoid(logits)).astype(np.float64)

    schema = FeatureSchema(tuple(Field(f"f{i}", CATEGORICAL, tuple(f"v{j}" for j in range(nv))) for i in range(f)))
    return Dataset(schema=schema, cat=cat, num=np.zeros((n, 0)), labels=labels, logits=logits)


def marginal_ctr_scores(train: Dataset, eval_ds: Dataset) -> np.ndarray:
    """Score by summing per-field empirical CTRs estimated on the training split.

    This is the strongest purely additive single-field predictor; on the
    synthetic task it should sit near chance because latents are zero-mean.
    """
    base = train.labels.mean()
    scores = np.zeros(eval_ds.n)
    for a, fld in enumerate(train.schema.categorical):
        size = fld.vocab_size + 1
        counts = np.bincount(train.cat[:, a], minlength=size).astype(np.float64)
        pos = np.bincount(train.cat[:, a], weights=train.labels, minlength=size)
        rates = np.where(counts > 0, pos / np.maximum(counts, 1.0), base)
        scores += rates[eval_ds.cat[:, a]]
    return scores


# ---------------------------------------------------------------------------
# Manifest and file output
# ---------------------------------------------------------------------------


def build_manifest(
    full: Dataset, spec: SyntheticSpec, splits: tuple[Dataset, Dataset, Dataset], split_seed: int
) -> dict[str, str]:
    """Flat key=value summary of generated data: sizes, field stats, positive
    rate, generator parameters, split sizes, and Bayes / marginal-predictor AUCs."""
    from .evaluate import auc  # local import: evaluate has no data dependency

    man: dict[str, str] = {
        "instances": str(full.n),
        "fields": str(full.schema.f),
        "positive_rate": f"{full.positive_rate:.6f}",
    }
    for fld in full.schema.fields:
        man[f"field.{fld.name}"] = f"categorical,vocab={fld.vocab_size}" if fld.kind == CATEGORICAL else "numerical"
    train, valid, test = splits
    man["generator"] = "multiplicative-latent"
    man["generator.fields"] = str(spec.fields)
    man["generator.vocab"] = str(spec.vocab)
    man["generator.latent_dim"] = str(spec.latent_dim)
    man["generator.logit_scale"] = f"{spec.logit_scale:g}"
    man["generator.seed"] = str(spec.seed)
    man["bayes_auc_full"] = f"{auc(full.logits, full.labels):.6f}"
    man["split_seed"] = str(split_seed)
    man["n_train"] = str(train.n)
    man["n_valid"] = str(valid.n)
    man["n_test"] = str(test.n)
    man["bayes_auc_test"] = f"{auc(test.logits, test.labels):.6f}"
    man["marginal_auc_test"] = f"{auc(marginal_ctr_scores(train, test), test.labels):.6f}"
    return man


def manifest_text(man: dict[str, str]) -> str:
    return "".join(f"{k}={v}\n" for k, v in man.items())


_CSV_BLOCK = 4096  # rows per block: one list of cells and separators, few cell strings alive at once


def dataset_to_csv(ds: Dataset, delimiter: str = ",") -> str:
    """Serialize a dataset back to delimited text (with label and, when
    present, true_logit columns), byte for byte as csv.writer writes one row
    per instance: category tokens (OOV_TOKEN for the OOV index), float reprs,
    int labels.  Built a block of rows at a time, column by column; a cell
    goes through csv.writer only when it holds a character it might quote."""
    one = io.StringIO()
    writer = csv.writer(one, delimiter=delimiter, lineterminator="\n")  # rejects a delimiter csv cannot use
    special = frozenset((delimiter, '"', "\r", "\n"))

    def cell(text: str) -> str:
        if special.isdisjoint(text):
            return text
        one.truncate(0)
        one.seek(0)
        writer.writerow([text])
        return one.getvalue()[:-1]

    header = [f.name for f in ds.schema.fields] + ["label"] + ["true_logit"] * (ds.logits is not None)
    tables = {i: np.array([cell(t) for t in (*f.vocab, OOV_TOKEN)], dtype=object)
              for i, f in enumerate(ds.schema.fields) if f.kind == CATEGORICAL}
    quote_numbers = not special.isdisjoint("0123456789.e+-infa")  # a float repr's or label's characters
    width, text = 2 * len(header), [delimiter.join(map(cell, header)) + "\n"]
    for lo in range(0, ds.n, _CSV_BLOCK):
        hi = lo + _CSV_BLOCK
        cat, num = iter(ds.cat[lo:hi].T), iter(ds.num[lo:hi].T)
        columns = [tables[i][next(cat)].tolist() if i in tables else list(map(float.__repr__, next(num).tolist()))
                   for i in range(ds.schema.f)]
        columns.append(list(map(str, map(int, ds.labels[lo:hi].tolist()))))
        if ds.logits is not None:
            columns.append(list(map(float.__repr__, ds.logits[lo:hi].tolist())))
        parts = [delimiter] * (width * len(columns[0]))
        parts[width - 1 :: width] = ["\n"] * len(columns[0])
        for j, column in enumerate(columns):
            parts[2 * j :: width] = list(map(cell, column)) if quote_numbers and j not in tables else column
        text.append("".join(parts))
    return "".join(text)


def schema_spec_text(schema: FeatureSchema, with_logit: bool = False) -> str:
    lines = [f"{f.name},{f.kind}" for f in schema.fields]
    lines.append("label,label")
    if with_logit:
        lines.append("true_logit,logit")
    return "\n".join(lines) + "\n"
