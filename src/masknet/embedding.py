"""Per-field embedding tables and the concatenated instance embedding.

Categorical tables are stored rows-per-category, shape (vocab+1, k), which is
the transpose layout of the k x n one-hot matmul; row vocab_size is the OOV
slot.  Numerical fields own a single k-vector scaled by the raw value.  Every
field contributes exactly k dimensions, in schema order, so the instance
embedding has width m = f*k.

The tables sit back to back in the parameter store, so together they form
one (R, k) matrix with each field's rows in schema order
(`FeatureSchema.table_rows`): forward gathers from it; backward bins the
batch's categorical cells by (row * k + column), over every row of a table
no larger than the batch's cell count, else over the touched rows only.
"""

from __future__ import annotations

import numpy as np

from .data import CATEGORICAL, FeatureSchema
from .errors import SchemaError
from .numeric import ParamStore


def embedding_param_names(schema: FeatureSchema, prefix: str = "emb") -> list[str]:
    return [f"{prefix}.{f.name}" for f in schema.fields]


def init_embedding(schema: FeatureSchema, k: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """i.i.d. normal with std 1/sqrt(k); one table or vector per field."""
    std = 1.0 / np.sqrt(k)
    return {
        name: rng.normal(0.0, std, size=(fld.vocab_size + 1, k) if fld.kind == CATEGORICAL else (k,))
        for name, fld in zip(embedding_param_names(schema), schema.fields)
    }


def embedding_tables(
    store: ParamStore, schema: FeatureSchema, k: int, prefix: str = "emb"
) -> tuple[np.ndarray, np.ndarray]:
    """(R, k) views of the embedding rows in the parameter and gradient buffers."""
    sl = store.span(embedding_param_names(schema, prefix))
    return store.param_buf[sl].reshape(-1, k), store.grad_buf[sl].reshape(-1, k)


def embed_fwd(table: np.ndarray, schema: FeatureSchema, cat: np.ndarray, num: np.ndarray) -> np.ndarray:
    """Concatenate per-field embeddings: lookup for categorical (equivalent to
    the one-hot matmul), value-scaled vector for numerical.  Returns (B, f*k)."""
    rows = schema.table_rows
    if cat.size:
        bad = (cat.min(axis=0) < 0) | (cat.max(axis=0) > rows.cat_oov)
        if bad.any():
            fld = schema.categorical[int(np.argmax(bad))]
            raise SchemaError(f"field {fld.name!r}: index outside [0, {fld.vocab_size + 1}) in batch")
    if rows.num_pos.size:
        idx = np.empty((num.shape[0], schema.f), dtype=np.intp)
        idx[:, rows.cat_pos] = cat + rows.cat_first
        idx[:, rows.num_pos] = rows.num_row
        out = table[idx]
        out[:, rows.num_pos] *= num[:, :, None]
    else:
        out = table[cat + rows.cat_first]
    return out.reshape(out.shape[0], schema.f * table.shape[1])


def embed_bwd(
    dv: np.ndarray,
    grad_table: np.ndarray,
    schema: FeatureSchema,
    cat: np.ndarray,
    num: np.ndarray,
) -> None:
    """Sum the categorical cells per table row and column with one bincount,
    add the sums into the table at once, then add each numerical row's
    value-weighted batch sum."""
    rows, k = schema.table_rows, grad_table.shape[1]
    dv = dv.reshape(dv.shape[0], schema.f, k)
    cells, used, n = cat + rows.cat_first, slice(None), len(grad_table)
    if n > cells.size:  # a bin per touched row, not per table row
        used, cells = np.unique(cells, return_inverse=True)
        n = used.size
    bins = (cells.reshape(cat.shape)[:, :, None] * k + np.arange(k)).ravel()
    sums = np.bincount(bins, np.take(dv, rows.cat_pos, axis=1).ravel(), minlength=n * k)
    grad_table[used] += sums.reshape(n, k)
    for j, (pos, row) in enumerate(zip(rows.num_pos, rows.num_row)):
        grad_table[row] += (num[:, j, None] * dv[:, pos]).sum(axis=0)
