import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import random_batch, small_schema
from masknet.data import CATEGORICAL, NUMERICAL, Field, FeatureSchema
from masknet.embedding import embed_bwd, embed_fwd, embedding_tables, init_embedding
from masknet.errors import SchemaError
from masknet.model import TOPOLOGIES, Model, ModelSpec
from masknet.numeric import ParamStore, make_rng
from oracles import o_embed, o_embed_bwd


def build(schema, k, seed=0):
    """(store, (R, k) parameter table, (R, k) gradient table)."""
    store = ParamStore(init_embedding(schema, k, make_rng(seed, 0)))
    return (store, *embedding_tables(store, schema, k))


def test_lookup_equals_onehot_matmul(rng):
    schema = small_schema(f_cat=3, f_num=2, vocab=4)
    store, table, _ = build(schema, k=3)
    cat, num, _ = random_batch(schema, rng, n=6)
    v = embed_fwd(table, schema, cat, num)
    assert v.shape == (6, schema.f * 3)
    for i in range(6):
        expect = o_embed(schema, store.params, cat[i], num[i], 3)
        assert np.allclose(v[i], expect, atol=1e-15)


def test_numerical_zero_value_contributes_zero():
    schema = small_schema(f_cat=1, f_num=1, vocab=2)
    _, table, _ = build(schema, k=4)
    cat = np.array([[0]], dtype=np.int64)
    num = np.array([[0.0]])
    v = embed_fwd(table, schema, cat, num)
    assert np.array_equal(v[0, 4:], np.zeros(4))


def test_width_is_fields_times_k():
    fields = tuple(Field(f"f{i}", CATEGORICAL, tuple(f"v{j}" for j in range(5))) for i in range(39))
    schema = FeatureSchema(fields)
    _, table, _ = build(schema, k=10)
    cat = np.zeros((2, 39), dtype=np.int64)
    num = np.zeros((2, 0))
    assert embed_fwd(table, schema, cat, num).shape == (2, 390)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_out_of_range_index_rejected(topology):
    """Every topology scores through the embedding lookup, so every one
    rejects an index outside a field's table, the linear baseline's k=1
    table included, and names the field."""
    schema = small_schema(f_cat=1, f_num=1, vocab=2)
    model = Model(ModelSpec(topology=topology, block_widths=(3,), top_widths=(2,), embed_dim=2), schema)
    for bad in (3, -1):  # vocab 2 + OOV slot allows 0..2
        with pytest.raises(SchemaError, match="c0"):
            model.forward(np.array([[bad]], dtype=np.int64), np.zeros((1, 1)))


def test_gradient_sparsity_untouched_rows(rng):
    schema = small_schema(f_cat=1, f_num=0, vocab=5)
    store, _, gtable = build(schema, k=3)
    cat = np.array([[1], [1], [4]], dtype=np.int64)
    num = np.zeros((3, 0))
    dv = rng.normal(size=(3, 3))
    embed_bwd(dv, gtable, schema, cat, num)
    g = store.grads["emb.c0"]
    for row in (0, 2, 3, 5):  # categories absent from the batch (5 is OOV)
        assert np.array_equal(g[row], np.zeros(3)), row
    assert np.allclose(g[1], dv[0] + dv[1])
    assert np.allclose(g[4], dv[2])


def test_numerical_gradient_scaled_by_value():
    schema = small_schema(f_cat=0, f_num=1, vocab=0)
    store, _, gtable = build(schema, k=2)
    num = np.array([[2.0], [-3.0]])
    dv = np.ones((2, 2))
    embed_bwd(dv, gtable, schema, np.zeros((2, 0), dtype=np.int64), num)
    assert np.allclose(store.grads["emb.x0"], (2.0 - 3.0) * np.ones(2))


def test_mixed_schema_with_oov_matches_oracle(rng):
    fields = (
        Field("a", CATEGORICAL, ("x", "y", "z")),
        Field("u", NUMERICAL),
        Field("b", CATEGORICAL, ("p",)),
        Field("c", CATEGORICAL, ("q", "r")),
        Field("w", NUMERICAL),
    )
    schema = FeatureSchema(fields)
    store, table, _ = build(schema, k=4, seed=3)
    cat = np.array([[0, 1, 2], [3, 0, 1], [3, 1, 2], [2, 0, 0]], dtype=np.int64)  # 3, 1, 2 are OOV
    num = rng.normal(size=(4, 2))
    v = embed_fwd(table, schema, cat, num)
    assert v.shape == (4, 5 * 4)
    for i in range(4):
        assert np.array_equal(v[i], o_embed(schema, store.params, cat[i], num[i], 4))


def test_out_of_range_index_names_its_field():
    fields = (
        Field("a", CATEGORICAL, ("x", "y")),
        Field("u", NUMERICAL),
        Field("b", CATEGORICAL, ("p",)),
    )
    schema = FeatureSchema(fields)
    _, table, _ = build(schema, k=2)
    num = np.zeros((2, 1))
    with pytest.raises(SchemaError, match="'b'"):
        embed_fwd(table, schema, np.array([[2, 0], [0, 2]], dtype=np.int64), num)
    with pytest.raises(SchemaError, match="'a'"):
        embed_fwd(table, schema, np.array([[-1, 0], [0, 0]], dtype=np.int64), num)


def _embed_bwd_inputs(sizes, k, b, seed, repeat=False, scale=1.0, broadcast=False, random_start=False):
    """A schema with one field per entry of `sizes` (a vocabulary size, or None
    for a numerical field), a batch of `b` rows with about a fifth of its
    categorical cells OOV, its gradient and a starting gradient table."""
    schema = FeatureSchema(tuple(
        Field(f"f{i}", NUMERICAL) if n is None else Field(f"f{i}", CATEGORICAL, tuple(f"v{j}" for j in range(n)))
        for i, n in enumerate(sizes)
    ))
    rng = make_rng(seed, 0)
    oov = np.array([f.vocab_size for f in schema.categorical], dtype=np.int64)
    cat = rng.integers(0, oov + 1, size=(b, oov.size))
    if repeat:  # few distinct rows, so every touched row repeats
        cat = cat[rng.integers(0, min(b, 3), size=b)]
    cat = np.where(rng.random(cat.shape) < 0.2, oov, cat)
    num = rng.normal(size=(b, len(schema.numerical))) * scale
    if broadcast:  # the linear baseline's k=1 gradient, one value per row
        dv = np.broadcast_to(rng.normal(size=(b, 1)), (b, schema.f))
    else:
        dv = rng.normal(size=(b, schema.f * k))
    rows = sum(1 if n is None else n + 1 for n in sizes)
    start = rng.normal(size=(rows, k)) if random_start else np.zeros((rows, k))
    return schema, cat, num, dv, start


@st.composite
def _embed_bwd_case(draw):
    """1-8 fields of either kind in any order, k 1-11, a batch of 1-299 rows
    with repeated and OOV indices, and a zero or random starting gradient."""
    sizes = draw(st.lists(st.one_of(st.none(), st.integers(1, 59)), min_size=1, max_size=8))
    k = draw(st.integers(1, 11))
    return _embed_bwd_inputs(
        sizes, k, b=draw(st.integers(1, 299)), seed=draw(st.integers(0, 2**32 - 1)),
        repeat=draw(st.booleans()), scale=draw(st.sampled_from([1.0, 1e-3, 1e3])),
        broadcast=k == 1 and draw(st.booleans()), random_start=draw(st.booleans()),
    )


@given(case=_embed_bwd_case())
# a bin for every table row: 8 rows against 100 categorical cells
@example(case=_embed_bwd_inputs([3, None, 2], k=4, b=50, seed=1, random_start=True))
# bins for the touched rows only: 121 rows against 10 cells
@example(case=_embed_bwd_inputs([59, None, 59], k=3, b=5, seed=2, random_start=True))
# no categorical field, so nothing to bin
@example(case=_embed_bwd_inputs([None, None], k=2, b=7, seed=3, random_start=True))
# the linear baseline: k=1, a broadcast gradient, OOV rows
@example(case=_embed_bwd_inputs([5, None, 3], k=1, b=40, seed=4, broadcast=True))
def test_embed_bwd_matches_per_field_walk_bit_for_bit(case):
    """From a zeroed table, the bincount sums each row's terms in the batch
    order in which the per-field walk adds them, so the two agree bit for
    bit; from any other start, the batch's per-row sums are added once
    (from zeros, `start + walked` is `walked` to the bit)."""
    schema, cat, num, dv, start = case
    got, walked = start.copy(), np.zeros_like(start)
    embed_bwd(dv, got, schema, cat, num)
    o_embed_bwd(dv, walked, schema, cat, num)
    assert np.array_equal(got, start + walked)
