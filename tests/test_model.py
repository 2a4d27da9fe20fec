import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_batch, small_schema
from masknet.data import CATEGORICAL, NUMERICAL, Dataset, Field, FeatureSchema
from masknet.errors import CheckpointError, ConfigError
from masknet.maskblock import Ablation
from masknet.model import (
    SCORE_TILE,
    Model,
    ModelSpec,
    load_checkpoint,
    param_breakdown,
    param_count,
    row_tiles,
    save_checkpoint,
)
from masknet.numeric import make_rng
from oracles import group_count, o_forward_dnn, o_forward_parallel, o_forward_serial


def with_random_head(model, seed=9):
    rng = make_rng(seed, 13)
    model.store.params["head.w"] += rng.normal(size=model.store.params["head.w"].shape)
    model.store.params["head.w0"] += rng.normal(size=1)
    return model


def test_zero_head_predicts_half(rng):
    schema = small_schema()
    for topo in ("serial", "parallel", "dnn", "linear"):
        spec = ModelSpec(topology=topo, block_widths=(3, 3), embed_dim=2, seed=1)
        model = Model(spec, schema)
        cat, num, _ = random_batch(schema, rng, n=4)
        probs, _ = model.forward(cat, num)
        assert np.array_equal(probs, np.full(4, 0.5)), topo


def test_serial_u1_equals_parallel_u1_l0(rng):
    schema = small_schema()
    s = Model(ModelSpec(topology="serial", block_widths=(4,), embed_dim=3, seed=2), schema)
    p = Model(
        ModelSpec(topology="parallel", block_widths=(4,), top_widths=(), embed_dim=3, seed=2),
        schema,
    )
    with_random_head(s)
    with_random_head(p)
    cat, num, _ = random_batch(schema, rng, n=16)
    ps, _ = s.forward(cat, num)
    pp, _ = p.forward(cat, num)
    assert np.array_equal(ps, pp)


def test_serial_forward_matches_oracle(rng):
    schema = small_schema(f_cat=2, f_num=1, vocab=3)
    model = with_random_head(
        Model(ModelSpec(topology="serial", block_widths=(3, 2), embed_dim=2, reduction=1, seed=3), schema)
    )
    cat, num, _ = random_batch(schema, rng, n=6)
    probs, _ = model.forward(cat, num)
    for i in range(6):
        assert abs(probs[i] - o_forward_serial(model, cat[i], num[i])) <= 1e-12


def test_parallel_forward_matches_oracle(rng):
    schema = small_schema(f_cat=2, f_num=1, vocab=3)
    spec = ModelSpec(topology="parallel", block_widths=(3, 2), top_widths=(4,), embed_dim=2, reduction=1, seed=4)
    model = with_random_head(Model(spec, schema))
    cat, num, _ = random_batch(schema, rng, n=6)
    probs, _ = model.forward(cat, num)
    for i in range(6):
        assert abs(probs[i] - o_forward_parallel(model, cat[i], num[i])) <= 1e-12


def test_dnn_forward_matches_oracle(rng):
    schema = small_schema(f_cat=2, f_num=1, vocab=3)
    model = with_random_head(
        Model(ModelSpec(topology="dnn", block_widths=(4, 3), embed_dim=2, seed=5), schema)
    )
    cat, num, _ = random_batch(schema, rng, n=6)
    probs, _ = model.forward(cat, num)
    for i in range(6):
        assert abs(probs[i] - o_forward_dnn(model, cat[i], num[i])) <= 1e-12


def test_parallel_block_permutation_symmetry(rng):
    schema = small_schema()
    spec = ModelSpec(topology="parallel", block_widths=(3, 3), top_widths=(4,), embed_dim=2, seed=6)
    model = with_random_head(Model(spec, schema))
    cat, num, _ = random_batch(schema, rng, n=8)
    base, _ = model.forward(cat, num)
    # swap the two blocks and the matching first-layer column slices
    p = model.store.params
    for name in ("mask.w1", "mask.b1", "mask.w2", "mask.b2", "ffn.w", "ln.g", "ln.b"):
        a, b = p[f"block1.{name}"].copy(), p[f"block2.{name}"].copy()
        p[f"block1.{name}"][...], p[f"block2.{name}"][...] = b, a
    w = p["mlp1.w"]
    w[...] = np.concatenate([w[:, 3:6], w[:, 0:3]], axis=1)
    swapped, _ = model.forward(cat, num)
    assert np.allclose(swapped, base, atol=1e-15)


def test_ablated_masknet_equals_dnn(rng):
    # same seed gives bit-identical weight draws for the shared parameter shapes
    schema = small_schema(f_cat=2, f_num=1, vocab=4)
    ab = Ablation(no_mask=True, no_ln=True)
    mask = Model(
        ModelSpec(topology="serial", block_widths=(4, 3), embed_dim=3, ablation=ab, seed=7), schema
    )
    dnn = Model(ModelSpec(topology="dnn", block_widths=(4, 3), embed_dim=3, seed=7), schema)
    for i in (1, 2):
        assert np.array_equal(
            mask.store.params[f"block{i}.ffn.w"], dnn.store.params[f"mlp{i}.w"]
        )
    with_random_head(mask, seed=21)
    with_random_head(dnn, seed=21)
    cat, num, _ = random_batch(schema, rng, n=100)
    pm, _ = mask.forward(cat, num)
    pd, _ = dnn.forward(cat, num)
    assert np.abs(pm - pd).max() <= 1e-12


def test_param_count_linear_closed_form():
    n = 6
    fields = tuple(Field(f"f{i}", CATEGORICAL, tuple(str(j) for j in range(n))) for i in range(4))
    schema = FeatureSchema(fields)
    model = Model(ModelSpec(topology="linear", block_widths=()), schema)
    assert param_count(model) == 4 * (n + 1) + 1


def wide_schema_39_fields():
    return FeatureSchema(
        tuple(Field(f"f{i}", CATEGORICAL, tuple(str(j) for j in range(5))) for i in range(39))
    )


def test_param_count_mask_unit_609570():
    schema = wide_schema_39_fields()
    spec = ModelSpec(topology="serial", block_widths=(64,), embed_dim=10, reduction=2, seed=0)
    model = Model(spec, schema)
    assert group_count(model, "block1.mask") == 609_570


def test_param_count_dnn_477601():
    schema = wide_schema_39_fields()
    spec = ModelSpec(topology="dnn", block_widths=(400, 400, 400), embed_dim=10, seed=0)
    model = Model(spec, schema)
    mlp_and_head = sum(
        size for group, size in param_breakdown(model).items() if group.startswith(("mlp", "head"))
    )
    assert mlp_and_head == 477_601
    assert param_count(model) == sum(param_breakdown(model).values())


def test_strictly_inside_unit_interval(rng):
    schema = small_schema()
    model = Model(ModelSpec(topology="dnn", block_widths=(3,), embed_dim=2, seed=8), schema)
    model.store.params["head.w"] += 1e6  # force saturated logits
    model.store.params["head.w0"] -= 1e9
    cat, num, _ = random_batch(schema, rng, n=8)
    probs, _ = model.forward(cat, num)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_equal_encodings_give_equal_predictions(rng):
    schema = small_schema()
    model = with_random_head(
        Model(ModelSpec(topology="serial", block_widths=(3,), embed_dim=2, seed=9), schema)
    )
    cat, num, _ = random_batch(schema, rng, n=1)
    cat2 = np.repeat(cat, 2, axis=0)
    num2 = np.repeat(num, 2, axis=0)
    probs, _ = model.forward(cat2, num2)
    assert probs[0] == probs[1]


# Every topology and every serial ablation, for the scoring tests.
SCORING_SPECS = {
    "serial": dict(topology="serial"),
    "parallel": dict(topology="parallel", top_widths=(5,)),
    "dnn": dict(topology="dnn"),
    "linear": dict(topology="linear"),
} | {f"serial_{name}": dict(topology="serial", ablation=Ablation.from_names([name])) for name in ("no_mask", "no_ln", "no_ffn")}


def scoring_set(n):
    """n rows over two categorical fields (OOV indices included) and a numerical one."""
    schema = small_schema(f_cat=2, f_num=1, vocab=3)
    cat, num, labels = random_batch(schema, make_rng(21, 13), n=n)
    return Dataset(schema, cat, num, labels)


def scoring_model(case, schema):
    model = Model(ModelSpec(block_widths=(6, 5), embed_dim=3, seed=7, **SCORING_SPECS[case]), schema)
    model.store.param_buf[...] += make_rng(7, 13).normal(scale=0.5, size=model.store.size())
    return model


@pytest.mark.parametrize("case", list(SCORING_SPECS))
def test_predict_is_tile_invariant_and_matches_one_row_forwards(case):
    ds = scoring_set(600)  # not a multiple of the tile
    model = scoring_model(case, ds.schema)
    probs = model.predict(ds)
    for batch_size in (SCORE_TILE, 4096, ds.n):
        assert np.array_equal(model.predict(ds, batch_size=batch_size), probs), batch_size
    # a 1-row forward runs GEMV instead of GEMM, so it agrees to rounding only
    rows = np.concatenate([model.forward(ds.cat[i : i + 1], ds.num[i : i + 1])[0] for i in range(ds.n)])
    assert np.abs(rows - probs).max() <= 1e-12


@pytest.mark.parametrize("n", [600, 2 * SCORE_TILE + 1, 3 * SCORE_TILE + 18])
@pytest.mark.parametrize("case", ["serial", "parallel", "dnn"])
def test_predict_has_the_bits_of_one_forward_over_every_row(case, n):
    # a last tile of a few rows would run through other BLAS kernels
    ds = scoring_set(n)
    model = scoring_model(case, ds.schema)
    assert np.array_equal(model.predict(ds), model.forward(ds.cat, ds.num)[0])


@pytest.mark.parametrize(
    "n, batch_size, calls",
    [(600, 4096, [256, 344]), (600, 300, [256, 256, 88]), (600, 100, [100] * 6), (200, 4096, [200]), (0, 4096, [])],
)
def test_predict_forward_calls(monkeypatch, n, batch_size, calls):
    ds = scoring_set(n)
    model = scoring_model("dnn", ds.schema)
    seen = []
    forward = model.forward
    monkeypatch.setattr(model, "forward", lambda cat, num: seen.append(len(cat)) or forward(cat, num))
    assert model.predict(ds, batch_size=batch_size).shape == (n,)
    assert seen == calls


@pytest.mark.parametrize("batch_size", [0, -5])
def test_predict_rejects_batch_size_below_one(batch_size):
    ds = scoring_set(10)
    with pytest.raises(ConfigError, match="batch_size"):  # a tile of 0 rows never advanced
        scoring_model("dnn", ds.schema).predict(ds, batch_size=batch_size)


def test_checkpoint_round_trip(tmp_path, rng):
    schema = small_schema(f_cat=2, f_num=1, vocab=3)
    spec = ModelSpec(topology="parallel", block_widths=(3, 2), top_widths=(4,), embed_dim=2, seed=10)
    model = with_random_head(Model(spec, schema))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.spec == model.spec
    assert loaded.schema == model.schema
    for name in model.store.names():
        assert np.array_equal(loaded.store.params[name], model.store.params[name]), name
    cat, num, _ = random_batch(schema, rng, n=5)
    a, _ = model.forward(cat, num)
    b, _ = loaded.forward(cat, num)
    assert np.array_equal(a, b)


def test_checkpoint_round_trip_ablated_spec(tmp_path, rng):
    schema = small_schema()
    spec = ModelSpec(
        topology="serial", block_widths=(3, 3), embed_dim=2,
        ablation=Ablation(no_ffn=True), mask_bias_init=1.0, seed=11,
    )
    model = with_random_head(Model(spec, schema))
    path = tmp_path / "ablated.ckpt"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.spec.ablation == spec.ablation
    cat, num, _ = random_batch(schema, rng, n=3)
    a, _ = model.forward(cat, num)
    b, _ = loaded.forward(cat, num)
    assert np.array_equal(a, b)


def test_checkpoint_file_is_header_plus_arrays_in_manifest_order(tmp_path):
    schema = small_schema(f_cat=2, f_num=1, vocab=3)
    spec = ModelSpec(topology="serial", block_widths=(3, 2), embed_dim=2, seed=12)
    model = with_random_head(Model(spec, schema))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    data = path.read_bytes()
    header_line = data.split(b"\n", 1)[0]
    header = json.loads(header_line)
    assert [a["name"] for a in header["arrays"]] == model.store.names()
    payload = b"".join(
        np.asarray(model.store.params[a["name"]], dtype="<f8").tobytes() for a in header["arrays"]
    )
    assert data == header_line + b"\n" + payload


# The v1 checkpoint array manifest: "name:shape" in store order, per
# (topology, ablations or "no_bias"), for blocks (3, 2), top MLP (4,) and
# k = 2 on a schema whose numerical field sits between two categorical ones.
# A v1 file loads only into a model that rebuilds exactly this manifest.
MANIFEST_SCHEMA = FeatureSchema(
    (Field("a", CATEGORICAL, ("x", "y")), Field("u", NUMERICAL), Field("b", CATEGORICAL, ("p", "q", "r")))
)
V1_MANIFESTS = {
    ("serial", ""): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 ln_emb.g:3x2 ln_emb.b:3x2 block1.mask.w1:12x6 "
        "block1.mask.b1:12 block1.mask.w2:6x12 block1.mask.b2:6 block1.ffn.w:3x6 "
        "block1.ln.g:3 block1.ln.b:3 block2.mask.w1:6x6 block2.mask.b1:6 block2.mask.w2:3x6 "
        "block2.mask.b2:3 block2.ffn.w:2x3 block2.ln.g:2 block2.ln.b:2 head.w:2 head.w0:1"
    ),
    ("serial", "no_mask"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 ln_emb.g:3x2 ln_emb.b:3x2 block1.ffn.w:3x6 block1.ln.g:3 "
        "block1.ln.b:3 block2.ffn.w:2x3 block2.ln.g:2 block2.ln.b:2 head.w:2 head.w0:1"
    ),
    ("serial", "no_ln"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 block1.mask.w1:12x6 block1.mask.b1:12 "
        "block1.mask.w2:6x12 block1.mask.b2:6 block1.ffn.w:3x6 block2.mask.w1:6x6 "
        "block2.mask.b1:6 block2.mask.w2:3x6 block2.mask.b2:3 block2.ffn.w:2x3 head.w:2 "
        "head.w0:1"
    ),
    ("serial", "no_ffn"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 ln_emb.g:3x2 ln_emb.b:3x2 block1.mask.w1:12x6 "
        "block1.mask.b1:12 block1.mask.w2:6x12 block1.mask.b2:6 block2.mask.w1:12x6 "
        "block2.mask.b1:12 block2.mask.w2:6x12 block2.mask.b2:6 head.w:6 head.w0:1"
    ),
    ("serial", "no_mask,no_ln"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 block1.ffn.w:3x6 block2.ffn.w:2x3 head.w:2 head.w0:1"
    ),
    ("serial", "no_mask,no_ffn"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 ln_emb.g:3x2 ln_emb.b:3x2 head.w:6 head.w0:1"
    ),
    ("serial", "no_ln,no_ffn"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 block1.mask.w1:12x6 block1.mask.b1:12 "
        "block1.mask.w2:6x12 block1.mask.b2:6 block2.mask.w1:12x6 block2.mask.b1:12 "
        "block2.mask.w2:6x12 block2.mask.b2:6 head.w:6 head.w0:1"
    ),
    ("serial", "no_mask,no_ln,no_ffn"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 head.w:6 head.w0:1"
    ),
    ("parallel", ""): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 ln_emb.g:3x2 ln_emb.b:3x2 block1.mask.w1:12x6 "
        "block1.mask.b1:12 block1.mask.w2:6x12 block1.mask.b2:6 block1.ffn.w:3x6 "
        "block1.ln.g:3 block1.ln.b:3 block2.mask.w1:12x6 block2.mask.b1:12 "
        "block2.mask.w2:6x12 block2.mask.b2:6 block2.ffn.w:2x6 block2.ln.g:2 block2.ln.b:2 "
        "mlp1.w:4x5 mlp1.b:4 head.w:4 head.w0:1"
    ),
    ("parallel", "no_mask"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 ln_emb.g:3x2 ln_emb.b:3x2 block1.ffn.w:3x6 block1.ln.g:3 "
        "block1.ln.b:3 block2.ffn.w:2x6 block2.ln.g:2 block2.ln.b:2 mlp1.w:4x5 mlp1.b:4 "
        "head.w:4 head.w0:1"
    ),
    ("parallel", "no_ln"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 block1.mask.w1:12x6 block1.mask.b1:12 "
        "block1.mask.w2:6x12 block1.mask.b2:6 block1.ffn.w:3x6 block2.mask.w1:12x6 "
        "block2.mask.b1:12 block2.mask.w2:6x12 block2.mask.b2:6 block2.ffn.w:2x6 mlp1.w:4x5 "
        "mlp1.b:4 head.w:4 head.w0:1"
    ),
    ("parallel", "no_ffn"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 ln_emb.g:3x2 ln_emb.b:3x2 block1.mask.w1:12x6 "
        "block1.mask.b1:12 block1.mask.w2:6x12 block1.mask.b2:6 block2.mask.w1:12x6 "
        "block2.mask.b1:12 block2.mask.w2:6x12 block2.mask.b2:6 mlp1.w:4x12 mlp1.b:4 head.w:4 "
        "head.w0:1"
    ),
    ("parallel", "no_mask,no_ln"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 block1.ffn.w:3x6 block2.ffn.w:2x6 mlp1.w:4x5 mlp1.b:4 "
        "head.w:4 head.w0:1"
    ),
    ("parallel", "no_mask,no_ffn"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 ln_emb.g:3x2 ln_emb.b:3x2 mlp1.w:4x12 mlp1.b:4 head.w:4 "
        "head.w0:1"
    ),
    ("parallel", "no_ln,no_ffn"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 block1.mask.w1:12x6 block1.mask.b1:12 "
        "block1.mask.w2:6x12 block1.mask.b2:6 block2.mask.w1:12x6 block2.mask.b1:12 "
        "block2.mask.w2:6x12 block2.mask.b2:6 mlp1.w:4x12 mlp1.b:4 head.w:4 head.w0:1"
    ),
    ("parallel", "no_mask,no_ln,no_ffn"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 mlp1.w:4x12 mlp1.b:4 head.w:4 head.w0:1"
    ),
    ("dnn", ""): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 mlp1.w:3x6 mlp1.b:3 mlp2.w:2x3 mlp2.b:2 head.w:2 "
        "head.w0:1"
    ),
    ("dnn", "no_bias"): (
        "emb.a:3x2 emb.u:2 emb.b:4x2 mlp1.w:3x6 mlp2.w:2x3 head.w:2 head.w0:1"
    ),
    ("linear", ""): (
        "lin.a:3 lin.u:1 lin.b:4 lin.w0:1"
    ),
}


@pytest.mark.parametrize("topology, variant", list(V1_MANIFESTS))
def test_v1_array_manifest_is_pinned(tmp_path, topology, variant):
    if variant == "no_bias":
        spec = ModelSpec(topology=topology, block_widths=(3, 2), embed_dim=2, dnn_bias=False)
    else:
        ablation = Ablation.from_names(variant.split(",") if variant else [])
        spec = ModelSpec(topology=topology, block_widths=(3, 2), top_widths=(4,), embed_dim=2, ablation=ablation)
    path = tmp_path / "model.ckpt"
    save_checkpoint(Model(spec, MANIFEST_SCHEMA), str(path))
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    manifest = " ".join(f"{a['name']}:{'x'.join(map(str, a['shape']))}" for a in header["arrays"])
    assert manifest == V1_MANIFESTS[topology, variant]


@pytest.mark.parametrize("topo", ["serial", "parallel", "dnn", "linear"])
def test_checkpoint_load_draws_no_initialisation(tmp_path, rng, monkeypatch, topo):
    schema = small_schema(f_cat=2, f_num=1, vocab=3)
    spec = ModelSpec(topology=topo, block_widths=(3, 2), top_widths=(4,), embed_dim=2, seed=13)
    model = Model(spec, schema)
    model.store.param_buf[...] = rng.normal(size=model.store.size())  # every value counts
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))

    def no_rng(*args):
        raise AssertionError("load_checkpoint drew an initialisation")

    monkeypatch.setattr("masknet.model.make_rng", no_rng)
    loaded = load_checkpoint(str(path))
    cat, num, _ = random_batch(schema, rng, n=7)
    assert model.forward(cat, num)[0].tobytes() == loaded.forward(cat, num)[0].tobytes()
    again = tmp_path / "again.ckpt"
    save_checkpoint(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()


def mutated_checkpoint(tmp_path, mutate):
    """A saved linear model whose header `mutate` has edited in place."""
    model = Model(ModelSpec(topology="linear", block_widths=()), small_schema())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    mutate(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return str(path)


@pytest.mark.parametrize("key", ["schema", "spec", "arrays"])
def test_checkpoint_header_missing_entry_rejected(tmp_path, key):
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(mutated_checkpoint(tmp_path, lambda h: h.pop(key)))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda h: h.update(extra=1), "header has unknown entry 'extra'"),
        (lambda h: h["spec"].update(topology="mlp"), "unknown topology 'mlp'"),
        (lambda h: h["spec"].update(ln_eps=float("nan")), "ln_eps must be finite"),
        (lambda h: h["spec"].update(embed_dim=True), "header.spec.embed_dim is not of type int"),
        (lambda h: h["spec"].update(reduction=2.0), "header.spec.reduction is not of type int"),
        (lambda h: h["spec"]["ablation"].update(no_ln=1), "header.spec.ablation.no_ln is not of type bool"),
        (lambda h: h["schema"].append(dict(h["schema"][0])), "duplicate field names"),
        (lambda h: h["schema"][1].update(vocab=["a", 2]), r"header.schema\[1\].vocab\[1\] is not of type str"),
        (lambda h: h["arrays"][0].update(shape=[2.0]), r"header.arrays\[0\].shape\[0\] is not of type int"),
    ],
)
def test_checkpoint_header_values_rejected(tmp_path, mutate, message):
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(mutated_checkpoint(tmp_path, mutate))


def test_checkpoint_header_accepts_an_integer_for_a_float(tmp_path):
    model = load_checkpoint(mutated_checkpoint(tmp_path, lambda h: h["spec"].update(mask_bias_init=1)))
    assert model.spec.mask_bias_init == 1.0


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"\x00\x01 not a checkpoint\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_checkpoint_rejects_truncated(tmp_path):
    schema = small_schema()
    model = Model(ModelSpec(topology="linear", block_widths=()), schema)
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(model, str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("topo", ["serial", "parallel", "dnn", "linear"])
def test_every_model_array_is_a_view_of_the_store(topo):
    spec = ModelSpec(topology=topo, block_widths=(3, 2), top_widths=(4,), embed_dim=2, seed=13)
    model = Model(spec, small_schema())
    store = model.store
    for name in store.names():
        assert np.shares_memory(store.params[name], store.param_buf), name
        assert np.shares_memory(store.grads[name], store.grad_buf), name
    if topo in ("serial", "parallel"):
        for i in range(1, spec.u + 1):
            bp = model.block_params(i)
            for key, arr in vars(bp).items():
                assert arr is not None and np.shares_memory(arr, store.param_buf), (i, key)


def test_mask_values_requires_mask_units():
    schema = small_schema()
    cat, num = np.zeros((1, 2), dtype=np.int64), np.zeros((1, 1))
    for topology, ablation in [("dnn", ()), ("linear", ()), ("serial", ("no_mask",)), ("parallel", ("no_mask",))]:
        spec = ModelSpec(topology=topology, block_widths=(3,), embed_dim=2, ablation=Ablation.from_names(ablation))
        model = Model(spec, schema)
        assert not model.has_mask_units
        with pytest.raises(ConfigError):
            model.mask_values(cat, num)
    # a serial block masks the previous block's output, a parallel one the embedding
    for topology, widths in [("serial", [6, 3]), ("parallel", [6, 6])]:
        model = Model(ModelSpec(topology=topology, block_widths=(3, 2), embed_dim=2, ablation=Ablation(no_ln=True)), schema)
        assert model.has_mask_units
        assert [m.shape for m in model.mask_values(cat, num)] == [(1, w) for w in widths]


@pytest.mark.parametrize("n, calls", [(1024, [256] * 4), (300, [300]), (600, [256, 344])])
def test_mask_values_forward_calls(monkeypatch, n, calls):
    ds = scoring_set(n)
    model = scoring_model("serial", ds.schema)
    seen = []
    forward = model.forward
    monkeypatch.setattr(model, "forward", lambda cat, num: seen.append(len(cat)) or forward(cat, num))
    assert [m.shape for m in model.mask_values(ds.cat, ds.num)] == [(n, 9), (n, 6)]
    assert seen == calls


@pytest.mark.parametrize("case", ["serial", "parallel"])
def test_mask_values_match_one_forward_per_tile(case):
    ds = scoring_set(1100)  # tiles of 256, 256, 256 and 332 rows
    model = scoring_model(case, ds.schema)
    masks = model.mask_values(ds.cat, ds.num)
    for rows in row_tiles(ds.n):
        _, cache = model.forward(ds.cat[rows], ds.num[rows])
        assert len(cache["blocks"]) == len(masks)
        for got, bc in zip(masks, cache["blocks"]):
            assert np.array_equal(got[rows], bc["mask"]), rows


def test_mask_values_memory_does_not_grow_with_the_rows():
    # one tile's forward cache is alive at a time, so 16 tiles peak like 1
    schema = small_schema(f_cat=7, f_num=1, vocab=50)
    model = Model(ModelSpec(topology="serial", block_widths=(64, 64, 64), seed=3), schema)
    cat, num, _ = random_batch(schema, make_rng(3, 14), n=4096)
    model.mask_values(cat[:256], num[:256])
    extra = []
    tracemalloc.start()
    try:
        for n in (256, 4096):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            masks = model.mask_values(cat[:n], num[:n])
            extra.append(tracemalloc.get_traced_memory()[1] - base - sum(m.nbytes for m in masks))
            del masks
    finally:
        tracemalloc.stop()
    assert extra[1] <= 1.5 * extra[0], extra


def test_bad_spec_rejected():
    with pytest.raises(ConfigError):
        ModelSpec(topology="tree")
    with pytest.raises(ConfigError):
        ModelSpec(topology="serial", block_widths=())
    with pytest.raises(ConfigError):
        ModelSpec(topology="serial", reduction=0)


@pytest.mark.parametrize("top", [(-1,), (0,), (8, 0)])
def test_top_width_below_one_rejected(top):
    with pytest.raises(ConfigError, match="top_widths"):
        ModelSpec(topology="parallel", top_widths=top)


def test_empty_top_widths_is_valid(rng):
    spec = ModelSpec(topology="parallel", block_widths=(3, 2), top_widths=(), embed_dim=2)
    schema = small_schema()
    model = with_random_head(Model(spec, schema))
    assert "mlp1.w" not in model.store.params
    assert model.store.params["head.w"].shape == (5,)  # the merged block outputs feed the head
    cat, num, _ = random_batch(schema, rng)
    probs, _ = model.forward(cat, num)
    assert np.all((probs > 0.0) & (probs < 1.0)) and np.ptp(probs) > 0.0


@pytest.mark.parametrize(
    "bad, match",
    [({"ln_eps": 0.0}, "ln_eps"), ({"ln_eps": -1.0}, "ln_eps"), ({"ln_eps": float("inf")}, "ln_eps"),
     ({"mask_bias_init": float("nan")}, "mask_bias_init")],
)
def test_spec_rejects_bad_floats(bad, match):
    with pytest.raises(ConfigError, match=match):
        ModelSpec(**bad)
