from dataclasses import replace

import numpy as np
import pytest

from conftest import ABLATION_SUBSETS, random_batch, small_schema
from masknet.gradchecks import STREAM_GRADCHECK, _model_case, run_suite
from masknet.maskblock import Ablation, BlockParams, block_arrays, maskblock_fwd
from masknet.model import Model, ModelSpec
from masknet.numeric import make_rng, relu_fwd
from oracles import o_block_on_block, o_block_on_embedding, o_embed


def rand_block(rng, m, z, q, r=1, with_ln=True):
    t = r * z
    return BlockParams(
        w1=rng.normal(size=(t, m)),
        b1=rng.normal(size=t),
        w2=rng.normal(size=(z, t)),
        b2=rng.normal(size=z),
        w=rng.normal(size=(q, z)),
        g=rng.normal(size=q) + 1.0 if with_ln else None,
        b=rng.normal(size=q) if with_ln else None,
    )


def test_identity_mask_plus_no_ln_reduces_to_plain_fc(rng):
    m, q = 4, 3
    p = rand_block(rng, m, m, q)
    p.w1 = np.zeros_like(p.w1)
    p.b1 = np.zeros_like(p.b1)
    p.b2 = np.ones_like(p.b2)  # mask == 1 everywhere
    v = rng.normal(size=(5, m))
    out, _ = maskblock_fwd(v, v, replace(p, g=None, b=None), eps=1e-8)
    assert np.allclose(out, relu_fwd(v @ p.w.T), atol=1e-15)


def test_zero_ffn_and_zero_ln_bias_gives_zero_output(rng):
    m, q = 4, 3
    p = rand_block(rng, m, m, q)
    p.w = np.zeros_like(p.w)
    p.b = np.zeros_like(p.b)
    v = rng.normal(size=(2, m))
    out, _ = maskblock_fwd(v, v, p, eps=1e-8)
    assert np.array_equal(out, np.zeros((2, q)))


def test_all_ones_mask_reduces_on_block_to_ln_hid(rng):
    m, pwidth, q = 4, 4, 3
    p = rand_block(rng, m, pwidth, q)
    p.w1 = np.zeros_like(p.w1)
    p.b1 = np.zeros_like(p.b1)
    p.b2 = np.ones_like(p.b2)
    v_emb = rng.normal(size=(3, m))
    v_prev = rng.normal(size=(3, pwidth))
    out, _ = maskblock_fwd(v_emb, v_prev, p, eps=1e-8)
    from masknet.layers import ln_hid_fwd

    expect, _ = ln_hid_fwd(v_prev, p.w, p.g, p.b, 1e-8)
    assert np.allclose(out, expect, atol=1e-15)


def test_zero_previous_output_gives_relu_of_ln_bias(rng):
    m, q = 4, 3
    p = rand_block(rng, m, m, q)
    v_emb = rng.normal(size=(2, m))
    out, _ = maskblock_fwd(v_emb, np.zeros((2, m)), p, eps=1e-8)
    assert np.allclose(out, np.maximum(p.b, 0.0)[None, :].repeat(2, axis=0), atol=1e-12)


def tiny_serial(u=2, seed=3):
    # f=2, k=2, q=3, r=1 tiny configuration
    schema = small_schema(f_cat=2, f_num=0, vocab=3)
    spec = ModelSpec(
        topology="serial", block_widths=(3,) * u, embed_dim=2, reduction=1, seed=seed
    )
    model = Model(spec, schema)
    head_rng = make_rng(seed, 9)
    model.store.params["head.w"] += head_rng.normal(size=model.store.params["head.w"].shape)
    return model


def test_block_on_embedding_matches_oracle():
    model = tiny_serial(u=1)
    rng = make_rng(0, 8)
    cat, num, _ = random_batch(model.schema, rng, n=5)
    _, cache = model.forward(cat, num)
    for i in range(5):
        v_emb = o_embed(model.schema, model.store.params, cat[i], num[i], 2)
        expect = o_block_on_embedding(v_emb, model.store.params, 1, 2, model.spec.ln_eps)
        assert np.allclose(cache["head_in"][i], expect, atol=1e-12)


def test_block_on_block_matches_oracle():
    model = tiny_serial(u=2)
    rng = make_rng(1, 8)
    cat, num, _ = random_batch(model.schema, rng, n=5)
    _, cache = model.forward(cat, num)
    p = model.store.params
    for i in range(5):
        v_emb = o_embed(model.schema, p, cat[i], num[i], 2)
        v1 = o_block_on_embedding(v_emb, p, 1, 2, model.spec.ln_eps)
        # the chained block masks the previous block's output
        assert np.allclose(cache["blocks"][1]["target"][i], v1, atol=1e-12)
        v2 = o_block_on_block(v_emb, v1, p, 2, model.spec.ln_eps)
        assert np.allclose(cache["head_in"][i], v2, atol=1e-12)


def test_ablated_stack_equals_plain_relu_mlp(rng):
    schema = small_schema(f_cat=2, f_num=1, vocab=3)
    spec = ModelSpec(
        topology="serial",
        block_widths=(4, 3),
        embed_dim=3,
        ablation=Ablation(no_mask=True, no_ln=True),
        seed=5,
    )
    model = Model(spec, schema)
    cat, num, _ = random_batch(schema, rng, n=8)
    _, cache = model.forward(cat, num)
    p = model.store.params
    h = cache["v_emb"]
    for i in (1, 2):
        h = relu_fwd(h @ p[f"block{i}.ffn.w"].T)
    assert np.allclose(cache["head_in"], h, atol=1e-15)


def test_identity_mask_equals_no_mask_ablation(rng):
    # a mask unit configured to emit all-ones is numerically the no_mask ablation
    m, q = 4, 3
    p = rand_block(rng, m, m, q)
    p.w1 = np.zeros_like(p.w1)
    p.b1 = np.zeros_like(p.b1)
    p.b2 = np.ones_like(p.b2)
    v = rng.normal(size=(6, m))
    target = rng.normal(size=(6, m))
    with_identity, _ = maskblock_fwd(v, target, p, eps=1e-8)
    without_mask, _ = maskblock_fwd(v, target, replace(p, w1=None, b1=None, w2=None, b2=None), eps=1e-8)
    assert np.array_equal(with_identity, without_mask)


def test_multiplicative_path_is_not_additive(rng):
    # doubling the embedding must not double the output
    m, q = 4, 3
    p = rand_block(rng, m, m, q, with_ln=False)
    v = rng.normal(size=(1, m))
    out1, _ = maskblock_fwd(v, v, p, eps=1e-8)
    out2, _ = maskblock_fwd(2 * v, 2 * v, p, eps=1e-8)
    assert np.abs(out2 - 2 * out1).max() > 1e-3


def test_block_output_width_respects_no_ffn(rng):
    for ab, width in [(Ablation(), 64), (Ablation(no_ffn=True), 10), (Ablation(no_mask=True, no_ffn=True), 10)]:
        arrays, out_width = block_arrays("block1", 6, 10, 64, ab, 2, 0.0, rng)
        assert out_width == width
        v_emb, target = rng.normal(size=(3, 6)), rng.normal(size=(3, 10))
        out, _ = maskblock_fwd(v_emb, target, BlockParams.named(arrays, "block1"), eps=1e-8)
        assert out.shape == (3, width)


def test_three_block_serial_gradcheck():
    reports = {r.name: r for r in run_suite(seed=0)}
    rep = reports["serial_masknet_3_blocks"]
    assert rep.passed and rep.tol == 1e-4, rep.line()


@pytest.mark.parametrize("names", ABLATION_SUBSETS, ids=lambda names: "+".join(names) or "full")
@pytest.mark.parametrize("topology", ["serial", "parallel"])
def test_every_ablation_subset_gradcheck(topology, names):
    # a block takes the path its arrays choose, so combined ablations take paths of their own
    spec = ModelSpec(
        topology=topology, block_widths=(3, 3), top_widths=(3,), embed_dim=4, reduction=2,
        ablation=Ablation.from_names(names), seed=16,
    )
    rep = _model_case(spec, make_rng(0, STREAM_GRADCHECK), f"{topology}_{'+'.join(names)}")
    assert rep.passed and rep.tol == 1e-4, rep.line()
