"""MaskBlock: instance-guided mask + feed-forward layer + layer norm.

One core serves both kinds of block, which differ only in what gets masked:
the (per-field normalized) instance embedding, or the previous block's
output.  The mask unit itself always reads the raw instance embedding.
Ablation switches remove one component at a time so a stack of blocks can be
collapsed back to a plain MLP for equivalence checks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .errors import ConfigError
from .layers import (
    apply_mask,
    apply_mask_bwd,
    instance_mask_bwd,
    instance_mask_fwd,
    ln_hid_bwd,
    ln_hid_fwd,
)
from .numeric import affine_bwd, affine_fwd, relu_bwd, relu_fwd


@dataclass(frozen=True)
class Ablation:
    no_mask: bool = False  # skip the elementwise product
    no_ln: bool = False  # every LN site (embedding and hidden) becomes identity
    no_ffn: bool = False  # block output is the masked vector itself

    @classmethod
    def from_names(cls, names) -> "Ablation":
        valid = {f.name for f in dc_fields(cls)}
        names = list(names)
        for n in names:
            if n not in valid:
                raise ConfigError(f"unknown ablation {n!r}; expected one of {sorted(valid)}")
        return cls(**{n: True for n in names})

    def names(self) -> list[str]:
        return [f.name for f in dc_fields(self) if getattr(self, f.name)]


@dataclass
class BlockParams:
    """Arrays for one block, each field named by the last part of its
    parameter name; mask/ffn/ln entries are None when ablated away."""

    w1: np.ndarray | None = None  # aggregation (t, m)
    b1: np.ndarray | None = None  # (t,)
    w2: np.ndarray | None = None  # projection (z, t)
    b2: np.ndarray | None = None  # (z,)
    w: np.ndarray | None = None  # feed-forward (q, z)
    g: np.ndarray | None = None  # output LN gain (q,)
    b: np.ndarray | None = None  # output LN bias (q,)

    @classmethod
    def named(cls, arrays: dict[str, np.ndarray], prefix: str) -> "BlockParams":
        """The block `prefix`'s arrays out of a name -> array map (a store's
        parameters or gradients)."""
        return cls(**{n.rpartition(".")[2]: a for n, a in arrays.items() if n.startswith(f"{prefix}.")})


def block_arrays(
    prefix: str, m: int, z: int, q: int, ab: Ablation, reduction: int, mask_bias_init: float, rng
) -> dict[str, np.ndarray]:
    """Initial arrays of one block reading an m-wide embedding and masking a
    z-wide target, named `prefix`.<part>, in store order."""
    arrays = {}
    if not ab.no_mask:
        t = reduction * z
        arrays["mask.w1"] = rng.normal(0.0, 1.0 / np.sqrt(m), size=(t, m))
        arrays["mask.b1"] = np.zeros(t)
        arrays["mask.w2"] = rng.normal(0.0, 1.0 / np.sqrt(t), size=(z, t))
        arrays["mask.b2"] = np.full(z, mask_bias_init)
    if not ab.no_ffn:
        arrays["ffn.w"] = rng.normal(0.0, 1.0 / np.sqrt(z), size=(q, z))
        if not ab.no_ln:
            arrays["ln.g"] = np.ones(q)
            arrays["ln.b"] = np.zeros(q)
    return {f"{prefix}.{n}": a for n, a in arrays.items()}


def block_output_width(target_width: int, q: int, ab: Ablation) -> int:
    return target_width if ab.no_ffn else q


def maskblock_fwd(
    v_emb: np.ndarray,
    target: np.ndarray,
    p: BlockParams,
    ab: Ablation,
    eps: float,
) -> tuple[np.ndarray, dict]:
    """Core block: mask(v_emb) * target, then ReLU(LN(W @ .)).

    `target` is the normalized embedding for an embedding block or the raw
    previous-block output for a stacked block (no re-normalization of it).
    """
    cache: dict = {"target": target}
    if ab.no_mask:
        masked = target
    else:
        mask, mcache = instance_mask_fwd(v_emb, p.w1, p.b1, p.w2, p.b2)
        masked = apply_mask(mask, target)
        cache["mask"] = mask
        cache["mcache"] = mcache
    cache["masked"] = masked
    if ab.no_ffn:
        return masked, cache
    if ab.no_ln:
        z = affine_fwd(masked, p.w)
        cache["z"] = z
        return relu_fwd(z), cache
    out, hcache = ln_hid_fwd(masked, p.w, p.g, p.b, eps)
    cache["hcache"] = hcache
    return out, cache


def maskblock_bwd(
    dout: np.ndarray, cache: dict, p: BlockParams, g: BlockParams, ab: Ablation
) -> tuple[np.ndarray | None, np.ndarray]:
    """Adds the parameter gradients into `g`; returns (d_v_emb through the
    mask path or None, d_target)."""
    if ab.no_ffn:
        dmasked = dout
    elif ab.no_ln:
        dz = relu_bwd(dout, cache["z"])
        dmasked, dw, _ = affine_bwd(dz, cache["masked"], p.w, with_bias=False)
        g.w += dw
    else:
        dmasked, dw, dg, db = ln_hid_bwd(dout, cache["hcache"], p.w, p.g)
        g.w += dw
        g.g += dg
        g.b += db
    if ab.no_mask:
        return None, dmasked
    dmask, dtarget = apply_mask_bwd(dmasked, cache["mask"], cache["target"])
    dv, dw1, db1, dw2, db2 = instance_mask_bwd(dmask, cache["mcache"], p.w1, p.w2)
    g.w1 += dw1
    g.b1 += db1
    g.w2 += dw2
    g.b2 += db2
    return dv, dtarget


def block_relu_pre(cache: dict, ab: Ablation) -> list[np.ndarray]:
    """Pre-ReLU arrays inside one block, for kink detection in gradcheck."""
    pre = []
    if not ab.no_mask:
        pre.append(cache["mcache"][1])  # aggregation-layer pre-activation
    if not ab.no_ffn:
        pre.append(cache["z"] if ab.no_ln else cache["hcache"][2])
    return pre
