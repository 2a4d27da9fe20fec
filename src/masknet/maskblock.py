"""MaskBlock: instance-guided mask + feed-forward layer + layer norm.

One core serves both kinds of block, which differ only in what gets masked:
the (per-field normalized) instance embedding, or the previous block's
output.  The mask unit itself always reads the raw instance embedding.
Ablation switches remove one component at a time so a stack of blocks can be
collapsed back to a plain MLP for equivalence checks.

`block_arrays` is the only block function that reads `Ablation`: a part it
leaves out has no arrays, and `maskblock_fwd` and `maskblock_bwd` skip every
part whose arrays are None.
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
    parameter name.  A part whose arrays are None is skipped: no mask unit
    when `w1` is None, no FFN when `w` is None, no output LN when `g` is
    None."""

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
) -> tuple[dict[str, np.ndarray], int]:
    """Initial arrays of one block reading an m-wide embedding and masking a
    z-wide target, named `prefix`.<part>, in store order; and the block's
    output width (z when the FFN is ablated away, else q)."""
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
    return {f"{prefix}.{n}": a for n, a in arrays.items()}, z if ab.no_ffn else q


def maskblock_fwd(v_emb: np.ndarray, target: np.ndarray, p: BlockParams, eps: float) -> tuple[np.ndarray, dict]:
    """Core block: mask(v_emb) * target, then ReLU(LN(W @ .)).

    `target` is the normalized embedding for an embedding block or the raw
    previous-block output for a stacked block (no re-normalization of it).
    The cache's `relu_pre` lists the block's pre-ReLU arrays, mask unit
    first, for kink detection in gradcheck.
    """
    cache: dict = {"target": target, "relu_pre": []}
    masked = target
    if p.w1 is not None:
        mask, mcache = instance_mask_fwd(v_emb, p.w1, p.b1, p.w2, p.b2)
        masked = apply_mask(mask, target)
        cache["mask"] = mask
        cache["mcache"] = mcache
        cache["relu_pre"].append(mcache[1])  # aggregation-layer pre-activation
    cache["masked"] = masked
    if p.w is None:
        return masked, cache
    if p.g is None:
        z = affine_fwd(masked, p.w)
        cache["z"] = z
        cache["relu_pre"].append(z)
        return relu_fwd(z), cache
    out, hcache = ln_hid_fwd(masked, p.w, p.g, p.b, eps)
    cache["hcache"] = hcache
    cache["relu_pre"].append(hcache[2])
    return out, cache


def maskblock_bwd(dout: np.ndarray, cache: dict, p: BlockParams, g: BlockParams, dv_emb: np.ndarray) -> np.ndarray:
    """Adds the parameter gradients into `g` and the mask unit's gradient on
    the instance embedding into `dv_emb`; returns d_target."""
    if p.w is None:
        dmasked = dout
    elif p.g is None:
        dz = relu_bwd(dout, cache["z"])
        dmasked, dw, _ = affine_bwd(dz, cache["masked"], p.w, with_bias=False)
        g.w += dw
    else:
        dmasked, dw, dg, db = ln_hid_bwd(dout, cache["hcache"], p.w, p.g)
        g.w += dw
        g.g += dg
        g.b += db
    if p.w1 is None:
        return dmasked
    dmask, dtarget = apply_mask_bwd(dmasked, cache["mask"], cache["target"])
    dv, dw1, db1, dw2, db2 = instance_mask_bwd(dmask, cache["mcache"], p.w1, p.w2)
    dv_emb += dv
    g.w1 += dw1
    g.b1 += db1
    g.w2 += dw2
    g.b2 += db2
    return dtarget
