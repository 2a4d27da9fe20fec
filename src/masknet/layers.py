"""Layer normalization (per-field and per-hidden-layer) and the instance-guided mask.

The mask unit is a two-layer bottleneck read off the raw instance embedding:
an aggregation layer of width t = r*z with ReLU, then an affine projection
back to the width z of whatever is being masked.  Masking itself is an
elementwise product, which is what injects multiplicative feature
interactions into an otherwise additive network.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError
from .numeric import affine_bwd, affine_fwd, relu_bwd, relu_fwd

# Keeps normalized slices at unit scale to well below metric tolerances while
# still guarding zero-variance input.
DEFAULT_LN_EPS = 1e-8


# ---------------------------------------------------------------------------
# Layer normalization
# ---------------------------------------------------------------------------


def layer_norm_fwd(
    x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = DEFAULT_LN_EPS
) -> tuple[np.ndarray, tuple]:
    """Normalize the last axis to zero mean / unit variance, then scale-shift.

    Population variance; eps inside the square root guards constant input.
    g and b must match the trailing axes of x ((H,) or (f, k)).
    """
    if x.shape[x.ndim - g.ndim :] != g.shape or g.shape != b.shape:
        raise DimensionError(f"layer_norm: x {x.shape} vs gain {g.shape} / bias {b.shape}")
    # np.add.reduce is what ndarray.mean/var run under their Python-level
    # wrappers, in the same order, so the bits match; on a 1-row forward the
    # wrappers cost more than the arithmetic.
    n = x.shape[-1]
    xc = x - np.add.reduce(x, -1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(np.add.reduce(np.square(xc), -1, keepdims=True) / n + eps)
    xhat = xc * inv_std
    return g * xhat + b, (xhat, inv_std)


def layer_norm_bwd(
    dy: np.ndarray, cache: tuple, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of layer_norm through mean and std: returns (dx, dg, db)."""
    xhat, inv_std = cache
    lead = tuple(range(dy.ndim - g.ndim))
    dg = (dy * xhat).sum(axis=lead)
    db = dy.sum(axis=lead)
    dxhat = dy * g
    n = dy.shape[-1]
    dx = inv_std * (
        dxhat
        - np.add.reduce(dxhat, -1, keepdims=True) / n
        - xhat * (np.add.reduce(dxhat * xhat, -1, keepdims=True) / n)
    )
    return dx, dg, db


def ln_emb_fwd(
    v_emb: np.ndarray, g: np.ndarray, b: np.ndarray, k: int, eps: float = DEFAULT_LN_EPS
) -> tuple[np.ndarray, tuple]:
    """Per-field layer norm: each k-wide field slice normalized with its own g, b.

    v_emb (B, f*k); g, b (f, k).  Returns (B, f*k).
    """
    m = v_emb.shape[-1]
    if m % k != 0:
        raise ConfigError(f"ln_emb: embedding width {m} not divisible by field dim {k}")
    f = m // k
    y, cache = layer_norm_fwd(v_emb.reshape(-1, f, k), g, b, eps)
    return y.reshape(v_emb.shape), cache


def ln_emb_bwd(
    dy: np.ndarray, cache: tuple, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    f, k = g.shape
    dx, dg, db = layer_norm_bwd(dy.reshape(-1, f, k), cache, g)
    return dx.reshape(dy.shape), dg, db


def ln_hid_fwd(
    x: np.ndarray, w: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = DEFAULT_LN_EPS
) -> tuple[np.ndarray, tuple]:
    """ReLU(LN(w @ x)): normalization over the layer's neurons, before the nonlinearity."""
    z = affine_fwd(x, w)
    zn, ln_cache = layer_norm_fwd(z, g, b, eps)
    return relu_fwd(zn), (x, ln_cache, zn)


def ln_hid_bwd(
    dy: np.ndarray, cache: tuple, w: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dx, dw, dg, db)."""
    x, ln_cache, zn = cache
    dzn = relu_bwd(dy, zn)
    dz, dg, db = layer_norm_bwd(dzn, ln_cache, g)
    dx, dw, _ = affine_bwd(dz, x, w, with_bias=False)
    return dx, dw, dg, db


# ---------------------------------------------------------------------------
# Instance-guided mask
# ---------------------------------------------------------------------------


def instance_mask_fwd(
    v_emb: np.ndarray,
    w1: np.ndarray,
    b1: np.ndarray,
    w2: np.ndarray,
    b2: np.ndarray,
) -> tuple[np.ndarray, tuple]:
    """V_mask = w2 @ ReLU(w1 @ V_emb + b1) + b2.

    v_emb (B, m), w1 (t, m), w2 (z, t) -> (B, z).  The projection stays
    affine: mask values are unbounded, no output nonlinearity.
    """
    a = affine_fwd(v_emb, w1, b1)
    hid = relu_fwd(a)
    return affine_fwd(hid, w2, b2), (v_emb, a, hid)


def instance_mask_bwd(
    dmask: np.ndarray, cache: tuple, w1: np.ndarray, w2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dv_emb, dw1, db1, dw2, db2)."""
    v_emb, a, hid = cache
    dhid, dw2, db2 = affine_bwd(dmask, hid, w2)
    da = relu_bwd(dhid, a)
    dv, dw1, db1 = affine_bwd(da, v_emb, w1)
    return dv, dw1, db1, dw2, db2


def apply_mask(mask: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Elementwise product; a zero mask coordinate suppresses that element."""
    if mask.shape != target.shape:
        raise DimensionError(f"apply_mask: mask {mask.shape} vs target {target.shape}")
    return mask * target


def apply_mask_bwd(dy: np.ndarray, mask: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients flow to both operands: (dmask, dtarget)."""
    return dy * target, dy * mask
