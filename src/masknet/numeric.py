"""Dense float64 arithmetic with hand-derived backward passes.

Conventions used across the package:

- everything is float64; weight matrices are C-order with shape (out, in)
- batches put instances in rows: an op on width-t vectors takes (B, t) and
  returns (B, out); a single instance is a one-row batch
- every ``*_fwd`` has a matching ``*_bwd`` mapping the upstream gradient to
  gradients for each input; backprop is derived per layer, there is no tape

Randomness: `make_rng` wraps numpy's PCG64, whose stream for a given seed is
documented and stable across platforms and numpy releases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, MaskNetError

# Sigmoid outputs are kept strictly inside (0, 1) so log-loss terms and the
# prediction contract stay well-defined even for extreme logits.
SIGMOID_FLOOR = 1e-15

# ParamStore buffers start on a cache-line boundary.  malloc guarantees only
# 16 bytes, and every array in a buffer inherits the buffer's offset, so each
# process would otherwise give all of a model's weights one alignment of its
# own, and with it its own speed of the BLAS and SIMD loops over them.
CACHE_LINE = 64


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic PCG64 generator; `stream` separates independent uses."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _aligned_zeros(n: int) -> np.ndarray:
    """n float64 zeros whose first element starts on a CACHE_LINE boundary."""
    raw = np.zeros(n + CACHE_LINE // 8)
    lo = (-raw.ctypes.data % CACHE_LINE) // 8
    return raw[lo : lo + n]


class ParamStore:
    """Every trainable array of a model, packed into flat float64 buffers.

    Four contiguous buffers of equal length, each starting on a cache line,
    hold the parameters, their gradients and the Adam first and second
    moments.  The store is built once from named arrays in order;
    `params[name]` and `grads[name]` are writable views into the first two
    buffers, so arrays handed out by name (block weights, embedding tables)
    never go stale, and whole-model operations (`zero_grads`, `snapshot`, the
    optimizer, checkpoints) are one pass over a buffer.
    `zero_grads` is called at the start of each minibatch; the step counter
    shared by every parameter lives here so the optimizer is a pure function
    of the store.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
        n = sum(a.size for a in arrays.values())
        self.param_buf, self.grad_buf, self.adam_m, self.adam_v = (_aligned_zeros(n) for _ in range(4))
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._slices: dict[str, slice] = {}
        lo = 0
        for name, a in arrays.items():
            sl = slice(lo, lo + a.size)
            self.params[name] = self.param_buf[sl].reshape(a.shape)
            self.params[name][...] = a
            self.grads[name] = self.grad_buf[sl].reshape(a.shape)
            self._slices[name] = sl
            lo = sl.stop
        self.step = 0

    def names(self) -> list[str]:
        return list(self.params)

    def span(self, names: list[str]) -> slice:
        """Buffer slice covering `names`, which must be stored back to back."""
        sl = [self._slices[n] for n in names]
        if any(a.stop != b.start for a, b in zip(sl, sl[1:])):
            raise MaskNetError(f"parameters {names} are not contiguous in the store")
        return slice(sl[0].start, sl[-1].stop)

    def zero_grads(self) -> None:
        self.grad_buf.fill(0.0)

    def size(self) -> int:
        return self.param_buf.size

    def l2_sq(self) -> float:
        """Sum of squares over every parameter coordinate."""
        return float(np.dot(self.param_buf, self.param_buf))

    def snapshot(self) -> np.ndarray:
        return self.param_buf.copy()

    def restore(self, snap: np.ndarray) -> None:
        self.param_buf[...] = snap


# ---------------------------------------------------------------------------
# Elementary ops
# ---------------------------------------------------------------------------


def affine_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """y = x @ w.T (+ b). x (B, t), w (m, t), b (m,) -> (B, m)."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise DimensionError(f"affine: x {x.shape} incompatible with w {w.shape}")
    y = x @ w.T
    if b is not None:
        if b.shape != (w.shape[0],):
            raise DimensionError(f"affine: b {b.shape} incompatible with w {w.shape}")
        y += b
    return y


def affine_bwd(
    dy: np.ndarray, x: np.ndarray, w: np.ndarray, with_bias: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients of y = x @ w.T + b: returns (dx, dw, db)."""
    dx = dy @ w
    dw = dy.T @ x
    db = dy.sum(axis=0) if with_bias else None
    return dx, dw, db


def relu_fwd(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_bwd(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    # subgradient at exactly 0 is 0
    return dy * (x > 0.0)


def sigmoid(s):
    """Numerically stable logistic function, elementwise.

    Uses the sign-split form (1/(1+e^-s) vs e^s/(1+e^s)), both halves read
    off e = e^-|s|, and clips the result to [SIGMOID_FLOOR, 1-SIGMOID_FLOOR]
    so outputs stay strictly inside (0, 1).  Accepts scalars or arrays;
    returns the same kind.
    """
    arr = np.asarray(s, dtype=np.float64)
    e = np.exp(-np.abs(arr))
    d = 1.0 + e
    out = np.where(arr >= 0, 1.0 / d, e / d)
    # np.clip's arithmetic (nan kept) without its Python-level wrapper
    np.minimum(np.maximum(out, SIGMOID_FLOOR, out=out), 1.0 - SIGMOID_FLOOR, out=out)
    return float(out) if np.isscalar(s) else out


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle
# ---------------------------------------------------------------------------


@dataclass
class GradcheckReport:
    """Result of comparing analytic gradients against central differences."""

    name: str
    tol: float
    max_rel_err: float
    worst: str
    checked: int
    skipped: int
    failure: str | None = None
    per_param: dict | None = None  # name -> (max rel err, flat index)

    @property
    def passed(self) -> bool:
        return self.failure is None and self.max_rel_err <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = (
            f"{status} {self.name}: max_rel_err={self.max_rel_err:.3e} tol={self.tol:.0e} "
            f"worst={self.worst} checked={self.checked} kink_skipped={self.skipped}"
        )
        if self.failure:
            msg += f" [{self.failure}]"
        return msg

    def group_lines(self) -> list[str]:
        """Worst coordinate per parameter group, for failure diagnostics."""
        if not self.per_param:
            return []
        return [
            f"  {name}[{idx}]: rel_err={err:.3e}"
            for name, (err, idx) in sorted(self.per_param.items(), key=lambda kv: -kv[1][0])
        ]


def gradcheck(f, store: ParamStore, h: float = 1e-4, tol: float = 1e-4, name: str = "gradcheck") -> GradcheckReport:
    """Check every parameter coordinate of `store` against (f(th+h)-f(th-h))/2h.

    `f(store) -> (loss, kink_pattern)` must run forward and backward,
    accumulating gradients into `store.grads` (the store is zeroed here before
    the analytic call).  `kink_pattern` is an optional bool array of ReLU
    activation signs: a coordinate whose +h/-h evaluations disagree on the
    pattern straddles a kink, where central differences are invalid, and is
    skipped.  Relative error is |a-n| / max(|a|, |n|, 1), i.e. absolute below
    unit gradient scale.
    """
    if not 1e-6 <= h <= 1e-3:
        raise MaskNetError(f"gradcheck step h={h} outside [1e-6, 1e-3]")
    store.zero_grads()
    loss0, _ = f(store)
    if not np.isfinite(loss0):
        return GradcheckReport(name, tol, np.inf, "-", 0, 0, failure="non-finite loss at base point")
    analytic = {k: g.copy() for k, g in store.grads.items()}

    max_err = 0.0
    worst = "-"
    checked = 0
    skipped = 0
    per_param: dict = {}
    for pname, arr in store.params.items():
        flat = arr.reshape(-1)
        aflat = analytic[pname].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, pat_p = f(store)
            flat[i] = orig - h
            lm, pat_m = f(store)
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                return GradcheckReport(
                    name, tol, np.inf, f"{pname}[{i}]", checked, skipped,
                    failure="non-finite loss at perturbed point", per_param=per_param,
                )
            if pat_p is not None and pat_m is not None and not np.array_equal(pat_p, pat_m):
                skipped += 1
                continue
            numeric = (lp - lm) / (2.0 * h)
            a = aflat[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            checked += 1
            if pname not in per_param or err > per_param[pname][0]:
                per_param[pname] = (err, i)
            if err > max_err:
                max_err = err
                worst = f"{pname}[{i}]"
    return GradcheckReport(name, tol, max_err, worst, checked, skipped, per_param=per_param)
