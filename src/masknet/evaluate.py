"""Ranking metrics (AUC, log loss, relative improvement) and mask inspection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError
from .numeric import make_rng

STREAM_INSPECT = 4
LOGLOSS_EPS = 1e-12


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outranks a random negative, ties half.

    Rank-sum (Mann-Whitney) form over average ranks, O(n log n).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = len(scores)
    n_pos = int(labels.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError(f"AUC undefined: {n_pos} positives, {n_neg} negatives")
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(np.r_[starts, n])
    # average 1-based rank within each tie group
    avg = starts + (counts + 1) / 2.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(avg, counts)
    pos_rank_sum = ranks[labels == 1.0].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary log loss; probabilities clamped to [1e-12, 1-1e-12] first."""
    p = np.clip(probs, LOGLOSS_EPS, 1.0 - LOGLOSS_EPS)
    return float(-(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)).mean())


def check_baseline_auc(base: float) -> float:
    """`base` if RelaImp is defined for it: in (0.5, 1], so not nan."""
    if not 0.5 < base <= 1.0:
        raise MetricError(f"RelaImp undefined for baseline AUC {base} outside (0.5, 1]")
    return base


def relaimp(measured: float, base: float) -> float:
    """Relative AUC improvement with the 0.5 chance floor removed, in percent."""
    return ((measured - 0.5) / (check_baseline_auc(base) - 0.5) - 1.0) * 100.0


@dataclass
class EvalReport:
    auc: float
    logloss: float
    n_pos: int
    n_neg: int
    baseline_name: str | None = None
    baseline_auc: float | None = None
    relaimp_pct: float | None = None

    def lines(self) -> list[str]:
        out = [
            f"auc={self.auc:.6f}",
            f"logloss={self.logloss:.6f}",
            f"n_pos={self.n_pos}",
            f"n_neg={self.n_neg}",
        ]
        if self.baseline_name is not None:
            out.append(f"baseline={self.baseline_name}")
            out.append(f"baseline_auc={self.baseline_auc:.6f}")
            out.append(f"relaimp_pct={self.relaimp_pct:+.2f}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def evaluate_model(model, ds, baseline: tuple[str, float] | None = None) -> EvalReport:
    probs = model.predict(ds)
    n_pos = int(ds.labels.sum())
    report = EvalReport(
        auc=auc(probs, ds.labels),
        logloss=logloss(probs, ds.labels),
        n_pos=n_pos,
        n_neg=ds.n - n_pos,
    )
    if baseline is not None:
        report.baseline_name, report.baseline_auc = baseline
        report.relaimp_pct = relaimp(report.auc, report.baseline_auc)
    return report


# ---------------------------------------------------------------------------
# Mask inspection
# ---------------------------------------------------------------------------

HIST_BINS = 101


@dataclass
class MaskHistogram:
    block: int  # 1-based
    edges: np.ndarray  # (HIST_BINS + 1,)
    counts: np.ndarray  # (HIST_BINS,)

    def text(self) -> str:
        edges = [float(e) for e in self.edges]
        lines = [
            f"# block={self.block} bins={HIST_BINS} min={edges[0]!r} max={edges[-1]!r}",
            "bin_lo,bin_hi,count",
        ]
        lines += [
            f"{edges[i]!r},{edges[i + 1]!r},{int(self.counts[i])}" for i in range(HIST_BINS)
        ]
        return "\n".join(lines) + "\n"


@dataclass
class MaskInspection:
    histograms: list[MaskHistogram]
    example_indices: np.ndarray  # (n_examples,) dataset row ids
    example_masks: list[np.ndarray]  # per block: (n_examples, z)

    def examples_text(self) -> str:
        lines = ["instance,block,mask_values..."]
        for e, row in enumerate(self.example_indices):
            for b, masks in enumerate(self.example_masks, start=1):
                vals = ",".join(repr(float(v)) for v in masks[e])
                lines.append(f"{int(row)},{b},{vals}")
        return "\n".join(lines) + "\n"


def inspect_masks(model, ds, sample_size: int, n_examples: int = 2, seed: int = 0) -> MaskInspection:
    """Sample instances, collect per-block mask values, and bin them.

    Every sampled instance goes through one `model.mask_values` call, which
    scores in `predict`'s row tiles.  Histograms use HIST_BINS uniform bins
    over the empirical [min, max] of each block (recorded in the header); the
    first `n_examples` sampled instances also get their raw per-block mask
    vectors dumped for side-by-side comparison.
    """
    if sample_size < 1:
        raise MetricError("inspect_masks needs sample_size >= 1")
    if n_examples < 0:
        raise MetricError(f"inspect_masks needs n_examples >= 0, got {n_examples}")
    rng = make_rng(seed, STREAM_INSPECT)
    idx = rng.choice(ds.n, size=min(sample_size, ds.n), replace=False)
    masks = model.mask_values(ds.cat[idx], ds.num[idx])

    histograms = []
    for b, vals in enumerate(masks, start=1):
        lo, hi = float(vals.min()), float(vals.max())
        if hi <= lo:  # constant masks: pad so the bin spec stays valid
            lo, hi = lo - 0.5, hi + 0.5
        counts, edges = np.histogram(vals.ravel(), bins=HIST_BINS, range=(lo, hi))
        histograms.append(MaskHistogram(block=b, edges=edges, counts=counts))
    return MaskInspection(
        histograms=histograms,
        example_indices=idx[:n_examples],
        example_masks=[vals[:n_examples] for vals in masks],
    )
