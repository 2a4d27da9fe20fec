"""The L2-regularized objective, Adam, and the training loop.

The loop is single-threaded and owns the model exclusively; validation runs
on read-only snapshots.  Everything is deterministic given the config seed:
rerunning produces a bit-identical loss history and parameter trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, STREAM_SHUFFLE
from .errors import ConfigError, TrainingError, check_finite_fields
from .evaluate import auc, logloss
from .model import Model, row_tiles
from .numeric import ParamStore, make_rng

# Elements per pass of the Adam update: the pass's 1 MB of scratch stays in
# a 2 MB L2 cache, and no temporary grows with the model.
ADAM_CHUNK = 65536


@dataclass
class TrainConfig:
    batch_size: int = 1024
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    l2: float = 0.0  # lambda of the regularized objective
    epochs: int = 20
    patience: int = 5  # epochs without a validation-AUC improvement
    seed: int = 0

    def __post_init__(self) -> None:
        check_finite_fields(self)
        for name, ok, rule in (
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("learning_rate", self.learning_rate > 0, "> 0"),
            ("l2", self.l2 >= 0, ">= 0"),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("patience", self.patience >= 1, ">= 1"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("adam_eps", self.adam_eps > 0, "> 0"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")


def l2_penalty(store: ParamStore, lam: float) -> float:
    return lam * store.l2_sq() if lam > 0.0 else 0.0


def add_l2_grad(store: ParamStore, lam: float) -> None:
    """Add the gradient of lam * ||theta||^2 to every parameter's gradient."""
    if lam > 0.0:
        store.grad_buf += 2.0 * lam * store.param_buf


def train_step(
    model: Model, cat: np.ndarray, num: np.ndarray, labels: np.ndarray, lam: float, kinks: list | None = None
) -> tuple[float, np.ndarray]:
    """The gradient of one minibatch: zero the gradients, then forward and
    backward once per `row_tiles` tile, then the L2 term.  Returns (mean log
    loss without the L2 term, probabilities).

    Each tile's backward adds its share of the batch mean into the gradient
    buffer, so one tile's forward cache is alive at a time.  A batch of up to
    2*SCORE_TILE - 1 rows is one tile; a larger one keeps each row's
    probability, and its sums over rows are rounded tile by tile.  A `kinks`
    list gets each tile's ReLU activation signs appended.
    """
    model.store.zero_grads()
    probs = np.empty(len(labels))
    for rows in row_tiles(len(labels)):
        probs[rows] = _tile_step(model, cat[rows], num[rows], labels[rows], len(labels), kinks)
    add_l2_grad(model.store, lam)
    return logloss(probs, labels), probs


def _tile_step(model: Model, cat, num, labels, batch_rows: int, kinks: list | None) -> np.ndarray:
    """Forward and backward of one tile; its cache dies on return."""
    probs, cache = model.forward(cat, num)
    model.backward(cache, (probs - labels) / batch_rows)
    if kinks is not None:
        kinks += [(a > 0.0).ravel() for a in cache["relu_pre"]]
    return probs


def objective_closure(model: Model, cat: np.ndarray, num: np.ndarray, labels: np.ndarray, lam: float = 0.0):
    """f(store) -> (objective, ReLU pattern of every row) running the
    training step; the shape gradcheck expects."""

    def f(store: ParamStore):
        kinks: list = []
        loss, _ = train_step(model, cat, num, labels, lam, kinks)
        return loss + l2_penalty(store, lam), np.concatenate(kinks) if kinks else None

    return f


def adam_step(store: ParamStore, cfg: TrainConfig) -> None:
    """Standard Adam with bias correction; one shared step counter per store.

    Runs over the flat buffers in ADAM_CHUNK-element pieces with in-place
    ufuncs, in the elementwise order of
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        p -= lr*(m/c1) / (sqrt(v/c2) + eps)
    """
    store.step += 1
    t = store.step
    b1, b2, lr, eps = cfg.beta1, cfg.beta2, cfg.learning_rate, cfg.adam_eps
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    p, g, m, v = store.param_buf, store.grad_buf, store.adam_m, store.adam_v
    scratch = np.empty((2, min(ADAM_CHUNK, p.size)))
    for lo in range(0, p.size, ADAM_CHUNK):
        sl = slice(lo, lo + ADAM_CHUNK)
        pc, gc, mc, vc = p[sl], g[sl], m[sl], v[sl]
        s1, s2 = scratch[0, : pc.size], scratch[1, : pc.size]
        np.multiply(mc, b1, out=mc)
        np.multiply(gc, 1.0 - b1, out=s1)
        np.add(mc, s1, out=mc)
        np.multiply(gc, gc, out=s1)
        np.multiply(s1, 1.0 - b2, out=s1)
        np.multiply(vc, b2, out=vc)
        np.add(vc, s1, out=vc)
        np.divide(mc, c1, out=s1)
        np.multiply(s1, lr, out=s1)
        np.divide(vc, c2, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, eps, out=s2)
        np.divide(s1, s2, out=s1)
        np.subtract(pc, s1, out=pc)


@dataclass
class History:
    """Per-epoch trace; train_loss is the mean log loss (no L2 term)."""

    first_batch_loss: float = float("nan")
    rows: list[tuple[int, float, float]] = field(default_factory=list)  # (epoch, train_loss, valid_auc)
    best_epoch: int = 0
    best_valid_auc: float = float("nan")

    def to_csv(self) -> str:
        lines = [f"# first_batch_loss={self.first_batch_loss!r}", "epoch,train_logloss,valid_auc"]
        lines += [f"{e},{tl!r},{va!r}" for e, tl, va in self.rows]
        return "\n".join(lines) + "\n"


def train(model: Model, train_ds: Dataset, valid_ds: Dataset | None, cfg: TrainConfig) -> History:
    """Shuffled-minibatch epochs with validation-AUC model selection.

    Keeps the best-validation parameter snapshot and restores it before
    returning; stops early after `patience` epochs without improvement.
    Aborts with the offending batch named if the loss goes non-finite.
    """
    store = model.store
    rng = make_rng(cfg.seed, STREAM_SHUFFLE)
    hist = History()
    best_snap = None
    since_best = 0
    n = train_ds.n

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        loss_sum = 0.0
        for b, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[lo : lo + cfg.batch_size]
            loss, _ = train_step(model, train_ds.cat[idx], train_ds.num[idx], train_ds.labels[idx], cfg.l2)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {b}")
            if epoch == 1 and b == 0:
                hist.first_batch_loss = loss
            adam_step(store, cfg)
            loss_sum += loss * len(idx)
        train_loss = loss_sum / n

        valid_auc = float("nan") if valid_ds is None else auc(model.predict(valid_ds), valid_ds.labels)
        hist.rows.append((epoch, train_loss, valid_auc))

        if valid_ds is not None:
            if best_snap is None or valid_auc > hist.best_valid_auc:
                hist.best_valid_auc = valid_auc
                hist.best_epoch = epoch
                best_snap = store.snapshot()
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break

    if best_snap is not None:
        store.restore(best_snap)
    return hist
