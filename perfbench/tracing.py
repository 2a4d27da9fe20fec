"""Outside-in layer tracing for the benchmark.

`Tracer.install` wraps public functions and methods of the `masknet` package
from the outside: every module binding of a wrapped function is replaced, so
calls made inside the package (`maskblock` calling `instance_mask_fwd`,
`train` calling `adam_step`) are recorded as well.  Each call becomes one
span (id, parent id, name, phase, start, end, work) kept in memory; the spans
are written out once, when the run ends.

Self time is derived from the parent links: a span's duration minus the
durations of its children.  The affine GEMM spans are the exception: they
count work inside other layers (the mask unit, FFN+LN, the MLP), so they are
not subtracted from their parents and the parents keep them in their time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import time
from collections import defaultdict
from pathlib import Path

# Span name -> (home module, attribute).  Every module of the package that
# binds the same function object gets the wrapper too.
FUNCTIONS = {
    "train.train": ("masknet.train", "train"),
    "train.adam_step": ("masknet.train", "adam_step"),
    "evaluate.auc": ("masknet.evaluate", "auc"),
    "numeric.affine.fwd": ("masknet.numeric", "affine_fwd"),
    "numeric.affine.bwd": ("masknet.numeric", "affine_bwd"),
    "embedding.fwd": ("masknet.embedding", "embed_fwd"),
    "embedding.bwd": ("masknet.embedding", "embed_bwd"),
    "layers.ln_emb.fwd": ("masknet.layers", "ln_emb_fwd"),
    "layers.ln_emb.bwd": ("masknet.layers", "ln_emb_bwd"),
    "layers.mask.fwd": ("masknet.layers", "instance_mask_fwd"),
    "layers.mask.bwd": ("masknet.layers", "instance_mask_bwd"),
    "layers.mask_product.fwd": ("masknet.layers", "apply_mask"),
    "layers.mask_product.bwd": ("masknet.layers", "apply_mask_bwd"),
    "layers.ffn_ln.fwd": ("masknet.layers", "ln_hid_fwd"),
    "layers.ffn_ln.bwd": ("masknet.layers", "ln_hid_bwd"),
    "maskblock.fwd": ("masknet.maskblock", "maskblock_fwd"),
    "maskblock.bwd": ("masknet.maskblock", "maskblock_bwd"),
    "data.gen_synthetic": ("masknet.data", "gen_synthetic"),
    "data.dataset_to_csv": ("masknet.data", "dataset_to_csv"),
    "data.build_manifest": ("masknet.data", "build_manifest"),
    "data.read_delimited": ("masknet.data", "read_delimited"),
    "data.build_schema_and_encode": ("masknet.data", "build_schema_and_encode"),
    "data.standardize_numerical": ("masknet.data", "standardize_numerical"),
    "model.save_checkpoint": ("masknet.model", "save_checkpoint"),
    "model.load_checkpoint": ("masknet.model", "load_checkpoint"),
}

# Span name -> (module, class, method).
METHODS = {
    "model.forward": ("masknet.model", "Model", "forward"),
    "model.backward": ("masknet.model", "Model", "backward"),
    "model.predict": ("masknet.model", "Model", "predict"),
    "numeric.zero_grads": ("masknet.numeric", "ParamStore", "zero_grads"),
    "numeric.snapshot": ("masknet.numeric", "ParamStore", "snapshot"),
}


# Work recorded per span: floating-point operations for the GEMMs
# (y = x w^T is 2*B*out*in; its backward computes dx and dw, twice that),
# rows for a model forward.
def _affine_fwd_flop(x, w, *rest, **kw):
    return 2 * x.shape[0] * w.size


def _affine_bwd_flop(dy, x, w, *rest, **kw):
    return 4 * dy.shape[0] * w.size


def _forward_rows(model, cat, *rest, **kw):
    return len(cat)


WORK = {
    "numeric.affine.fwd": _affine_fwd_flop,
    "numeric.affine.bwd": _affine_bwd_flop,
    "model.forward": _forward_rows,
}

# Spans whose time stays inside their parent's self time.
TRANSPARENT = ("numeric.affine.fwd", "numeric.affine.bwd")

TOPOLOGIES = ("serial", "parallel", "dnn")
MASKED = ("serial", "parallel")


class Tracer:
    """In-memory span recorder; `phase` labels every span recorded under it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = ""
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        work = WORK.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, tracer.phase, t0, t1, work(*args, **kwargs) if work else 0))

        return traced

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "masknet" or k.startswith("masknet.")]
        for name, (home, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(home), attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for name, (home, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(home), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,phase,start_ns,end_ns,work\n")
            fh.writelines(f"{s},{p},{n},{ph},{t0},{t1},{w}\n" for s, p, n, ph, t0, t1, w in self.spans)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def per_layer_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    rows: list[tuple[str, str, str]] = []
    for t in TOPOLOGIES:
        rows += [
            (f"train.step_ms.{t}", "ms", "lower"),
            (f"train.loop_self_ms.{t}", "ms", "lower"),
            (f"train.adam_step_ms.{t}", "ms", "lower"),
            (f"numeric.zero_grads_ms.{t}", "ms", "lower"),
            (f"numeric.snapshot_ms.{t}", "ms", "lower"),
            (f"train.validate_ms.{t}", "ms", "lower"),
            (f"evaluate.auc_ms.{t}", "ms", "lower"),
            (f"model.forward_ms.{t}", "ms", "lower"),
            (f"model.forward_self_ms.{t}", "ms", "lower"),
            (f"model.backward_ms.{t}", "ms", "lower"),
            (f"model.backward_self_ms.{t}", "ms", "lower"),
            (f"embedding.fwd_ms.{t}", "ms", "lower"),
            (f"embedding.bwd_ms.{t}", "ms", "lower"),
            (f"numeric.affine.fwd_ms.{t}", "ms", "lower"),
            (f"numeric.affine.bwd_ms.{t}", "ms", "lower"),
            (f"numeric.affine.gflop.{t}", "gflop", "lower"),
            (f"numeric.affine.gflop_per_s.{t}", "gflop/s", "higher"),
            (f"train.steps.{t}", "count", "lower"),
            (f"train.examples.{t}", "count", "lower"),
            (f"model.params.{t}", "count", "lower"),
        ]
    for t in MASKED:
        for layer in ("layers.ln_emb", "layers.mask", "layers.mask_product", "layers.ffn_ln"):
            rows += [(f"{layer}.fwd_ms.{t}", "ms", "lower"), (f"{layer}.bwd_ms.{t}", "ms", "lower")]
        rows += [(f"maskblock.fwd_self_ms.{t}", "ms", "lower"), (f"maskblock.bwd_self_ms.{t}", "ms", "lower")]
    for base in (
        "model.predict_ms",
        "model.forward_ms",
        "model.forward_self_ms",
        "embedding.fwd_ms",
        "layers.ln_emb.fwd_ms",
        "layers.mask.fwd_ms",
        "layers.mask_product.fwd_ms",
        "layers.ffn_ln.fwd_ms",
        "maskblock.fwd_self_ms",
        "numeric.affine.fwd_ms",
    ):
        rows.append((f"{base}.score", "ms", "lower"))
    rows += [
        ("numeric.affine.gflop.score", "gflop", "lower"),
        ("numeric.affine.gflop_per_s.score", "gflop/s", "higher"),
    ]
    for base in (
        "data.gen_synthetic_ms",
        "data.dataset_to_csv_ms",
        "data.build_manifest_ms",
        "data.read_delimited_ms",
        "data.build_schema_and_encode_ms",
        "data.standardize_numerical_ms",
        "model.save_checkpoint_ms",
        "model.load_checkpoint_ms",
    ):
        rows.append((base, "ms", "lower"))
    rows += [
        ("data.rows", "count", "higher"),
        ("data.oov_cells", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return rows


class _Sums:
    __slots__ = ("count", "dur", "self", "work")

    def __init__(self) -> None:
        self.count = self.dur = self.self = self.work = 0


def aggregate(spans: list[tuple]) -> dict[tuple[str, str, bool], _Sums]:
    """Sum count, duration, self time and work per (phase, name, in_validation).

    `in_validation` marks spans below a `model.predict` span inside a train
    phase: the per-epoch validation pass, which train.validate_ms reports as
    a whole and the per-step layer metrics leave out.
    """
    covered: dict[int, int] = defaultdict(int)
    name_of: dict[int, str] = {}
    for sid, parent, name, _ph, t0, t1, _w in spans:
        name_of[sid] = name
        if name not in TRANSPARENT:
            covered[parent] += t1 - t0
    below_predict: dict[int, bool] = {0: False}
    sums: dict[tuple[str, str, bool], _Sums] = defaultdict(_Sums)
    for sid, parent, name, phase, t0, t1, work in sorted(spans):
        inside = below_predict.get(parent, False) or name_of.get(parent) == "model.predict"
        below_predict[sid] = inside
        s = sums[(phase, name, inside and phase.startswith("train."))]
        s.count += 1
        s.dur += t1 - t0
        s.self += t1 - t0 - covered.get(sid, 0)
        s.work += work
    return sums


def per_layer_metrics(
    spans: list[tuple], rounds: int, counts: dict[str, float], overhead_pct: float
) -> dict[str, float]:
    """Every metric of `per_layer_table()`.

    Train-phase times are ms per optimizer step of that topology (validation
    and snapshots amortized over the steps); score-phase times are ms per
    scoring round; data and checkpoint times are ms per call.
    """
    sums = aggregate(spans)

    def get(phase: str, name: str, validation: bool = False) -> _Sums:
        return sums.get((phase, name, validation), _Sums())

    def ms(ns: float, per: float) -> float:
        return ns / 1e6 / per if per else 0.0

    out: dict[str, float] = {}
    for t in TOPOLOGIES:
        ph = f"train.{t}"
        steps = get(ph, "train.adam_step").count
        train_span = get(ph, "train.train")
        validate = get(ph, "model.predict").dur + get(ph, "evaluate.auc").dur
        fwd, bwd = get(ph, "model.forward"), get(ph, "model.backward")
        aff_f, aff_b = get(ph, "numeric.affine.fwd"), get(ph, "numeric.affine.bwd")
        out.update({
            f"train.step_ms.{t}": ms(train_span.dur, steps),
            f"train.loop_self_ms.{t}": ms(train_span.self, steps),
            f"train.adam_step_ms.{t}": ms(get(ph, "train.adam_step").dur, steps),
            f"numeric.zero_grads_ms.{t}": ms(get(ph, "numeric.zero_grads").dur, steps),
            f"numeric.snapshot_ms.{t}": ms(get(ph, "numeric.snapshot").dur, steps),
            f"train.validate_ms.{t}": ms(validate, steps),
            f"evaluate.auc_ms.{t}": ms(get(ph, "evaluate.auc").dur, steps),
            f"model.forward_ms.{t}": ms(fwd.dur, steps),
            f"model.forward_self_ms.{t}": ms(fwd.self, steps),
            f"model.backward_ms.{t}": ms(bwd.dur, steps),
            f"model.backward_self_ms.{t}": ms(bwd.self, steps),
            f"embedding.fwd_ms.{t}": ms(get(ph, "embedding.fwd").dur, steps),
            f"embedding.bwd_ms.{t}": ms(get(ph, "embedding.bwd").dur, steps),
            f"numeric.affine.fwd_ms.{t}": ms(aff_f.dur, steps),
            f"numeric.affine.bwd_ms.{t}": ms(aff_b.dur, steps),
            f"numeric.affine.gflop.{t}": (aff_f.work + aff_b.work) / 1e9 / steps if steps else 0.0,
            f"numeric.affine.gflop_per_s.{t}": _rate(aff_f.work + aff_b.work, aff_f.dur + aff_b.dur),
            f"train.steps.{t}": steps,
            f"train.examples.{t}": fwd.work,
            f"model.params.{t}": counts[f"model.params.{t}"],
        })
        if t in MASKED:
            for layer in ("layers.ln_emb", "layers.mask", "layers.mask_product", "layers.ffn_ln"):
                out[f"{layer}.fwd_ms.{t}"] = ms(get(ph, f"{layer}.fwd").dur, steps)
                out[f"{layer}.bwd_ms.{t}"] = ms(get(ph, f"{layer}.bwd").dur, steps)
            out[f"maskblock.fwd_self_ms.{t}"] = ms(get(ph, "maskblock.fwd").self, steps)
            out[f"maskblock.bwd_self_ms.{t}"] = ms(get(ph, "maskblock.bwd").self, steps)

    sc = "score"
    aff = get(sc, "numeric.affine.fwd")
    out.update({
        "model.predict_ms.score": ms(get(sc, "model.predict").dur, rounds),
        "model.forward_ms.score": ms(get(sc, "model.forward").dur, rounds),
        "model.forward_self_ms.score": ms(get(sc, "model.forward").self, rounds),
        "embedding.fwd_ms.score": ms(get(sc, "embedding.fwd").dur, rounds),
        "layers.ln_emb.fwd_ms.score": ms(get(sc, "layers.ln_emb.fwd").dur, rounds),
        "layers.mask.fwd_ms.score": ms(get(sc, "layers.mask.fwd").dur, rounds),
        "layers.mask_product.fwd_ms.score": ms(get(sc, "layers.mask_product.fwd").dur, rounds),
        "layers.ffn_ln.fwd_ms.score": ms(get(sc, "layers.ffn_ln.fwd").dur, rounds),
        "maskblock.fwd_self_ms.score": ms(get(sc, "maskblock.fwd").self, rounds),
        "numeric.affine.fwd_ms.score": ms(aff.dur, rounds),
        "numeric.affine.gflop.score": aff.work / 1e9 / rounds,
        "numeric.affine.gflop_per_s.score": _rate(aff.work, aff.dur),
    })

    per_call: dict[str, _Sums] = defaultdict(_Sums)
    for (_phase, name, _v), s in sums.items():
        per_call[name].count += s.count
        per_call[name].dur += s.dur
    for name in (
        "data.gen_synthetic",
        "data.dataset_to_csv",
        "data.build_manifest",
        "data.read_delimited",
        "data.build_schema_and_encode",
        "data.standardize_numerical",
        "model.save_checkpoint",
        "model.load_checkpoint",
    ):
        s = per_call[name]
        out[f"{name}_ms"] = ms(s.dur, s.count)
    out["data.rows"] = counts["data.rows"]
    out["data.oov_cells"] = counts["data.oov_cells"]
    out["trace.overhead_pct"] = overhead_pct
    return out


def _rate(flop: int, ns: int) -> float:
    """GFLOP/s; flop per ns is GFLOP per second."""
    return flop / ns if ns else 0.0
