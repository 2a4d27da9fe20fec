"""The three benchmark workloads, run against the package's public functions.

Every workload runs the same pipeline, at its own sizes:

  gen      gen_synthetic (+ the benchmark's numerical columns) -> split ->
           dataset_to_csv -> schema_spec_text -> build_manifest   (the gen-synth path)
  ingest   parse_column_spec -> ingest_csv -> standardize_numerical
  train    train() calls for serial, parallel and dnn models, in the workload's order
  ckpt     save_checkpoint / load_checkpoint of the serial model
  score    rounds of: one bulk predict pass at batch 4096, a stream of 64-row
           requests and a stream of 1-row requests, all with the loaded model

Which of these is "set-up" depends on the workload: the data generation on
the train workloads, the training and checkpoint round trip on score-csv.
The program is called through module attributes looked up at call time, so
that the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import masknet  # noqa: F401  (registers the submodules below)
from masknet.errors import MaskNetError

mdata = importlib.import_module("masknet.data")
mmodel = importlib.import_module("masknet.model")
mtrain = importlib.import_module("masknet.train")  # the package re-exports the function `train`
mevaluate = importlib.import_module("masknet.evaluate")

TOPOLOGIES = ("serial", "parallel", "dnn")
BULK_BATCH = 4096
LEARNING_RATE = 5e-3  # the acceptance budget's, at every size


@dataclass(frozen=True)
class Size:
    rows: int
    vocab: int
    widths: tuple[int, ...]
    top_widths: tuple[int, ...]
    batch_size: int
    epochs: int
    requests64: int  # 64-row requests per scoring round
    requests1: int  # 1-row requests per scoring round
    reps: int  # gen and ingest repetitions per pass
    min_rounds: int  # scoring rounds every run makes, time left or not
    auc_floor: float | None  # every test AUC must exceed this; None: not checked at this size


@dataclass(frozen=True)
class Workload:
    """A train workload (set-up is data generation; the test split is
    bulk-scored) or the CSV-scoring one (the CSV gets the benchmark's own
    numerical columns; set-up is training and the checkpoint round trip;
    every CSV row is bulk-scored)."""

    name: str
    csv_scoring: bool
    sizes: dict[str, Size] = field(default_factory=dict)

    @property
    def train_plan(self) -> tuple[str, ...]:
        """train() calls in order; on train-*, dnn, the shortest, is repeated
        so that the short measurements between calls spread over the run."""
        return TOPOLOGIES * 3 if self.csv_scoring else ("dnn", "serial", "dnn", "parallel", "dnn")


DESK = (64, 64, 64)
WIDE = (400, 400, 400)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-desk",
            csv_scoring=False,
            sizes={
                "full": Size(60_000, 50, DESK, (64, 64), 128, 5, 300, 1000, 5, 10, 0.7),
                "tiny": Size(3_000, 20, (8, 8), (8,), 128, 1, 10, 10, 5, 1, None),
            },
        ),
        Workload(
            "train-wide",
            csv_scoring=False,
            sizes={
                "full": Size(30_000, 4, WIDE, WIDE, 1024, 1, 100, 100, 9, 10, 0.75),
                "tiny": Size(2_000, 4, (32, 32), (32,), 256, 1, 10, 10, 5, 1, None),
            },
        ),
        Workload(
            "score-csv",
            csv_scoring=True,
            sizes={
                "full": Size(20_000, 10_000, DESK, (64, 64), 512, 1, 300, 1000, 5, 10, 0.65),
                "tiny": Size(2_000, 1_000, (8, 8), (8,), 256, 1, 10, 10, 5, 1, None),
            },
        ),
    )
}


def _phase(tracer, label: str) -> None:
    if tracer is not None:
        tracer.phase = label


@dataclass
class Generated:
    full: object
    csv_text: str
    schema_text: str
    manifest: dict


def generate(size: Size, numeric: bool, seed: int) -> Generated:
    """The gen-synth path, in memory."""
    spec = mdata.SyntheticSpec(fields=8, vocab=size.vocab, instances=size.rows, seed=seed)
    full = mdata.gen_synthetic(spec)
    if numeric:
        full = with_numerical_columns(full, seed)
    splits = mdata.split_dataset(full, seed)
    csv_text = mdata.dataset_to_csv(full)
    schema_text = mdata.schema_spec_text(full.schema, with_logit=True)
    manifest = mdata.build_manifest(full, spec=spec, splits=splits, split_seed=seed)
    return Generated(full, csv_text, schema_text, manifest)


def with_numerical_columns(full, seed: int):
    """Append two finite numerical columns: the true logit plus unit-SNR
    Gaussian noise (an informative dense feature, which the brief score-csv
    training can learn) and a uniform column on [0, 100) that carries nothing."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 901])))
    noisy = full.logits + rng.normal(0.0, float(full.logits.std()), size=full.n)
    flat = rng.uniform(0.0, 100.0, size=full.n)
    fields = full.schema.fields + (mdata.Field("x_score", mdata.NUMERICAL), mdata.Field("x_flat", mdata.NUMERICAL))
    return replace(full, schema=mdata.FeatureSchema(fields), num=np.column_stack([noisy, flat]))


def ingest(gen: Generated, seed: int):
    cols = mdata.parse_column_spec(gen.schema_text)
    schema, tr, va, te = mdata.ingest_csv(gen.csv_text, cols, seed)
    tr, va, te = mdata.standardize_numerical(tr, va, te)
    return schema, tr, va, te


@dataclass
class Trained:
    model: object
    history: object
    seconds: float
    examples: int


def train_one(topo: str, size: Size, schema, tr, va, seed: int, tracer) -> Trained:
    spec = mmodel.ModelSpec(topology=topo, block_widths=size.widths, top_widths=size.top_widths, seed=seed)
    model = mmodel.Model(spec, schema)
    cfg = mtrain.TrainConfig(
        batch_size=size.batch_size,
        learning_rate=LEARNING_RATE,
        epochs=size.epochs,
        patience=size.epochs,
        seed=seed,
    )
    _phase(tracer, f"train.{topo}")
    t0 = time.perf_counter()
    hist = mtrain.train(model, tr, va, cfg)
    seconds = time.perf_counter() - t0
    return Trained(model, hist, seconds, len(hist.rows) * tr.n)


def checkpoint_round_trip(model, workdir: Path):
    path = workdir / "serial.ckpt"
    mmodel.save_checkpoint(model, str(path))
    loaded = mmodel.load_checkpoint(str(path))
    path.unlink()
    return loaded


def request_rows(n_test: int, size: Size, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Test-split row ids of the 64-row and 1-row requests, fixed per seed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 902])))
    return rng.integers(0, n_test, size=(size.requests64, 64)), rng.integers(0, n_test, size=(size.requests1, 1))


@dataclass
class Scoring:
    """Scoring rounds of one pass: the same bulk pass and requests each round."""

    bulk_sets: tuple
    req64: list[tuple[np.ndarray, np.ndarray]]
    req1: list[tuple[np.ndarray, np.ndarray]]
    rounds: int = 0
    seconds: float = 0.0
    bulk_rows_per_s: list[float] = field(default_factory=list)
    lat64_ns: list[list[int]] = field(default_factory=list)  # per round
    lat1_ns: list[list[int]] = field(default_factory=list)  # per round
    bulk_preds: list[np.ndarray] = field(default_factory=list)  # first round, per bulk set
    out64: list[np.ndarray | None] = field(default_factory=list)  # first round
    out1: list[np.ndarray | None] = field(default_factory=list)  # first round
    mismatched_rounds: int = 0  # later rounds whose outputs differ from the first
    attempted: int = 0
    failed: int = 0

    def round(self, model) -> float:
        """One round; returns its wall time in seconds."""
        clock = time.perf_counter_ns
        t_round = clock()
        preds = [model.predict(ds, batch_size=BULK_BATCH) for ds in self.bulk_sets]
        bulk_ns = clock() - t_round
        self.attempted += 1
        self.bulk_rows_per_s.append(sum(ds.n for ds in self.bulk_sets) / (bulk_ns / 1e9))
        outs64, outs1 = [], []
        self.lat64_ns.append([])
        self.lat1_ns.append([])
        for reqs, lat, outs in ((self.req64, self.lat64_ns[-1], outs64), (self.req1, self.lat1_ns[-1], outs1)):
            for cat, num in reqs:
                self.attempted += 1
                t0 = clock()
                try:
                    probs, _ = model.forward(cat, num)
                except MaskNetError:
                    self.failed += 1
                    outs.append(None)
                    continue
                lat.append(clock() - t0)
                outs.append(probs)
        if self.rounds == 0:
            self.bulk_preds, self.out64, self.out1 = preds, outs64, outs1
        elif not (_same(preds, self.bulk_preds) and _same(outs64, self.out64) and _same(outs1, self.out1)):
            self.mismatched_rounds += 1
        self.rounds += 1
        seconds = (clock() - t_round) / 1e9
        self.seconds += seconds
        return seconds


def _same(a: list, b: list) -> bool:
    return all((x is None and y is None) or (x is not None and y is not None and np.array_equal(x, y)) for x, y in zip(a, b))


@dataclass
class PassResult:
    """Everything one pass over a workload measured and produced."""

    gen_s: list[float]
    ingest_s: list[float]
    setup_s: list[float]
    train_s: dict[str, list[float]]
    examples: dict[str, int]
    gen: Generated
    splits: tuple
    schema: object
    trained: dict[str, Trained]  # the last model trained of each topology
    scoring: Scoring
    request_rows: tuple[np.ndarray, np.ndarray]
    measured_s: float  # wall time of the whole pass
    phase_s: dict[str, float]  # wall time per phase, for the run's log
    attempted: int


def run_pass(wl: Workload, size: Size, seed: int, seconds: float, workdir: Path, tracer=None, rounds=None) -> PassResult:
    """One pass over the workload.

    The first gen and ingest come first; the train() calls follow in the
    workload's order.  The other gen and ingest repetitions and the minimum
    scoring rounds are spread between the train() calls, and alternate
    within each gap, so that each short measurement samples the whole run
    and not one stretch of it: the reference box's CPU speed switches
    between states some tens of percent apart every few seconds.
    Extra scoring rounds follow while one more ends within `seconds` of the
    start; `rounds` fixes the total instead (the traced pass repeats the
    untraced pass's work exactly).
    """
    start = time.perf_counter()
    gen_s: list[float] = []
    ingest_s: list[float] = []

    def timed(times: list[float], phase: str, fn, *args):
        _phase(tracer, phase)
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
        return out

    gen = timed(gen_s, "gen", generate, size, wl.csv_scoring, seed)
    schema, tr, va, te = timed(ingest_s, "ingest", ingest, gen, seed)
    fillers = [(gen_s, "gen", generate, size, wl.csv_scoring, seed), (ingest_s, "ingest", ingest, gen, seed)] * (size.reps - 1)

    rows64, rows1 = request_rows(te.n, size, seed)
    sc = Scoring(
        bulk_sets=(tr, va, te) if wl.csv_scoring else (te,),
        req64=[(te.cat[r], te.num[r]) for r in rows64],
        req1=[(te.cat[r], te.num[r]) for r in rows1],
    )
    train_s: dict[str, list[float]] = {t: [] for t in TOPOLOGIES}
    ckpt_s: list[float] = []
    trained: dict[str, Trained] = {}
    loaded = None
    for i, topo in enumerate(wl.train_plan):
        trained[topo] = train_one(topo, size, schema, tr, va, seed, tracer)
        train_s[topo].append(trained[topo].seconds)
        if topo == "serial":
            loaded = timed(ckpt_s, "checkpoint", checkpoint_round_trip, trained[topo].model, workdir)
        left = len(wl.train_plan) - i
        n_fill = -(-len(fillers) // left)
        n_rounds = -(-max(0, size.min_rounds - sc.rounds) // left) if loaded is not None else 0
        for k in range(max(n_fill, n_rounds)):
            if k < n_fill:
                timed(*fillers.pop(0))
            if k < n_rounds:
                _phase(tracer, "score")
                sc.round(loaded)

    _phase(tracer, "score")
    if rounds is not None:
        while sc.rounds < rounds:
            sc.round(loaded)
    else:
        while time.perf_counter() + sc.seconds / sc.rounds <= start + seconds:
            sc.round(loaded)
    _phase(tracer, "")

    if wl.csv_scoring:  # one set-up is one train() per topology and the checkpoint round trip
        setup_s = [sum(train_s[t][r] for t in TOPOLOGIES) + ckpt_s[r] for r in range(len(ckpt_s))]
    else:
        setup_s = gen_s
    phase_s = {
        "gen": sum(gen_s),
        "ingest": sum(ingest_s),
        "train": sum(sum(v) for v in train_s.values()),
        "ckpt": sum(ckpt_s),
        "score": sc.seconds,
        "total": time.perf_counter() - start,
    }
    return PassResult(
        gen_s=gen_s,
        ingest_s=ingest_s,
        setup_s=setup_s,
        train_s=train_s,
        examples={t: trained[t].examples for t in TOPOLOGIES},
        gen=gen,
        splits=(tr, va, te),
        schema=schema,
        trained=trained,
        scoring=sc,
        request_rows=(rows64, rows1),
        measured_s=phase_s["total"],
        phase_s=phase_s,
        attempted=len(gen_s) + len(ingest_s) + sum(map(len, train_s.values())) + len(ckpt_s) + sc.attempted,
    )


def central_mean(samples: list[float]) -> float:
    """Mean of the samples left once the lowest and the highest fifth (at
    least one each, from three samples on) are dropped.

    The reference box's CPU speed switches between a fast and a slow state
    that last seconds: a 1-row forward reads about 200 us in one and 370 us
    in the other.  A median of samples taken across a run then jumps to
    whichever state held more than half the run, while this mean moves in
    proportion to the share of each; dropping the tails keeps one stalled
    sample from moving it."""
    v = sorted(samples)
    k = max(1, len(v) // 5) if len(v) >= 3 else 0
    return statistics.fmean(v[k : len(v) - k])


def _percentile(lat_ns: list[int], p: int) -> float:
    return statistics.quantiles(lat_ns, n=100, method="inclusive")[p - 1]


def end_to_end(res: PassResult, test_auc: dict[str, float], peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass.  Each timing metric is
    the central mean of its samples; a latency percentile is taken per
    scoring round, then averaged over the rounds."""
    sc = res.scoring
    rows = res.gen.full.n
    out = {"setup_s": central_mean(res.setup_s)}
    for t in TOPOLOGIES:
        out[f"train_ex_per_s.{t}"] = res.examples[t] / central_mean(res.train_s[t])
    for t in TOPOLOGIES:
        out[f"test_auc.{t}"] = test_auc[t]
    out["predict_rows_per_s"] = central_mean(sc.bulk_rows_per_s)
    for name, lat, p in (
        ("predict_b64_p50_us", sc.lat64_ns, 50),
        ("predict_b64_p90_us", sc.lat64_ns, 90),
        ("predict_b64_p99_us", sc.lat64_ns, 99),
        ("predict_b1_p50_us", sc.lat1_ns, 50),
    ):
        out[name] = central_mean([_percentile(r, p) for r in lat]) / 1e3
    out["gen_rows_per_s"] = rows / central_mean(res.gen_s)
    out["ingest_rows_per_s"] = rows / central_mean(res.ingest_s)
    out["peak_rss_mb"] = peak_rss_mb
    return out
