"""MaskNet benchmark: training, scoring and ingest, end to end or per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 25 --trace 0

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 repeats
the run's work with every layer wrapped and prints the per-layer metrics
instead, with the tracing overhead.  Every output is checked; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every check passed.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: the process is the only
# load generator, and a second pool thread would fight it for the two cores.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_ex_per_s.serial", "ex/s", "higher"),
    ("train_ex_per_s.parallel", "ex/s", "higher"),
    ("train_ex_per_s.dnn", "ex/s", "higher"),
    ("test_auc.serial", "auc", "higher"),
    ("test_auc.parallel", "auc", "higher"),
    ("test_auc.dnn", "auc", "higher"),
    ("predict_rows_per_s", "rows/s", "higher"),
    ("predict_b64_p50_us", "us", "lower"),
    ("predict_b64_p90_us", "us", "lower"),
    ("predict_b1_p50_us", "us", "lower"),
    ("gen_rows_per_s", "rows/s", "higher"),
    ("ingest_rows_per_s", "rows/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train-desk", "train-wide", "score-csv"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time box for the scoring rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's sizes")
    return p.parse_args(argv)


def environment(args) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "cpus": os.cpu_count(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "masknet" / "__init__.py").is_file():
        print(f"error: no masknet package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import checks
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    size = wl.sizes[args.size]
    print("# env " + json.dumps(environment(args)), flush=True)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=OUT))
    failures: list[str] = []
    try:
        res = workloads.run_pass(wl, size, args.seed, args.seconds, workdir)
        print(f"# phases {json.dumps(res.phase_s)} scoring rounds {res.scoring.rounds}", file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks.check_generated(res, failures)
        oov = checks.check_ingest(res, args.seed, failures)
        test_auc = checks.check_models(res, size, args.seed, failures)
        checks.check_scoring(res, failures)
        attempted, failed = res.attempted, res.scoring.failed

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = workloads.run_pass(
                    wl, size, args.seed, args.seconds, workdir, tracer=tracer, rounds=res.scoring.rounds
                )
            finally:
                tracer.uninstall()
            checks.check_same_outputs(res, traced, failures)
            attempted += traced.attempted
            failed += traced.scoring.failed
            counts = {f"model.params.{t}": res.trained[t].model.store.size() for t in workloads.TOPOLOGIES}
            counts["data.rows"] = res.gen.full.n
            counts["data.oov_cells"] = oov
            overhead_pct = 100.0 * (traced.measured_s - res.measured_s) / res.measured_s
            metrics = tracing.per_layer_metrics(tracer.spans, traced.scoring.rounds, counts, overhead_pct)
            table = tracing.per_layer_table()
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz")
        else:
            metrics = workloads.end_to_end(res, test_auc, peak_rss_mb)
            table = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in failures:
        print(f"# CHECK FAILED: {msg}", flush=True)
    for name, unit, better in table:
        print(f"# metric {name} {metrics[name]!r} {unit} {better}")
    if not args.trace:
        print(f"# info predict_b64_p99_us {metrics['predict_b64_p99_us']!r} us lower")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
