"""Command-line interface: data generation, training, gradient checking,
mask inspection, ablation grids, and hyper-parameter sweeps.

Run configuration is a flat key=value file with [data], [model], [train] and
[run] sections; every key has a default and unknown keys are errors.  Command
line flags override the file.  Exit codes: 0 success, 2 usage/config error,
3 undefined metric, 1 any other runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .data import (
    Dataset,
    SyntheticSpec,
    build_manifest,
    dataset_to_csv,
    gen_synthetic,
    ingest_csv,
    manifest_text,
    parse_column_spec,
    schema_spec_text,
    split_dataset,
    standardize_numerical,
)
from .errors import CheckpointError, ConfigError, IngestError, MaskNetError, MetricError, SchemaError, check_finite_fields
from .evaluate import check_baseline_auc, inspect_masks
from .experiments import ExperimentResult, run_ablation_grid, run_experiment
from .gradchecks import run_suite
from .maskblock import Ablation
from .model import TOPOLOGIES, ModelSpec, load_checkpoint, param_count, save_checkpoint
from .train import TrainConfig


_DELIMITERS = {"comma": ",", "tab": "\t"}


@dataclass
class DataConfig:
    source: str = "synthetic"  # synthetic | csv
    path: str = ""
    schema: str = ""
    delimiter: str = "comma"  # comma | tab
    standardize: bool = False
    fields: int = SyntheticSpec.fields
    vocab: int = SyntheticSpec.vocab
    latent_dim: int = SyntheticSpec.latent_dim
    instances: int = SyntheticSpec.instances
    logit_scale: float = SyntheticSpec.logit_scale
    seed: int = -1  # -1: inherit the run seed

    def __post_init__(self) -> None:
        check_finite_fields(self)
        if self.source not in ("synthetic", "csv"):
            raise ConfigError(f"unknown data source {self.source!r} (use synthetic or csv)")
        if self.delimiter not in _DELIMITERS:
            raise ConfigError(f"unknown delimiter {self.delimiter!r} (use comma or tab)")
        if self.seed < -1:
            raise ConfigError(f"[data] seed must be >= 0, or -1 to inherit the run seed, got {self.seed}")


@dataclass
class RunConfig:
    data: DataConfig
    model: ModelSpec
    train: TrainConfig
    seed: int = 1
    out_dir: str = "runs/out"


def _defaults(cls, *drop: str) -> dict[str, object]:
    return {f.name: f.default for f in fields(cls) if f.name not in drop and f.default is not MISSING}


# Every config key and its default, read off the dataclasses.  [model] spells
# block_widths as blocks x width and the ablation as a comma list; the seeds
# of the model and the optimizer come from [run].
_SECTIONS: dict[str, dict[str, object]] = {
    "data": _defaults(DataConfig),
    "model": _defaults(ModelSpec, "block_widths", "dnn_bias", "seed")
    | {"blocks": len(ModelSpec.block_widths), "width": ModelSpec.block_widths[0], "ablate": ""},
    "train": _defaults(TrainConfig, "seed"),
    "run": _defaults(RunConfig),
}


def _parse_value(text: str, default: object) -> object:
    """Parse by the type of the key's default: bool, tuple of ints, int, float or str."""
    if isinstance(default, bool):
        if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
            raise ValueError(f"expected a boolean, got {text!r}")
        return text.lower() in ("true", "1", "yes")
    if isinstance(default, tuple):
        return tuple(int(p) for p in text.split(",")) if text.strip() else ()
    return type(default)(text)


def _read_text(path: Path, error: type[MaskNetError]) -> str:
    """The text of an input file; bytes that do not decode raise `error`, the
    class of the file's other faults, naming the file."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None


def parse_config_file(path: str) -> dict[str, dict[str, str]]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(_read_text(p, ConfigError))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raw: dict[str, dict[str, str]] = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        for key, value in cp[section].items():
            if key not in _SECTIONS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            raw.setdefault(section, {})[key] = value
    return raw


def build_run_config(raw: dict[str, dict[str, str]]) -> RunConfig:
    v = {section: dict(keys) for section, keys in _SECTIONS.items()}
    for section, values in raw.items():
        for key, text in values.items():
            try:
                v[section][key] = _parse_value(text, _SECTIONS[section][key])
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    m, seed = v["model"], v["run"]["seed"]
    blocks, width, ablate = m.pop("blocks"), m.pop("width"), m.pop("ablate")
    ablation = Ablation.from_names(n.strip() for n in ablate.split(",") if n.strip())
    model = ModelSpec(block_widths=(width,) * blocks, ablation=ablation, seed=seed, **m)
    return RunConfig(DataConfig(**v["data"]), model, TrainConfig(seed=seed, **v["train"]), **v["run"])


# Flags of train, ablation and sweep: flag -> (section, key, extra argparse options).
# Each parses by the type of its key's default; its dest is argparse's ("--l2" -> l2).
_TRAIN_FLAGS: dict[str, tuple[str, str, dict]] = {
    "--topology": ("model", "topology", {"choices": TOPOLOGIES}),
    "--blocks": ("model", "blocks", {}),
    "--width": ("model", "width", {}),
    "--embedding-dim": ("model", "embed_dim", {}),
    "--reduction-ratio": ("model", "reduction", {}),
    "--ablate": ("model", "ablate", {"help": "comma list from {no_mask,no_ln,no_ffn}"}),
    "--epochs": ("train", "epochs", {}),
    "--batch-size": ("train", "batch_size", {}),
    "--learning-rate": ("train", "learning_rate", {}),
    "--l2": ("train", "l2", {}),
    "--seed": ("run", "seed", {}),
    "--out": ("run", "out_dir", {}),
}


def _run_config(args: argparse.Namespace, **model_keys: str) -> RunConfig:
    """Config of train, ablation and sweep: the file, then the flags, then sweep's [model] key."""
    raw = parse_config_file(args.config)
    for flag, (section, key, _) in _TRAIN_FLAGS.items():
        val = getattr(args, flag[2:].replace("-", "_"))
        if val is not None:
            raw.setdefault(section, {})[key] = str(val)
    raw.setdefault("model", {}).update(model_keys)
    return build_run_config(raw)


def load_splits(cfg: RunConfig) -> tuple[tuple[Dataset, Dataset, Dataset], Dataset | None]:
    """Materialize (train, valid, test) from the configured source, and the
    full synthetic dataset (None for csv)."""
    data_seed = cfg.data.seed if cfg.data.seed >= 0 else cfg.seed
    if cfg.data.source == "synthetic":
        spec = SyntheticSpec(**{f.name: getattr(cfg.data, f.name) for f in fields(SyntheticSpec)} | {"seed": data_seed})
        full = gen_synthetic(spec)
        return split_dataset(full, cfg.seed), full
    if not cfg.data.path or not cfg.data.schema:
        raise ConfigError("csv source needs both [data] path and [data] schema")
    data_path, schema_path = Path(cfg.data.path), Path(cfg.data.schema)
    for what, path in (("data", data_path), ("schema", schema_path)):
        if not path.is_file():
            raise ConfigError(f"{what} file not found: {path}")
    cols = parse_column_spec(_read_text(schema_path, SchemaError))
    text = _read_text(data_path, IngestError)
    _, train_ds, valid_ds, test_ds = ingest_csv(text, cols, cfg.seed, _DELIMITERS[cfg.data.delimiter])
    if cfg.data.standardize:
        train_ds, valid_ds, test_ds = standardize_numerical(train_ds, valid_ds, test_ds)
    return (train_ds, valid_ds, test_ds), None


def _check_out_dir(path: str | Path, files: tuple[str, ...] = ()) -> None:
    """Fail before any work if `path` cannot become a directory (its nearest
    existing ancestor must be one) or if a file to be written into it exists
    as anything but a file.  Creates nothing."""
    p = Path(path).absolute()
    nearest = next(q for q in (p, *p.parents) if q.exists())
    if not nearest.is_dir():
        raise ConfigError(f"output directory {path}: {nearest} is not a directory")
    for name in files:
        if (p / name).exists() and not (p / name).is_file():
            raise ConfigError(f"output file {Path(path) / name}: exists and is not a file")


def _out_dir(path: str | Path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: {exc.strerror}") from None
    return out


_RUN_FILES = ("checkpoint.ckpt", "history.csv", "eval_report.txt")


def _train_run(cfg: RunConfig, splits: tuple[Dataset, Dataset, Dataset], out: str, label: str,
               baseline: tuple[str, float] | None = None) -> tuple[ExperimentResult, list[str]]:
    """Train one model and write _RUN_FILES into `out`; returns the result
    and the report's lines."""
    t0 = time.time()
    model, result = run_experiment(cfg.model, splits, cfg.train, baseline=baseline)
    seconds = time.time() - t0

    run_dir = _out_dir(out)
    ckpt, history, report = (run_dir / name for name in _RUN_FILES)
    save_checkpoint(model, str(ckpt))
    history.write_text(result.history.to_csv())
    lines = [
        f"label={label}",
        f"topology={cfg.model.topology}",
        f"blocks={cfg.model.u}",
        f"params={param_count(model)}",
        f"seed={cfg.seed}",
        f"train_seconds={seconds:.1f}",
        f"best_epoch={result.history.best_epoch}",
    ]
    lines += ["valid." + ln for ln in result.valid.lines()]
    lines += ["test." + ln for ln in result.test.lines()]
    report.write_text("\n".join(lines) + "\n")
    return result, lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields(SyntheticSpec)})
    _check_out_dir(args.out, ("data.csv", "schema.txt", "manifest.txt"))
    full = gen_synthetic(spec)
    man = build_manifest(full, spec=spec, splits=split_dataset(full, args.seed), split_seed=args.seed)
    texts = {"data.csv": dataset_to_csv(full), "schema.txt": schema_spec_text(full.schema, with_logit=True),
             "manifest.txt": manifest_text(man)}  # all built before anything is written
    out = _out_dir(args.out)
    for name, text in texts.items():
        (out / name).write_text(text)
    print(f"wrote {full.n} instances to {out}/data.csv (positive rate {full.positive_rate:.4f})")
    print(f"manifest: bayes_auc_test={man.get('bayes_auc_test')} marginal_auc_test={man.get('marginal_auc_test')}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    baseline = None if args.baseline_auc is None else (args.baseline_name, check_baseline_auc(args.baseline_auc))
    _check_out_dir(cfg.out_dir, _RUN_FILES)
    splits, _ = load_splits(cfg)
    label = f"{cfg.model.topology}" + (f"[{','.join(cfg.model.ablation.names())}]" if cfg.model.ablation.names() else "")
    _, lines = _train_run(cfg, splits, cfg.out_dir, label, baseline)
    print("\n".join(lines))
    print(f"checkpoint: {Path(cfg.out_dir) / 'checkpoint.ckpt'}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    t0 = time.time()
    reports = run_suite(seed=args.seed)
    for rep in reports:
        print(rep.line())
        if not rep.passed:
            for line in rep.group_lines():
                print(line)
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} gradient checks passed in {time.time() - t0:.1f}s")
    return 1 if failed else 0


def cmd_inspect_mask(args: argparse.Namespace) -> int:
    if not Path(args.checkpoint).is_file():
        raise ConfigError(f"checkpoint file not found: {args.checkpoint}")
    _check_out_dir(args.out)
    model = load_checkpoint(args.checkpoint)
    if not model.has_mask_units:
        raise CheckpointError(
            f"checkpoint topology {model.spec.topology!r} "
            f"(ablation={model.spec.ablation.names()}) has no mask units to inspect"
        )
    hist_files = tuple(f"mask_hist_block{b}.txt" for b in range(1, model.spec.u + 1))
    _check_out_dir(args.out, (*hist_files, "mask_examples.txt"))
    cfg = build_run_config(parse_config_file(args.config))
    splits, full = load_splits(cfg)
    by_name = {"train": splits[0], "valid": splits[1], "test": splits[2], "full": full}
    ds = by_name.get(args.split)
    if ds is None:
        raise ConfigError(f"split {args.split!r} unavailable for this data source")
    if ds.schema != model.schema:
        raise CheckpointError("checkpoint schema does not match the configured data source")
    insp = inspect_masks(model, ds, sample_size=args.sample, n_examples=args.examples, seed=cfg.seed)
    out = _out_dir(args.out)
    for name, hist in zip(hist_files, insp.histograms):
        (out / name).write_text(hist.text())
    (out / "mask_examples.txt").write_text(insp.examples_text())
    print(f"wrote {len(insp.histograms)} histograms and {len(insp.example_indices)} example masks to {out}")
    return 0


def cmd_ablation(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    _check_out_dir(cfg.out_dir, ("ablation_report.txt", "ablation_detail.txt"))
    splits, _ = load_splits(cfg)
    results, table = run_ablation_grid(splits, cfg.model, cfg.train)
    out = _out_dir(cfg.out_dir)
    (out / "ablation_report.txt").write_text(table)
    detail = [
        f"{topo}.{variant}: test_auc={res.test.auc:.6f} valid_auc={res.valid.auc:.6f}"
        for (topo, variant), res in results.items()
    ]
    (out / "ablation_detail.txt").write_text("\n".join(detail) + "\n")
    print(table, end="")
    return 0


_SWEEP_PARAMS = {"blocks": "blocks", "embed-dim": "embed_dim", "reduction": "reduction"}


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in _SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {args.param!r} (use {sorted(_SWEEP_PARAMS)})")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    # every value is checked before the first run trains; a value changes
    # only a [model] key, so every run shares the first one's data
    runs = [(v, _run_config(args, **{_SWEEP_PARAMS[args.param]: v})) for v in values]
    if len({cfg.model for _, cfg in runs}) < len(runs):
        raise ConfigError(f"sweep values repeat a value of {args.param}: {','.join(values)}")
    base_out = Path(runs[0][1].out_dir)
    for v, _ in runs:
        _check_out_dir(base_out / f"sweep_{args.param}_{v}", _RUN_FILES)
    _check_out_dir(base_out, (f"sweep_{args.param}_summary.txt",))
    splits, _ = load_splits(runs[0][1])
    summary = []
    for v, cfg in runs:
        result, _ = _train_run(cfg, splits, str(base_out / f"sweep_{args.param}_{v}"), f"{args.param}={v}")
        summary.append(f"{args.param}={v}: test_auc={result.test.auc:.6f}")
        print(summary[-1])
    (_out_dir(base_out) / f"sweep_{args.param}_summary.txt").write_text("\n".join(summary) + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="masknet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="generate the synthetic multiplicative-interaction dataset")
    g.add_argument("--out", default="data/synth")
    for f in fields(SyntheticSpec):  # --fields --vocab --latent-dim --instances --scale --seed
        flag = "--scale" if f.name == "logit_scale" else "--" + f.name.replace("_", "-")
        g.add_argument(flag, type=type(f.default), default=f.default, dest=f.name)
    g.set_defaults(func=cmd_gen_synth)

    def add_train_flags(p):
        p.add_argument("--config", required=True, help="run config file (key=value sections)")
        for flag, (section, key, options) in _TRAIN_FLAGS.items():
            p.add_argument(flag, type=type(_SECTIONS[section][key]), **options)

    t = sub.add_parser("train", help="train one model and write checkpoint/history/report")
    add_train_flags(t)
    t.add_argument("--baseline-auc", type=float, dest="baseline_auc")
    t.add_argument("--baseline-name", default="baseline", dest="baseline_name")
    t.set_defaults(func=cmd_train)

    c = sub.add_parser("gradcheck", help="finite-difference check of every layer and topology")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_gradcheck)

    i = sub.add_parser("inspect-mask", help="dump per-block mask histograms and example vectors")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--config", required=True)
    i.add_argument("--split", default="test", choices=("train", "valid", "test", "full"))
    i.add_argument("--sample", type=int, default=10_000)
    i.add_argument("--examples", type=int, default=2)
    i.add_argument("--out", default="runs/inspect")
    i.set_defaults(func=cmd_inspect_mask)

    a = sub.add_parser("ablation", help="train full + single-component-removed variants of both topologies")
    add_train_flags(a)
    a.set_defaults(func=cmd_ablation)

    s = sub.add_parser("sweep", help="rerun training over a list of values for one hyper-parameter")
    add_train_flags(s)
    s.add_argument("--param", required=True, help="blocks | embed-dim | reduction")
    s.add_argument("--values", required=True, help="comma-separated values")
    s.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MaskNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, MetricError) else 1


if __name__ == "__main__":
    sys.exit(main())
