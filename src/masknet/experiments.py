"""End-to-end experiment harness: single runs, ablation grids, sweeps."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .data import Dataset
from .evaluate import EvalReport, evaluate_model
from .maskblock import Ablation
from .model import Model, ModelSpec
from .train import History, TrainConfig, train

ABLATION_VARIANTS = ("full", "no_mask", "no_ln", "no_ffn")


@dataclass
class ExperimentResult:
    label: str
    spec: ModelSpec
    history: History
    valid: EvalReport
    test: EvalReport


def run_experiment(
    spec: ModelSpec,
    splits: tuple[Dataset, Dataset, Dataset],
    cfg: TrainConfig,
    label: str = "",
    baseline: tuple[str, float] | None = None,
) -> tuple[Model, ExperimentResult]:
    train_ds, valid_ds, test_ds = splits
    model = Model(spec, train_ds.schema)
    history = train(model, train_ds, valid_ds, cfg)
    result = ExperimentResult(
        label=label or spec.topology,
        spec=spec,
        history=history,
        valid=evaluate_model(model, valid_ds),
        test=evaluate_model(model, test_ds, baseline),
    )
    return model, result


def ablation_spec(base: ModelSpec, variant: str) -> ModelSpec:
    if variant == "full":
        return replace(base, ablation=Ablation())
    return replace(base, ablation=Ablation.from_names([variant]))


def run_ablation_grid(
    splits: tuple[Dataset, Dataset, Dataset],
    serial_base: ModelSpec,
    parallel_base: ModelSpec,
    cfg: TrainConfig,
) -> tuple[dict[tuple[str, str], ExperimentResult], str]:
    """Train full + one-component-removed variants of both MaskNet topologies.

    Returns results keyed by (topology, variant) and a table of test AUCs with
    variants as rows and topologies as columns.
    """
    results: dict[tuple[str, str], ExperimentResult] = {}
    for base in (serial_base, parallel_base):
        for variant in ABLATION_VARIANTS:
            spec = ablation_spec(base, variant)
            _, res = run_experiment(spec, splits, cfg, label=f"{base.topology}/{variant}")
            results[(base.topology, variant)] = res
    return results, ablation_table(results)


def ablation_table(results: dict[tuple[str, str], ExperimentResult]) -> str:
    topos = ("serial", "parallel")
    lines = [f"{'variant':<12}" + "".join(f"{t:>12}" for t in topos)]
    for variant in ABLATION_VARIANTS:
        row = "full" if variant == "full" else f"-w/o {variant[3:]}"
        cells = "".join(
            f"{results[(t, variant)].test.auc:>12.4f}" if (t, variant) in results else f"{'-':>12}"
            for t in topos
        )
        lines.append(f"{row:<12}" + cells)
    return "\n".join(lines) + "\n"
