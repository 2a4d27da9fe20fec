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
    history: History
    valid: EvalReport
    test: EvalReport


def run_experiment(
    spec: ModelSpec,
    splits: tuple[Dataset, Dataset, Dataset],
    cfg: TrainConfig,
    baseline: tuple[str, float] | None = None,
) -> tuple[Model, ExperimentResult]:
    train_ds, valid_ds, test_ds = splits
    model = Model(spec, train_ds.schema)
    history = train(model, train_ds, valid_ds, cfg)
    result = ExperimentResult(
        history=history,
        valid=evaluate_model(model, valid_ds),
        test=evaluate_model(model, test_ds, baseline),
    )
    return model, result


def run_ablation_grid(
    splits: tuple[Dataset, Dataset, Dataset],
    base: ModelSpec,
    cfg: TrainConfig,
) -> tuple[dict[tuple[str, str], ExperimentResult], str]:
    """Train full + one-component-removed variants of both MaskNet topologies.

    Returns results keyed by (topology, variant) and a table of test AUCs with
    variants as rows and topologies as columns.
    """
    results: dict[tuple[str, str], ExperimentResult] = {}
    for topology in ("serial", "parallel"):
        for variant in ABLATION_VARIANTS:
            spec = replace(base, topology=topology, ablation=Ablation.from_names([] if variant == "full" else [variant]))
            _, results[(topology, variant)] = run_experiment(spec, splits, cfg)
    return results, ablation_table(results)


def ablation_table(results: dict[tuple[str, str], ExperimentResult]) -> str:
    topos = ("serial", "parallel")
    lines = [f"{'variant':<12}" + "".join(f"{t:>12}" for t in topos)]
    for variant in ABLATION_VARIANTS:
        row = "full" if variant == "full" else f"-w/o {variant[3:]}"
        lines.append(f"{row:<12}" + "".join(f"{results[(t, variant)].test.auc:>12.4f}" for t in topos))
    return "\n".join(lines) + "\n"
