"""MaskNet-style CTR ranking models with from-scratch training and evaluation.

Instance-guided masks inject input-dependent multiplicative interactions into
an otherwise additive feed-forward network; MaskBlocks combine them with layer
normalization and a feed-forward layer, and can be stacked serially or placed
in parallel over a shared feature embedding.
"""

from .data import Dataset, FeatureSchema, Field, SyntheticSpec, gen_synthetic, split_dataset
from .evaluate import EvalReport, auc, evaluate_model, inspect_masks, logloss, relaimp
from .maskblock import Ablation
from .model import Model, ModelSpec, load_checkpoint, param_count, save_checkpoint
from .numeric import GradcheckReport, ParamStore, gradcheck, make_rng
from .train import History, TrainConfig

__all__ = [
    "Ablation",
    "Dataset",
    "EvalReport",
    "FeatureSchema",
    "Field",
    "GradcheckReport",
    "History",
    "Model",
    "ModelSpec",
    "ParamStore",
    "SyntheticSpec",
    "TrainConfig",
    "auc",
    "evaluate_model",
    "gen_synthetic",
    "gradcheck",
    "inspect_masks",
    "load_checkpoint",
    "logloss",
    "make_rng",
    "param_count",
    "relaimp",
    "save_checkpoint",
    "split_dataset",
]

__version__ = "0.1.0"
