"""Exception types shared across the package.

The CLI maps these onto distinct exit codes: configuration/usage problems
exit 2, undefined metrics exit 3, everything else exits 1.
"""

import math
from dataclasses import fields


class MaskNetError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(MaskNetError):
    """Operand shapes do not agree for a dense operation."""


class SchemaError(MaskNetError):
    """Feature schema is invalid or a row violates it (e.g. non-binary label)."""


class IngestError(MaskNetError):
    """Malformed input row or file; message carries the row number."""


class ConfigError(MaskNetError):
    """Bad run configuration: unknown key, bad value, missing file."""


class MetricError(MaskNetError):
    """Metric undefined for the given inputs (single-class AUC, base <= 0.5)."""


class CheckpointError(MaskNetError):
    """Checkpoint file is malformed or does not match the model."""


class TrainingError(MaskNetError):
    """Training aborted (non-finite loss); message names the batch."""


def check_finite_fields(config) -> None:
    """Raise ConfigError naming the first float field of a dataclass that is nan or inf."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
