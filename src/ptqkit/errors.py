"""Exception types shared across the toolkit.

Each class maps to one failure category so the CLI can translate them
into distinct exit codes.
"""


class ShapeError(ValueError):
    """Operand dimensions do not chain."""


class TrainingDivergenceError(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, loss):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"training diverged at epoch {epoch} (loss={loss})")


class InsufficientDataError(ValueError):
    """A statistics cell has too few observations."""


class CalibrationCoverageError(ValueError):
    """A layer needs activation calibration but the set has no samples for it."""

    def __init__(self, layer: str):
        self.layer = layer
        super().__init__(f"calibration set has no activation samples for layer {layer!r}")


class DegenerateProfileError(RuntimeError):
    """Variance threshold fallback exhausted without any eligible cell."""


class ConfigError(ValueError):
    """Bad configuration file, key, or referenced path."""
