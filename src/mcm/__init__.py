"""Multi-cascaded bilingual short-text classifier, self-contained:
its own reverse-mode autodiff core, layers, embeddings, data pipeline,
metrics, trainer, and CLI."""

from .tensor import Tape, Tensor, backward
from .model import McmConfig, McmModel, build_mcm, loss
from .trainer import TrainConfig, fit, load_checkpoint, save_checkpoint

__all__ = [
    "Tape", "Tensor", "backward",
    "McmConfig", "McmModel", "build_mcm", "loss",
    "TrainConfig", "fit", "load_checkpoint", "save_checkpoint",
]

__version__ = "0.1.0"
