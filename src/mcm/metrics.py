"""Accuracy and macro-averaged precision/recall/F1 over a confusion matrix.

Macro averages divide by the total number of defined classes, not just the
classes that happen to appear, and zero denominators score 0: a model that
never predicts a rare class pays for it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def zero_division_policy(tp: int, fp: int, fn: int):
    """Per-class (precision, recall, f1) with 0 wherever undefined."""
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be nonnegative")
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


@dataclass
class EvalReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class_precision: np.ndarray
    per_class_recall: np.ndarray
    per_class_f1: np.ndarray
    confusion: np.ndarray  # (C, C) ints, rows true, columns predicted

    def to_text(self) -> str:
        lines = [
            f"accuracy {self.accuracy:.6f}",
            f"macro_precision {self.macro_precision:.6f}",
            f"macro_recall {self.macro_recall:.6f}",
            f"macro_f1 {self.macro_f1:.6f}",
        ]
        return "\n".join(lines)


def confusion_matrix(true_labels, predicted_labels, num_classes: int) -> np.ndarray:
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError("label sequences must be flat and of equal length")
    if t.size == 0:
        raise ValueError("cannot evaluate zero records")
    if t.min() < 0 or p.min() < 0 or t.max() >= num_classes or p.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return counts


def evaluate(true_labels, predicted_labels, num_classes: int) -> EvalReport:
    """Accuracy plus macro precision/recall/F1 from per-class rates.

    The macro F1 averages per-class F1 values (it is not the F1 of the
    macro precision and recall).
    """
    counts = confusion_matrix(true_labels, predicted_labels, num_classes)
    tp = np.diag(counts)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    per = np.array([zero_division_policy(tp[i], fp[i], fn[i]) for i in range(num_classes)])
    return EvalReport(
        accuracy=float(tp.sum() / counts.sum()),
        macro_precision=float(per[:, 0].mean()),
        macro_recall=float(per[:, 1].mean()),
        macro_f1=float(per[:, 2].mean()),
        per_class_precision=per[:, 0],
        per_class_recall=per[:, 1],
        per_class_f1=per[:, 2],
        confusion=counts,
    )
