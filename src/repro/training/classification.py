"""Classification training (the recipe of paper Sec. 5.2, scaled down).

The paper trains with SGD + CosineAnnealing, initial learning rate 0.1,
200 epochs, batch 256/128.  The loop lives in the unified training engine
(:class:`repro.engine.ClassificationAdapter`, driven by
:func:`repro.engine.run_classification`); this module holds the history it
returns, :class:`TrainingHistory`, and :func:`evaluate_classifier`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..autodiff import no_grad
from ..autodiff.tensor import Tensor
from ..data.dataloader import DataLoader
from ..nn.module import Module


@dataclass
class TrainingHistory:
    """Per-epoch metrics collected by the classification trainer."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)
    seconds_per_batch: List[float] = field(default_factory=list)
    gradient_norms: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def final_train_accuracy(self) -> float:
        return self.train_accuracy[-1] if self.train_accuracy else float("nan")

    @property
    def final_test_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else float("nan")

    @property
    def best_test_accuracy(self) -> float:
        return max(self.test_accuracy) if self.test_accuracy else float("nan")

    @property
    def mean_seconds_per_batch(self) -> float:
        return float(np.mean(self.seconds_per_batch)) if self.seconds_per_batch else float("nan")

    def diverged(self, floor: float) -> bool:
        """True if training never exceeded chance-level ``floor`` accuracy."""
        return self.final_train_accuracy <= floor

    # ------------------------------------------------------------ persistence
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view so specs, benchmarks and the CLI can persist runs."""
        return {
            "train_loss": [float(v) for v in self.train_loss],
            "train_accuracy": [float(v) for v in self.train_accuracy],
            "test_accuracy": [float(v) for v in self.test_accuracy],
            "seconds_per_batch": [float(v) for v in self.seconds_per_batch],
            "gradient_norms": {name: [float(v) for v in values]
                               for name, values in self.gradient_norms.items()},
        }

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "TrainingHistory":
        """Inverse of :meth:`to_dict`, tolerant of older/partial JSON.

        Unknown keys are ignored (forward compat); missing or ``None``-valued
        optional fields fall back to empty (backward compat), so histories
        written before a field existed — or by a newer library with extra
        fields — always load.
        """
        data = data or {}

        def _floats(key: str) -> List[float]:
            return [float(v) for v in (data.get(key) or [])]

        return cls(
            train_loss=_floats("train_loss"),
            train_accuracy=_floats("train_accuracy"),
            test_accuracy=_floats("test_accuracy"),
            seconds_per_batch=_floats("seconds_per_batch"),
            gradient_norms={str(name): [float(v) for v in (values or [])]
                            for name, values in (data.get("gradient_norms") or {}).items()},
        )


def evaluate_classifier(model: Module, loader: DataLoader) -> float:
    """Top-1 accuracy of ``model`` over a data loader."""
    was_training = model.training
    model.train(False)
    correct, total = 0, 0
    with no_grad():
        for images, labels in loader:
            logits = model(Tensor(np.asarray(images, dtype=np.float32)))
            correct += int((logits.data.argmax(axis=-1) == labels).sum())
            total += len(labels)
    model.train(was_training)
    return correct / max(total, 1)
