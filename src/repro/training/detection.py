"""SSD detector training and evaluation (paper Sec. 5.4, scaled down).

The loop runs through the unified engine (:class:`repro.engine.DetectionAdapter`,
driven by :func:`repro.engine.run_detection`); this module holds the history
it returns and the VOC-mAP evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..autodiff.tensor import Tensor
from ..data.dataloader import DataLoader
from ..data.synthetic.detection import SyntheticDetectionDataset, detection_collate
from ..metrics.detection import evaluate_detections
from ..models.ssd import SSD


@dataclass
class DetectionTrainingHistory:
    """Per-epoch multibox losses."""

    loss: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.loss[-1] if self.loss else float("nan")

    # ------------------------------------------------------------ persistence
    def to_dict(self) -> Dict[str, Any]:
        return {"loss": [float(v) for v in self.loss]}

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "DetectionTrainingHistory":
        """Tolerant inverse of :meth:`to_dict` (missing/None fields → empty)."""
        data = data or {}
        return cls(loss=[float(v) for v in (data.get("loss") or [])])


def evaluate_detector(model: SSD, dataset: SyntheticDetectionDataset, batch_size: int = 8,
                      score_threshold: float = 0.3, iou_threshold: float = 0.5,
                      use_11_point: bool = False) -> Dict[str, object]:
    """Run inference over a dataset and compute the VOC mAP (Table 6 metric)."""
    loader = DataLoader(dataset, batch_size=batch_size, collate_fn=detection_collate)
    predictions: List[Dict[str, np.ndarray]] = []
    ground_truths: List[Dict[str, np.ndarray]] = []
    for images, targets in loader:
        detections = model.detect(Tensor(np.asarray(images, dtype=np.float32)),
                                  score_threshold=score_threshold)
        predictions.extend(detections)
        ground_truths.extend(targets)
    return evaluate_detections(predictions, ground_truths, num_classes=model.num_classes,
                               iou_threshold=iou_threshold, use_11_point=use_11_point)
