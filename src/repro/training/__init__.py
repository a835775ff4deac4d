"""``repro.training`` — training histories, evaluation and sampling helpers.

The training loops themselves live in :mod:`repro.engine`
(``run_classification`` / ``run_detection`` / ``run_gan``, or
``Experiment(spec).fit()``); this package holds what they return and what
evaluates their results.
"""

from .classification import TrainingHistory, evaluate_classifier
from .detection import DetectionTrainingHistory, evaluate_detector
from .gan import GANTrainingHistory, generate_images
from .pretrain import BackbonePretrainNet, load_pretrained_backbone, pretrain_backbone

__all__ = [
    "TrainingHistory",
    "evaluate_classifier",
    "GANTrainingHistory",
    "generate_images",
    "DetectionTrainingHistory",
    "evaluate_detector",
    "BackbonePretrainNet",
    "pretrain_backbone",
    "load_pretrained_backbone",
]
