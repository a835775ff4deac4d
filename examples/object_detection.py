"""Object detection with a quadratic SSD backbone (paper Sec. 5.4 / Table 6).

Run with::

    python examples/object_detection.py

Trains two compact SSD detectors — one with a first-order backbone, one with
the quadratic (QuadraNN) backbone — on the synthetic detection dataset and
reports per-class AP and mAP, optionally initialising the backbone from a
classification pre-training run (the paper's "pre-trained" setting).
"""

import numpy as np

from repro.builder import QuadraticModelConfig
from repro.data.synthetic import SyntheticDetectionDataset, SyntheticImageClassification
from repro.engine import run_detection
from repro.models import build_ssd
from repro.training import evaluate_detector, load_pretrained_backbone, pretrain_backbone
from repro.utils import print_table, seed_everything

IMAGE = 64
NUM_CLASSES = 4
EPOCHS = 3


def main() -> None:
    seed_everything(0)
    train_set = SyntheticDetectionDataset(num_samples=64, image_size=IMAGE,
                                          num_classes=NUM_CLASSES, seed=1)
    test_set = SyntheticDetectionDataset(num_samples=32, image_size=IMAGE,
                                         num_classes=NUM_CLASSES, seed=2)

    print("Pre-training a quadratic backbone on the synthetic classification task...")
    pretrain_data = SyntheticImageClassification(num_samples=128, num_classes=6, image_size=32)
    config = QuadraticModelConfig(neuron_type="OURS", width_multiplier=0.25)
    backbone_state, _ = pretrain_backbone(config, pretrain_data, epochs=1, batch_size=16)

    rows = []
    for name, neuron_type, pretrained in (("1st-order SSD", "first_order", False),
                                          ("QuadraNN SSD", "OURS", False),
                                          ("QuadraNN SSD (pre-trained)", "OURS", True)):
        seed_everything(3)
        detector = build_ssd(num_classes=NUM_CLASSES, image_size=IMAGE,
                             neuron_type=neuron_type, width_multiplier=0.25)
        if pretrained:
            copied = load_pretrained_backbone(detector, backbone_state)
            print(f"{name}: copied {copied} backbone tensors from the classification run")
        print(f"Training {name}...")
        history = run_detection(detector, train_set, epochs=EPOCHS, batch_size=8, lr=5e-3)
        result = evaluate_detector(detector, test_set, score_threshold=0.2)
        per_class = ["-" if np.isnan(ap) else f"{ap:.2f}" for ap in result["per_class_ap"]]
        rows.append([name, f"{history.final_loss:.2f}"] + per_class + [f"{result['map']:.3f}"])

    print()
    print_table(["Detector", "Final loss"] + list(train_set.class_names) + ["mAP"], rows,
                title="Table 6-style comparison on the synthetic VOC stand-in")


if __name__ == "__main__":
    main()
