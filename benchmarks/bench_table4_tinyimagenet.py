"""Table 4 — VGG on Tiny-ImageNet: first-order vs. QuadraNN vs. QuadraNN without ReLU.

The paper's Table 4 shows that on the larger-resolution Tiny-ImageNet task the
auto-built 7-layer QuadraNN matches the 13-layer first-order VGG, and that
*removing ReLU hurts* once the QDNN is deep (design insight 3: shallow QDNNs
can drop activations, deep ones cannot).  The scaled reproduction uses the
synthetic higher-resolution dataset (32×32, more classes) and the same three
rows.
"""

import numpy as np
import pytest

from common import BATCH_SIZE, MAX_BATCHES, WIDTH, fresh_seed, save_experiment
from repro.builder import QuadraticModelConfig
from repro.data.synthetic import SyntheticImageClassification
from repro.engine import run_classification
from repro.models import vgg_from_cfg
from repro.utils import print_table

IMAGE = 32
NUM_CLASSES = 10
EPOCHS = 2

FULL_CFG = [16, 16, "M", 32, 32, "M", 64, 64, 64, "M"]        # "13 CL" stand-in
REDUCED_CFG = [16, "M", 32, "M", 64, 64, "M"]                  # "7 CL" stand-in


def test_table4_tiny_imagenet_vgg(benchmark):
    train_set = SyntheticImageClassification(num_samples=160, num_classes=NUM_CLASSES,
                                             image_size=IMAGE, seed=4, split_seed=0)
    test_set = SyntheticImageClassification(num_samples=80, num_classes=NUM_CLASSES,
                                            image_size=IMAGE, seed=4, split_seed=1)

    rows_spec = [
        ("First-order", FULL_CFG, QuadraticModelConfig(neuron_type="first_order",
                                                       width_multiplier=WIDTH)),
        ("QuadraNN", REDUCED_CFG, QuadraticModelConfig(neuron_type="OURS",
                                                       width_multiplier=WIDTH)),
        ("QuadraNN (no ReLU)", REDUCED_CFG, QuadraticModelConfig(neuron_type="OURS",
                                                                 use_activation=False,
                                                                 width_multiplier=WIDTH)),
    ]

    rows, results = [], {}
    for index, (name, cfg, config) in enumerate(rows_spec):
        fresh_seed(40 + index)
        model = vgg_from_cfg(cfg, num_classes=NUM_CLASSES, config=config)
        history = run_classification(model, train_set, test_set, epochs=EPOCHS,
                                     batch_size=BATCH_SIZE, lr=0.05,
                                     max_batches_per_epoch=MAX_BATCHES, seed=11)
        depth = sum(1 for c in cfg if c != "M")
        rows.append([name, f"{depth} CL", round(history.best_test_accuracy, 3)])
        results[name] = {
            "conv_layers": depth,
            "test_accuracy": history.best_test_accuracy,
            "train_accuracy": history.final_train_accuracy,
        }

    print()
    print_table(["Model", "#Layer", "Accuracy (synthetic Tiny-ImageNet stand-in)"], rows,
                title="Table 4 (reproduced, scaled)")
    save_experiment("table4_tinyimagenet", results)

    # QuadraNN uses fewer conv layers than the first-order baseline.
    assert results["QuadraNN"]["conv_layers"] < results["First-order"]["conv_layers"]
    # All rows train above chance.
    for entry in results.values():
        assert entry["train_accuracy"] > 1.0 / NUM_CLASSES

    # Timed kernel: QuadraNN inference on one batch.
    from repro.autodiff import Tensor, no_grad

    model = vgg_from_cfg(REDUCED_CFG, num_classes=NUM_CLASSES,
                         config=QuadraticModelConfig(neuron_type="OURS",
                                                     width_multiplier=WIDTH))
    model.eval()
    images = np.stack([test_set[i][0] for i in range(8)])

    def infer():
        with no_grad():
            return model(Tensor(images)).shape

    benchmark(infer)
