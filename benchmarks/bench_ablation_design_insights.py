"""Ablation A1 — the QDNN construction design insights of Sec. 4.2.

The paper derives three construction rules for quadratic models:

1. QDNN depth can be reduced relative to the first-order network;
2. BatchNorm after quadratic layers is essential because the second-order
   term produces extreme values;
3. shallow QDNNs can drop ReLU, deep QDNNs need it.

This ablation trains the same quadratic backbone with each switch toggled and
reports training stability and accuracy.
"""

import numpy as np
import pytest

from common import BATCH_SIZE, MAX_BATCHES, NUM_CLASSES, WIDTH, classification_data, fresh_seed, save_experiment
from repro.builder import QuadraticModelConfig
from repro.engine import run_classification
from repro.models import vgg_from_cfg
from repro.utils import print_table

SHALLOW_CFG = [16, "M", 32, "M"]
DEEP_CFG = [16, 16, "M", 32, 32, 32, "M", 32, 32, 32, "M"]
EPOCHS = 3
CHANCE = 1.0 / NUM_CLASSES


def _run(cfg, **config_kwargs):
    train_set, test_set = classification_data()
    config = QuadraticModelConfig(neuron_type="OURS", width_multiplier=WIDTH, **config_kwargs)
    model = vgg_from_cfg(cfg, num_classes=NUM_CLASSES, config=config)
    history = run_classification(model, train_set, test_set, epochs=EPOCHS,
                                 batch_size=BATCH_SIZE, lr=0.05,
                                 max_batches_per_epoch=MAX_BATCHES, seed=23)
    return history


def test_ablation_design_insights(benchmark):
    settings = [
        ("Shallow QDNN (BN + ReLU)", SHALLOW_CFG, {}),
        ("Shallow QDNN, no ReLU", SHALLOW_CFG, {"use_activation": False}),
        ("Deep QDNN (BN + ReLU)", DEEP_CFG, {}),
        ("Deep QDNN, no ReLU", DEEP_CFG, {"use_activation": False}),
        ("Deep QDNN, no BatchNorm", DEEP_CFG, {"use_batchnorm": False}),
    ]
    rows, results = [], {}
    for index, (name, cfg, kwargs) in enumerate(settings):
        fresh_seed(80 + index)
        with np.errstate(all="ignore"):
            history = _run(cfg, **kwargs)
        train_acc = history.final_train_accuracy
        stable = np.isfinite(history.train_loss[-1])
        rows.append([name, round(train_acc, 3), round(history.final_test_accuracy, 3),
                     "yes" if stable else "no (diverged)"])
        results[name] = {"train_accuracy": train_acc,
                         "test_accuracy": history.final_test_accuracy,
                         "stable": bool(stable)}

    print()
    print_table(["Setting", "Train acc", "Test acc", "Numerically stable"], rows,
                title="Ablation A1 (design insights): BatchNorm / ReLU / depth for QDNNs")
    save_experiment("ablation_design_insights", results)

    # Insight 2: the BN-equipped deep QDNN must be stable and above chance.
    assert results["Deep QDNN (BN + ReLU)"]["stable"]
    assert results["Deep QDNN (BN + ReLU)"]["train_accuracy"] > CHANCE
    # Insight 3: dropping ReLU is harmless for the shallow QDNN (within noise)...
    assert results["Shallow QDNN, no ReLU"]["train_accuracy"] > CHANCE
    # Removing BatchNorm must not beat the BN model (it typically diverges).
    no_bn = results["Deep QDNN, no BatchNorm"]
    assert (not no_bn["stable"]) or (
        no_bn["train_accuracy"] <= results["Deep QDNN (BN + ReLU)"]["train_accuracy"] + 0.1
    )

    # Timed kernel: forward of the shallow QDNN.
    from repro.autodiff import randn

    model = vgg_from_cfg(SHALLOW_CFG, num_classes=NUM_CLASSES,
                         config=QuadraticModelConfig(neuron_type="OURS",
                                                     width_multiplier=WIDTH))
    x = randn(8, 3, 16, 16)
    benchmark(lambda: model(x))
