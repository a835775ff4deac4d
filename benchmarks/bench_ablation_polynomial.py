"""Ablation A5 — polynomial order beyond two (the Π-net / PolyNet family).

Table 5 compares the quadratic SNGAN against PolyNet (Chrysos et al., 2020),
whose blocks are degree-N polynomials built by the CCP recursion.  This
ablation sweeps the polynomial order of an otherwise identical small CNN and
reports parameters and proxy accuracy, plus the untied order-2 layer (the
paper's neuron) for reference:

* parameters grow linearly with the order (one extra projection per degree),
* order ≥ 2 (any second-order design) trains above chance on the non-linear
  synthetic task, and
* the paper's untied quadratic neuron is the largest-capacity order-2 variant.
"""

import numpy as np
import pytest

from common import BATCH_SIZE, MAX_BATCHES, NUM_CLASSES, classification_data, fresh_seed, save_experiment
from repro import nn
from repro.engine import run_classification
from repro.quadratic import PolyConv2d, typenew
from repro.utils import print_table

EPOCHS = 3
CHANCE = 1.0 / NUM_CLASSES
CHANNELS = (12, 24)


def build_backbone(make_conv) -> nn.Sequential:
    """Two conv blocks + classifier head, with the conv factory swapped in."""
    layers = []
    in_channels = 3
    for width in CHANNELS:
        layers += [make_conv(in_channels, width), nn.BatchNorm2d(width), nn.ReLU(),
                   nn.MaxPool2d(2)]
        in_channels = width
    layers += [nn.GlobalAvgPool2d(), nn.Linear(in_channels, NUM_CLASSES)]
    return nn.Sequential(*layers)


def test_ablation_polynomial_order(benchmark):
    train_set, test_set = classification_data()

    variants = [
        ("Order 1 (first-order conv)",
         lambda cin, cout: PolyConv2d(cin, cout, kernel_size=3, padding=1, order=1)),
        ("Order 2 (tied, Pi-net CCP)",
         lambda cin, cout: PolyConv2d(cin, cout, kernel_size=3, padding=1, order=2)),
        ("Order 3 (Pi-net CCP)",
         lambda cin, cout: PolyConv2d(cin, cout, kernel_size=3, padding=1, order=3)),
        ("Order 2, untied (paper Eq. 2)",
         lambda cin, cout: typenew(cin, cout, kernel_size=3, padding=1)),
    ]

    rows, results = [], {}
    for index, (name, factory) in enumerate(variants):
        fresh_seed(60 + index)
        model = build_backbone(factory)
        with np.errstate(all="ignore"):
            history = run_classification(model, train_set, test_set, epochs=EPOCHS,
                                         batch_size=BATCH_SIZE, lr=0.05,
                                         max_batches_per_epoch=MAX_BATCHES, seed=31)
        rows.append([name, model.num_parameters(),
                     round(history.final_train_accuracy, 3),
                     round(history.final_test_accuracy, 3)])
        results[name] = {
            "parameters": model.num_parameters(),
            "train_accuracy": history.final_train_accuracy,
            "test_accuracy": history.final_test_accuracy,
        }

    print()
    print_table(["Variant", "#Param", "Train acc", "Test acc"], rows,
                title="Ablation A5 (polynomial order): Pi-net orders vs. the paper's neuron")
    save_experiment("ablation_polynomial", results)

    # Parameters grow monotonically with the order, and the untied paper neuron
    # is strictly larger than the tied order-2 Pi-net layer.
    assert (results["Order 1 (first-order conv)"]["parameters"]
            < results["Order 2 (tied, Pi-net CCP)"]["parameters"]
            < results["Order 3 (Pi-net CCP)"]["parameters"])
    assert (results["Order 2, untied (paper Eq. 2)"]["parameters"]
            > results["Order 2 (tied, Pi-net CCP)"]["parameters"])
    # Every second-order-or-higher design trains above chance on the proxy task.
    for name, values in results.items():
        if "Order 1" in name:
            continue
        assert values["train_accuracy"] > CHANCE

    # Timed kernel: forward+backward of the order-3 block.
    fresh_seed(69)
    model = build_backbone(lambda cin, cout: PolyConv2d(cin, cout, kernel_size=3, padding=1,
                                                        order=3))
    from repro.autodiff import randn

    x = randn(8, 3, 16, 16)

    def step():
        model.zero_grad()
        model(x).sum().backward()

    benchmark(step)
