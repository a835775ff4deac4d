"""Integration tests across the newer subsystems (ppml, explore, cli, plots).

Each test exercises a complete user workflow end to end rather than a single
module: converting a model for private inference and still training it,
exploring structures and persisting the winner, and driving the same flows
through the CLI.
"""

from __future__ import annotations

import json

import numpy as np

from repro import explore, models, nn, ppml
from repro.analysis import ascii_bar_chart, sparkline
from repro.autodiff import no_grad
from repro.autodiff.tensor import Tensor
from repro.builder import AutoBuilder, QuadraticModelConfig
from repro.cli import main as cli_main
from repro.data.synthetic import SyntheticImageClassification
from repro.engine import run_classification
from repro.experiment import ExperimentSpec, ModelSpec
from repro.utils import load_checkpoint, save_checkpoint, seed_everything


def synthetic_task(samples: int = 64, classes: int = 4, image_size: int = 16):
    train = SyntheticImageClassification(num_samples=samples, num_classes=classes,
                                         image_size=image_size, seed=0, split_seed=0)
    test = SyntheticImageClassification(num_samples=samples // 2, num_classes=classes,
                                        image_size=image_size, seed=0, split_seed=1)
    return train, test


def test_autobuild_then_ppml_convert_then_train():
    """First-order model → auto-built QDNN → PPML-friendly → still learns."""
    seed_everything(1)
    train_set, test_set = synthetic_task()
    model = models.vgg_from_cfg([16, "M", 32, "M"], num_classes=4,
                                config=QuadraticModelConfig(neuron_type="first_order",
                                                            width_multiplier=0.5))

    conversion = AutoBuilder(neuron_type="OURS").convert(model)
    assert conversion.converted_layers == 2
    friendly, report = ppml.to_ppml_friendly(model, strategy="quadratic_no_relu")
    assert report.relu_free

    cost = ppml.analyse_model(friendly, (3, 16, 16), protocol="delphi")
    assert cost.relu_count == 0

    with np.errstate(all="ignore"):
        history = run_classification(friendly, train_set, test_set, epochs=2, batch_size=16,
                                     lr=0.05, max_batches_per_epoch=3, seed=1)
    assert history.final_train_accuracy > 1.0 / 4


def test_explore_then_checkpoint_best_candidate(tmp_path):
    """Search for a structure, persist the winner, reload it bit-exactly."""
    seed_everything(2)
    train_set, test_set = synthetic_task()
    space = explore.SearchSpace(min_stages=2, max_stages=2, min_convs_per_stage=1,
                                max_convs_per_stage=1, width_choices=(8, 16),
                                neuron_types=("OURS",))
    evaluator = explore.ProxyEvaluator(train_set, test_set, num_classes=4, image_size=16,
                                       epochs=1, batch_size=16, max_batches_per_epoch=2,
                                       width_multiplier=0.5, seed=2)
    with np.errstate(all="ignore"):
        result = explore.random_search(space, evaluator, budget=3, seed=2)
    best = result.best

    # Rebuild, train briefly, checkpoint and reload into a fresh instance.
    model = best.genome.build(num_classes=4, width_multiplier=0.5)
    with np.errstate(all="ignore"):
        run_classification(model, train_set, epochs=1, batch_size=16, lr=0.05,
                           max_batches_per_epoch=2, seed=2)
    path = str(tmp_path / "best_candidate.npz")
    save_checkpoint(model, path)

    restored = best.genome.build(num_classes=4, width_multiplier=0.5)
    load_checkpoint(restored, path)
    probe = Tensor(np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32))
    model.train(False)
    restored.train(False)
    with no_grad():
        np.testing.assert_allclose(model(probe).data, restored(probe).data, rtol=1e-6,
                                   atol=1e-6)


def test_cost_report_feeds_ascii_charts():
    """The PPML cost report and the plotting helpers compose without glue code."""
    model = models.vgg_from_cfg([16, "M", 32, "M"], num_classes=4,
                                config=QuadraticModelConfig(neuron_type="first_order",
                                                            width_multiplier=0.5))
    report = ppml.analyse_model(model, (3, 16, 16), protocol="delphi")
    labels = [layer.operations.name for layer in report.layers]
    latencies = [layer.total.milliseconds for layer in report.layers]
    chart = ascii_bar_chart(labels, latencies, width=30, title="per-layer online latency")
    assert "per-layer online latency" in chart
    assert len(chart.splitlines()) == len(labels) + 1
    # Sparkline over the same series is one character per layer.
    assert len(sparkline(latencies)) == len(latencies)


def test_cli_convert_matches_library_parameter_ratio(tmp_path, capsys):
    """An auto-build spec run by the CLI converts exactly like the library."""
    library_model = models.vgg8(num_classes=10, neuron_type="first_order",
                                width_multiplier=0.25)
    library_report = AutoBuilder(neuron_type="OURS").convert(library_model)

    spec = ExperimentSpec(seed=3, steps=["build"],
                          model=ModelSpec(name="vgg8", neuron_type="OURS", num_classes=10,
                                          width_multiplier=0.25, auto_build=True))
    assert cli_main(["run", spec.save(str(tmp_path / "spec.json")), "--json"]) == 0
    build = json.loads(capsys.readouterr().out)["results"]["build"]
    assert build["auto_build"] is True
    assert build["parameters"] == library_report.parameters_after