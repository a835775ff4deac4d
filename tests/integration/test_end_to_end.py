"""Integration tests: cross-module workflows mirroring the paper's claims.

These are slower than unit tests but still sized for CPU seconds.  Each test
exercises a complete path through the library (data → model → training →
metric, or model → auto-builder → profiler) and checks a *relative* claim the
paper makes rather than an absolute number.
"""

import numpy as np
import pytest

from repro import nn
from repro.autodiff import Tensor, randn
from repro.builder import AutoBuilder, QuadraticModelConfig
from repro.data import TensorDataset
from repro.data.synthetic import SyntheticImageClassification, circle_dataset, xor_dataset
from repro.engine import run_classification
from repro.models import FirstOrderMLP, QuadraticMLP, SmallConvNet
from repro.profiler import estimate_training_memory, profile_model
from repro.training import evaluate_classifier
from repro.utils import load_checkpoint, save_checkpoint, seed_everything


class TestQuadraticAdvantageOnToyTasks:
    """Single quadratic neurons solve what single linear neurons cannot (paper Sec. 2)."""

    def test_xor_quadratic_beats_linear(self):
        x, y = xor_dataset(400, seed=1)
        dataset = TensorDataset(x, y)

        quadratic = QuadraticMLP([2, 4, 2], neuron_type="OURS")
        linear = FirstOrderMLP([2, 2], activation=False)

        hist_quadratic = run_classification(quadratic, dataset, epochs=15, batch_size=64, lr=0.05)
        hist_linear = run_classification(linear, dataset, epochs=15, batch_size=64, lr=0.05)

        assert hist_quadratic.final_train_accuracy > 0.9
        assert hist_linear.final_train_accuracy < 0.7
        assert hist_quadratic.final_train_accuracy > hist_linear.final_train_accuracy + 0.2

    def test_circle_boundary_single_quadratic_layer(self):
        x, y = circle_dataset(400, seed=2)
        dataset = TensorDataset(x, y)
        model = QuadraticMLP([2, 4, 2], neuron_type="T2_4")
        history = run_classification(model, dataset, epochs=15, batch_size=64, lr=0.05)
        assert history.final_train_accuracy > 0.85


class TestImageClassificationPipeline:
    def test_quadratic_convnet_learns_synthetic_cifar(self):
        train = SyntheticImageClassification(num_samples=192, num_classes=4, image_size=16,
                                             seed=0)
        test = SyntheticImageClassification(num_samples=96, num_classes=4, image_size=16,
                                            seed=0, split_seed=1)
        model = SmallConvNet(num_classes=4, image_size=16,
                             config=QuadraticModelConfig(neuron_type="OURS",
                                                         width_multiplier=0.5))
        history = run_classification(model, train, test, epochs=4, batch_size=32, lr=0.05)
        assert history.final_train_accuracy > 0.6
        assert history.best_test_accuracy > 0.4  # far above the 0.25 chance level

    def test_hybrid_bp_model_trains_equivalently(self):
        """Hybrid BP is a memory optimisation: same accuracy trajectory."""
        train = SyntheticImageClassification(num_samples=128, num_classes=4, image_size=16,
                                             seed=0)
        seed_everything(5)
        composed = SmallConvNet(num_classes=4, image_size=16,
                                config=QuadraticModelConfig(neuron_type="OURS",
                                                            width_multiplier=0.5))
        seed_everything(5)
        hybrid = SmallConvNet(num_classes=4, image_size=16,
                              config=QuadraticModelConfig(neuron_type="OURS", hybrid_bp=True,
                                                          width_multiplier=0.5))
        h_composed = run_classification(composed, train, epochs=2, batch_size=32, lr=0.05, seed=2)
        h_hybrid = run_classification(hybrid, train, epochs=2, batch_size=32, lr=0.05, seed=2)
        assert abs(h_composed.final_train_accuracy - h_hybrid.final_train_accuracy) < 0.15


class TestAutoBuilderWorkflow:
    def test_convert_profile_and_train(self):
        train = SyntheticImageClassification(num_samples=96, num_classes=4, image_size=16,
                                             seed=0)
        model = SmallConvNet(num_classes=4, image_size=16,
                             config=QuadraticModelConfig(neuron_type="first_order",
                                                         width_multiplier=0.5))
        params_before = profile_model(model, (3, 16, 16)).total_parameters

        report = AutoBuilder(neuron_type="OURS").convert(model)
        assert report.converted_layers == 3

        params_after = profile_model(model, (3, 16, 16)).total_parameters
        assert params_after > params_before

        history = run_classification(model, train, epochs=2, batch_size=32, lr=0.05)
        assert np.isfinite(history.train_loss[-1])
        assert history.final_train_accuracy > 0.3

    def test_memory_ordering_first_order_vs_quadratic_vs_hybrid(self):
        """Fig. 5 + Fig. 8 combined: naive quadratic > first-order, hybrid < naive."""
        def build(neuron_type, hybrid=False):
            return SmallConvNet(num_classes=4, image_size=16,
                                config=QuadraticModelConfig(neuron_type=neuron_type,
                                                            hybrid_bp=hybrid,
                                                            width_multiplier=0.5))

        est_first = estimate_training_memory(build("first_order"), (3, 16, 16), num_classes=4)
        est_quad = estimate_training_memory(build("OURS"), (3, 16, 16), num_classes=4)
        est_hybrid = estimate_training_memory(build("OURS", hybrid=True), (3, 16, 16),
                                              num_classes=4)
        batch = 128
        assert est_quad.total_bytes(batch) > est_first.total_bytes(batch)
        assert est_hybrid.total_bytes(batch) < est_quad.total_bytes(batch)


class TestSerialization:
    def test_save_load_checkpoint_roundtrip(self, tmp_path):
        model = SmallConvNet(num_classes=4, image_size=16,
                             config=QuadraticModelConfig(neuron_type="OURS",
                                                         width_multiplier=0.5))
        x = randn(2, 3, 16, 16)
        model.eval()
        expected = model(x).data.copy()
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)

        restored = SmallConvNet(num_classes=4, image_size=16,
                                config=QuadraticModelConfig(neuron_type="OURS",
                                                            width_multiplier=0.5))
        load_checkpoint(restored, path)
        restored.eval()
        assert np.allclose(restored(x).data, expected, atol=1e-6)

    def test_results_json_roundtrip(self, tmp_path):
        from repro.utils import load_results, save_results

        path = str(tmp_path / "results.json")
        save_results({"accuracy": np.float32(0.5), "per_class": np.array([1, 2, 3])}, path)
        loaded = load_results(path)
        assert loaded["accuracy"] == pytest.approx(0.5)
        assert loaded["per_class"] == [1, 2, 3]

    def test_trained_model_evaluation_reproducible_after_reload(self, tmp_path):
        train = SyntheticImageClassification(num_samples=64, num_classes=4, image_size=16)
        model = SmallConvNet(num_classes=4, image_size=16,
                             config=QuadraticModelConfig(width_multiplier=0.5))
        run_classification(model, train, epochs=1, batch_size=32)
        from repro.data import DataLoader

        loader = DataLoader(train, batch_size=32)
        acc_before = evaluate_classifier(model, loader)
        path = str(tmp_path / "trained.npz")
        save_checkpoint(model, path)
        restored = SmallConvNet(num_classes=4, image_size=16,
                                config=QuadraticModelConfig(width_multiplier=0.5))
        load_checkpoint(restored, path)
        assert evaluate_classifier(restored, loader) == pytest.approx(acc_before, abs=1e-6)


class TestPaperCodeExample:
    """The construction-function code snippet from Sec. 4.2 must work verbatim-ish."""

    def test_construction_function_pattern(self):
        from repro import quadratic as qua

        cfg = [8, 16]
        layers = []
        in_channels = 3
        for v in cfg:
            layers += [qua.type2(in_channels, v, kernel_size=3, padding=1), nn.ReLU()]
            in_channels = v
        model = nn.Sequential(*layers)
        assert model(randn(1, 3, 8, 8)).shape == (1, 16, 8, 8)

    def test_quadratic_layer_interchangeable_with_first_order(self):
        """A quadratic layer can replace any first-order conv in a given model (P4)."""
        from repro.quadratic import QuadraticConv2d

        model = nn.Sequential(nn.Conv2d(3, 8, 3, padding=1), nn.ReLU(),
                              nn.Conv2d(8, 4, 3, padding=1))
        model.register_module("0", QuadraticConv2d(3, 8, kernel_size=3, padding=1))
        out = model(randn(2, 3, 8, 8))
        assert out.shape == (2, 4, 8, 8)
        out.sum().backward()
