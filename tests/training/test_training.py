"""Tests of the classification / GAN / detection training loops."""

import numpy as np
import pytest

from repro.builder import QuadraticModelConfig
from repro.data import TensorDataset
from repro.data.synthetic import (
    SyntheticDetectionDataset,
    SyntheticGenerationDataset,
    SyntheticImageClassification,
    circle_dataset,
    xor_dataset,
)
from repro.engine import run_classification, run_detection, run_gan
from repro.models import QuadraticMLP, SmallConvNet, build_ssd, sngan_pair
from repro.training import (
    evaluate_classifier,
    evaluate_detector,
    generate_images,
    load_pretrained_backbone,
    pretrain_backbone,
)
from repro.training.pretrain import BackbonePretrainNet
from repro.utils import seed_everything


class TestClassificationTraining:
    def test_loss_decreases_on_toy_task(self):
        x, y = circle_dataset(256, seed=0)
        model = QuadraticMLP([2, 12, 2])
        history = run_classification(model, TensorDataset(x, y), epochs=8, batch_size=64, lr=0.05)
        assert history.train_loss[-1] < history.train_loss[0]
        assert history.final_train_accuracy > 0.8

    def test_history_lengths_match_epochs(self):
        x, y = xor_dataset(128)
        model = QuadraticMLP([2, 8, 2])
        history = run_classification(model, TensorDataset(x, y), epochs=3, batch_size=32)
        assert len(history.train_loss) == 3
        assert len(history.seconds_per_batch) == 3

    def test_test_accuracy_tracked(self):
        train = SyntheticImageClassification(num_samples=96, num_classes=4, image_size=16)
        test = SyntheticImageClassification(num_samples=48, num_classes=4, image_size=16,
                                            split_seed=1)
        model = SmallConvNet(num_classes=4, image_size=16,
                             config=QuadraticModelConfig(width_multiplier=0.5))
        history = run_classification(model, train, test, epochs=2, batch_size=32, lr=0.05)
        assert len(history.test_accuracy) == 2
        assert 0.0 <= history.best_test_accuracy <= 1.0

    def test_max_batches_per_epoch_caps_work(self):
        train = SyntheticImageClassification(num_samples=256, num_classes=4, image_size=16)
        model = SmallConvNet(num_classes=4, image_size=16,
                             config=QuadraticModelConfig(width_multiplier=0.5))
        history = run_classification(model, train, epochs=1, batch_size=16,
                                     max_batches_per_epoch=2)
        assert len(history.train_loss) == 1

    def test_gradient_probe_layers_recorded(self):
        x, y = xor_dataset(128)
        model = QuadraticMLP([2, 8, 2])
        history = run_classification(model, TensorDataset(x, y), epochs=2, batch_size=32,
                                     grad_probe_layers=["0."])
        assert history.gradient_norms
        assert all(len(v) == 2 for v in history.gradient_norms.values())

    def test_evaluate_classifier_range(self):
        data = SyntheticImageClassification(num_samples=32, num_classes=4, image_size=16)
        model = SmallConvNet(num_classes=4, image_size=16,
                             config=QuadraticModelConfig(width_multiplier=0.5))
        from repro.data import DataLoader

        acc = evaluate_classifier(model, DataLoader(data, batch_size=16))
        assert 0.0 <= acc <= 1.0

    def test_diverged_helper(self):
        from repro.training.classification import TrainingHistory

        history = TrainingHistory(train_accuracy=[0.1, 0.1])
        assert history.diverged(0.11)
        assert not history.diverged(0.05)

    def test_deterministic_given_seed(self):
        x, y = xor_dataset(128)
        seed_everything(3)
        m1 = QuadraticMLP([2, 8, 2])
        h1 = run_classification(m1, TensorDataset(x, y), epochs=2, batch_size=32, seed=1)
        seed_everything(3)
        m2 = QuadraticMLP([2, 8, 2])
        h2 = run_classification(m2, TensorDataset(x, y), epochs=2, batch_size=32, seed=1)
        assert np.allclose(h1.train_loss, h2.train_loss, atol=1e-6)

    def test_history_round_trips_through_dicts(self):
        import json

        from repro.training.classification import TrainingHistory

        x, y = xor_dataset(128)
        model = QuadraticMLP([2, 8, 2])
        history = run_classification(model, TensorDataset(x, y), TensorDataset(x, y),
                                     epochs=2, batch_size=32, grad_probe_layers=["0."])
        restored = TrainingHistory.from_dict(json.loads(json.dumps(history.to_dict())))
        assert restored.train_loss == history.train_loss
        assert restored.train_accuracy == history.train_accuracy
        assert restored.test_accuracy == history.test_accuracy
        assert restored.gradient_norms == history.gradient_norms
        assert restored.final_test_accuracy == history.final_test_accuracy

    def test_history_from_dict_tolerates_missing_keys(self):
        from repro.training.classification import TrainingHistory

        restored = TrainingHistory.from_dict({"train_loss": [1.0, 0.5]})
        assert restored.train_loss == [1.0, 0.5]
        assert restored.test_accuracy == []


class TestGANTraining:
    def test_losses_recorded_and_finite(self):
        dataset = SyntheticGenerationDataset(num_samples=64, image_size=16)
        gen, disc = sngan_pair(latent_dim=8, base_channels=8, image_size=16)
        history = run_gan(gen, disc, dataset, steps=4, batch_size=8)
        assert len(history.generator_loss) == 4
        assert np.isfinite(history.final_generator_loss)
        assert np.isfinite(history.final_discriminator_loss)

    def test_generate_images_shape_and_count(self):
        gen, _ = sngan_pair(latent_dim=8, base_channels=8, image_size=16)
        images = generate_images(gen, num_images=10, batch_size=4)
        assert images.shape == (10, 3, 16, 16)

    def test_discriminator_steps_parameter(self):
        dataset = SyntheticGenerationDataset(num_samples=32, image_size=16)
        gen, disc = sngan_pair(latent_dim=8, base_channels=8, image_size=16)
        history = run_gan(gen, disc, dataset, steps=2, batch_size=8, discriminator_steps=2)
        assert len(history.discriminator_loss) == 2

    def test_quadratic_generator_trains(self):
        dataset = SyntheticGenerationDataset(num_samples=32, image_size=16)
        gen, disc = sngan_pair(latent_dim=8, base_channels=8, image_size=16, neuron_type="OURS")
        history = run_gan(gen, disc, dataset, steps=3, batch_size=8)
        assert np.isfinite(history.final_generator_loss)


class TestDetectionTraining:
    def _dataset(self, n=24):
        return SyntheticDetectionDataset(num_samples=n, image_size=64, num_classes=3, seed=0)

    def test_loss_decreases(self):
        model = build_ssd(num_classes=3, image_size=64, width_multiplier=0.25)
        history = run_detection(model, self._dataset(32), epochs=3, batch_size=8, lr=5e-3)
        assert history.loss[-1] < history.loss[0]

    def test_history_length(self):
        model = build_ssd(num_classes=3, image_size=64, width_multiplier=0.25)
        history = run_detection(model, self._dataset(16), epochs=2, batch_size=8,
                                max_batches_per_epoch=1)
        assert len(history.loss) == 2

    def test_evaluate_detector_output(self):
        model = build_ssd(num_classes=3, image_size=64, width_multiplier=0.25)
        result = evaluate_detector(model, self._dataset(8), batch_size=4,
                                   score_threshold=0.05)
        assert 0.0 <= result["map"] <= 1.0
        assert len(result["per_class_ap"]) == 3

    def test_pretrain_and_transfer(self):
        config = QuadraticModelConfig(neuron_type="first_order", width_multiplier=0.25)
        classification_data = SyntheticImageClassification(num_samples=64, num_classes=5,
                                                           image_size=32)
        state, history = pretrain_backbone(config, classification_data, epochs=1,
                                           batch_size=16, max_batches_per_epoch=2)
        assert len(history.train_loss) == 1
        detector = build_ssd(num_classes=3, image_size=64, neuron_type="first_order",
                             width_multiplier=0.25)
        before = next(p for _, p in detector.backbone.named_parameters()).data.copy()
        copied = load_pretrained_backbone(detector, state)
        after = next(p for _, p in detector.backbone.named_parameters()).data
        assert copied > 0
        assert not np.allclose(before, after)

    def test_pretrain_net_forward(self):
        config = QuadraticModelConfig(neuron_type="OURS", width_multiplier=0.25)
        net = BackbonePretrainNet(num_classes=7, config=config)
        from repro.autodiff import randn

        assert net(randn(2, 3, 32, 32)).shape == (2, 7)
