"""Spec schema v2: engine fields on TrainSpec, backward-compatible loading."""

from __future__ import annotations

import pytest

from repro.experiment import SPEC_VERSION, ExperimentSpec, TrainSpec


class TestEngineFields:
    def test_round_trip_preserves_engine_fields(self):
        spec = ExperimentSpec(
            train=TrainSpec(epochs=3, checkpoint_dir="ckpts", checkpoint_every=2,
                            resume_from="ckpts/latest.npz", stop_after_epoch=2,
                            prefetch=True, prefetch_depth=4))
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored.train.checkpoint_dir == "ckpts"
        assert restored.train.checkpoint_every == 2
        assert restored.train.resume_from == "ckpts/latest.npz"
        assert restored.train.stop_after_epoch == 2
        assert restored.train.prefetch is True
        assert restored.train.prefetch_depth == 4

    def test_current_version_is_2(self):
        assert SPEC_VERSION == 2
        assert ExperimentSpec().to_dict()["version"] == 2

    def test_v1_spec_dict_still_loads(self):
        """A file written before the engine fields existed loads with defaults."""
        v1 = {
            "name": "old-run",
            "version": 1,
            "seed": 3,
            "model": {"name": "vgg8", "neuron_type": "OURS"},
            "train": {"trainer": "classifier", "epochs": 2, "batch_size": 16},
            "steps": ["build", "fit"],
        }
        spec = ExperimentSpec.from_dict(v1)
        spec.validate()
        assert spec.version == 1
        assert spec.train.checkpoint_dir is None
        assert spec.train.resume_from is None
        assert spec.train.stop_after_epoch is None
        assert spec.train.prefetch is False
        assert spec.train.checkpoint_every == 1

    @pytest.mark.parametrize("field,value,match", [
        ("checkpoint_every", 0, "checkpoint_every"),
        ("stop_after_epoch", 0, "stop_after_epoch"),
        ("prefetch_depth", 0, "prefetch_depth"),
    ])
    def test_engine_field_validation(self, field, value, match):
        spec = ExperimentSpec(train=TrainSpec(**{field: value}))
        with pytest.raises(ValueError, match=match):
            spec.validate()


class TestHistoryCompat:
    def test_training_history_tolerates_missing_and_none_fields(self):
        from repro.training.classification import TrainingHistory

        restored = TrainingHistory.from_dict({"train_loss": [1.0], "test_accuracy": None})
        assert restored.train_loss == [1.0]
        assert restored.test_accuracy == []
        assert TrainingHistory.from_dict(None).train_loss == []
        assert TrainingHistory.from_dict({}).gradient_norms == {}

    def test_training_history_ignores_unknown_keys(self):
        from repro.training.classification import TrainingHistory

        restored = TrainingHistory.from_dict({"train_loss": [0.5],
                                              "a_future_field": [1, 2, 3]})
        assert restored.train_loss == [0.5]

    def test_gan_history_round_trips_and_tolerates_gaps(self):
        from repro.training.gan import GANTrainingHistory

        history = GANTrainingHistory(generator_loss=[0.1], discriminator_loss=[0.2])
        restored = GANTrainingHistory.from_dict(history.to_dict())
        assert restored.generator_loss == [0.1]
        assert restored.discriminator_loss == [0.2]
        assert GANTrainingHistory.from_dict({"generator_loss": None}).generator_loss == []
        assert GANTrainingHistory.from_dict(None).discriminator_loss == []

    def test_detection_history_round_trips_and_tolerates_gaps(self):
        from repro.training.detection import DetectionTrainingHistory

        history = DetectionTrainingHistory(loss=[2.0, 1.0])
        restored = DetectionTrainingHistory.from_dict(history.to_dict())
        assert restored.loss == [2.0, 1.0]
        assert DetectionTrainingHistory.from_dict({}).loss == []
        import math

        assert math.isnan(DetectionTrainingHistory.from_dict(None).final_loss)
