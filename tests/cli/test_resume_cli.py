"""CLI checkpoint workflows: run --checkpoint-dir / train --resume /
serve --from-checkpoint."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.experiment import Experiment, ExperimentSpec, get_preset
from repro.utils import load_training_checkpoint


def run(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.fixture()
def tiny_spec_path(tmp_path):
    """A 3-epoch spec file small enough for CLI round trips."""
    spec = get_preset("smoke").with_(name="resume-check")
    spec = spec.with_(train=spec.train.with_(epochs=3), steps=["build", "fit"])
    path = tmp_path / "spec.json"
    spec.save(str(path))
    return str(path)


class TestRunCheckpointFlags:
    def test_stop_after_epoch_writes_resumable_checkpoint(self, tiny_spec_path,
                                                          tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        run(["run", tiny_spec_path, "--checkpoint-dir", str(ckpt_dir),
             "--stop-after-epoch", "1"], capsys)
        payload = load_training_checkpoint(str(ckpt_dir / "latest.npz"))
        assert payload["epoch"] == 1
        # The whole spec is embedded, with the CLI overrides applied.
        assert payload["spec"]["train"]["checkpoint_dir"] == str(ckpt_dir)
        assert payload["spec"]["train"]["stop_after_epoch"] == 1

    def test_train_resume_completes_the_run(self, tiny_spec_path, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        run(["run", tiny_spec_path, "--checkpoint-dir", str(ckpt_dir),
             "--stop-after-epoch", "1"], capsys)
        out = run(["train", "--resume", str(ckpt_dir / "latest.npz")], capsys)
        assert "Resumed 'resume-check' from epoch 1 of 3" in out
        # All three epochs appear: one restored, two trained after the resume.
        assert any(line.startswith("3 ") for line in out.splitlines())
        final = load_training_checkpoint(str(ckpt_dir / "latest.npz"))
        assert final["epoch"] == 3

    def test_resumed_run_matches_uninterrupted_bit_for_bit(self, tiny_spec_path,
                                                           tmp_path, capsys):
        spec = ExperimentSpec.load(tiny_spec_path)
        uninterrupted = Experiment(spec)
        full_history = uninterrupted.fit()

        ckpt_dir = tmp_path / "ckpts"
        run(["run", tiny_spec_path, "--checkpoint-dir", str(ckpt_dir),
             "--stop-after-epoch", "1"], capsys)
        run(["train", "--resume", str(ckpt_dir / "latest.npz")], capsys)
        final = load_training_checkpoint(str(ckpt_dir / "latest.npz"))
        assert final["adapter"]["history"]["train_loss"] == full_history.to_dict()["train_loss"]
        full_state = uninterrupted.model.state_dict()
        for name, value in final["adapter"]["model"].items():
            assert np.array_equal(value, full_state[name]), name

    def test_run_prefetch_flag_matches_sync_numerics(self, tiny_spec_path, capsys):
        sync = json.loads(run(["run", tiny_spec_path, "--json"], capsys))
        prefetched = json.loads(run(["run", tiny_spec_path, "--prefetch", "--json"],
                                    capsys))
        assert (prefetched["results"]["fit"]["history"]["train_loss"]
                == sync["results"]["fit"]["history"]["train_loss"])

    def test_resume_with_bad_checkpoint_fails_readably(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.npz")
        assert main(["train", "--resume", missing]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestServeFromCheckpoint:
    def test_spec_and_checkpoint_are_mutually_exclusive(self, capsys):
        assert main(["serve", "smoke", "--from-checkpoint", "x.npz"]) == 2
        assert "not both" in capsys.readouterr().err
        assert main(["serve"]) == 2
        assert "not both and not neither" in capsys.readouterr().err

    def test_serves_trained_weights_bit_identically(self, tiny_spec_path, tmp_path,
                                                    capsys):
        ckpt_dir = tmp_path / "ckpts"
        run(["run", tiny_spec_path, "--checkpoint-dir", str(ckpt_dir)], capsys)
        out = run(["serve", "--from-checkpoint", str(ckpt_dir / "latest.npz"),
                   "--workers", "1", "--port", "0", "--self-test", "2", "--json"],
                  capsys)
        results = json.loads(out.split("\n", 1)[1])
        assert results["bit_identical"] is True

    def test_gan_checkpoint_is_rejected(self, tmp_path, capsys):
        from repro.data.synthetic import SyntheticGenerationDataset
        from repro.engine import run_gan
        from repro.models import sngan_pair

        gen, disc = sngan_pair(latent_dim=8, base_channels=8, image_size=16)
        run_gan(gen, disc, SyntheticGenerationDataset(num_samples=16, image_size=16),
                steps=1, batch_size=4, checkpoint_dir=str(tmp_path))
        assert main(["serve", "--from-checkpoint", str(tmp_path / "latest.npz")]) == 2
        assert "classification" in capsys.readouterr().err
