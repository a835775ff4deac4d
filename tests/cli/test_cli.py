"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiment import PPMLSpec, get_preset


def run(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def spec_file(tmp_path, spec) -> str:
    """Save ``spec`` as JSON under ``tmp_path`` and return the path."""
    return spec.save(str(tmp_path / "spec.json"))


def model_only(neuron_type: str = "first_order", **model_changes):
    """The smoke preset's model (or a variant of it), build step only."""
    spec = get_preset("smoke")
    return spec.with_(model=spec.model.with_(neuron_type=neuron_type, **model_changes),
                      steps=["build"])


def explore_spec(strategy: str, budget: int):
    spec = get_preset("explore-small")
    return spec.with_(search=spec.search.with_(strategy=strategy, budget=budget,
                                               max_batches_per_epoch=2))


def parameter_count(out: str) -> int:
    line = next(line for line in out.splitlines() if line.startswith("parameters"))
    return int(line.split("|")[-1].strip().replace(",", ""))


# --------------------------------------------------------------------------- #
# Parser behaviour
# --------------------------------------------------------------------------- #

def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_unknown_model(tmp_path, capsys):
    """Model names live in the spec; an unknown one fails without a traceback."""
    path = spec_file(tmp_path, model_only(name="transformer"))
    assert main(["profile", path]) == 2
    assert "transformer" in capsys.readouterr().err


def test_subcommands_are_the_spec_driven_set():
    subparsers = next(action for action in build_parser()._actions
                      if action.dest == "command")
    assert tuple(subparsers.choices) == ("run", "list", "infer", "secure-infer", "serve",
                                         "plan", "neurons", "profile", "train")


def test_train_takes_only_a_checkpoint():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--model", "vgg8"])
    assert build_parser().parse_args(["train", "--resume", "x.npz"]).resume == "x.npz"


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #

def test_neurons_lists_every_registered_design(capsys):
    out = run(["neurons"], capsys)
    for name in ("T1", "T2", "T3", "T4", "T2_4", "OURS"):
        assert name in out
    assert "(Wa X) ∘ (Wb X) + Wc X" in out


def test_profile_prints_parameters_and_memory(capsys):
    out = run(["profile", "smoke"], capsys)
    assert "vgg8 (neuron type OURS)" in out
    assert "parameters" in out
    assert "GiB" in out
    # Without flags the spec's ProfileSpec decides: batch 32, no latency.
    assert "training memory @ batch 32" in out
    assert "latency" not in out
    assert "training memory @ batch 8" in run(["profile", "smoke", "--batch-size", "8"],
                                              capsys)


def test_profile_per_layer_and_latency(capsys):
    out = run(["profile", "smoke", "--per-layer", "--latency", "--latency-repeats", "1",
               "--batch-size", "4"], capsys)
    assert "Per-layer profile" in out
    assert "train latency / batch" in out


def test_convert_reports_parameter_ratio(tmp_path, capsys):
    """An auto-build spec converts the first-order model and grows it."""
    first_order = parameter_count(run(["run", spec_file(tmp_path, model_only())], capsys))
    out = run(["run", spec_file(tmp_path, model_only("OURS", auto_build=True))], capsys)
    assert "auto-build" in out and "yes" in out
    # Converting to the three-weight-set neuron must grow the parameter count.
    assert parameter_count(out) / first_order > 1.5


def test_train_smoke(tmp_path, capsys):
    spec = get_preset("smoke")
    out = run(["run", spec_file(tmp_path, spec.with_(
        train=spec.train.with_(epochs=1), steps=["build", "fit"]))], capsys)
    assert "Epoch" in out and "Train acc" in out
    assert "1" in out


def test_ppml_smoke(tmp_path, capsys):
    spec = model_only().with_(ppml=PPMLSpec(strategy="quadratic_no_relu",
                                            protocol="delphi"), steps=["build", "ppml"])
    out = run(["run", spec_file(tmp_path, spec)], capsys)
    assert "online latency before" in out
    assert "layers quadratized" in out


def test_ppml_cryptonets_marks_unrunnable_baseline(tmp_path, capsys):
    spec = model_only().with_(ppml=PPMLSpec(strategy="square", protocol="cryptonets"),
                              steps=["build", "ppml"])
    assert "not runnable" in run(["run", spec_file(tmp_path, spec)], capsys)


def test_explore_random_smoke(tmp_path, capsys):
    out = run(["run", spec_file(tmp_path, explore_spec("random", budget=3))], capsys)
    assert "random search over" in out
    assert "Proxy acc" in out


def test_explore_evolution_smoke(tmp_path, capsys):
    out = run(["run", spec_file(tmp_path, explore_spec("evolution", budget=4))], capsys)
    assert "evolution search over" in out


def test_infer_smoke(capsys):
    out = run(["infer", "smoke", "--samples", "8", "--repeats", "1",
               "--max-batch-size", "4"], capsys)
    assert "compiled latency / sample" in out
    assert "batched throughput" in out
    # The compiled path must agree with the eager forward (bit-identical on
    # the smoke model).
    diff_line = next(line for line in out.splitlines() if "max |compiled - eager|" in line)
    assert float(diff_line.split("|")[-1].strip()) <= 1e-6


def test_infer_json_output(capsys):
    import json

    out = run(["infer", "smoke", "--samples", "4", "--repeats", "1", "--json"], capsys)
    payload = json.loads(out)
    assert payload["fallback_modules"] == 0
    assert payload["max_abs_diff"] <= 1e-6
    assert payload["compiled_ms_per_sample"] > 0
