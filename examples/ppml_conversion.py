"""Privacy-preserving inference: replace ReLU with quadratic layers.

Run with::

    python examples/ppml_conversion.py

The paper motivates quadratic neurons as a drop-in replacement for ReLU in
privacy-preserving machine learning (PPML) protocols: hybrid protocols such as
Delphi evaluate every ReLU with a garbled circuit (≈2 KB of online traffic per
activation), while HE-only protocols such as CryptoNets cannot evaluate a
comparison at all.  This example

1. analyses the online cost of a first-order VGG-8 under three protocol cost
   models,
2. converts the model with ``repro.ppml.to_ppml_friendly`` (square activations
   and the paper's quadratic-no-ReLU strategy), and
3. verifies that the converted models still train on a synthetic CIFAR-like
   task.
"""

import numpy as np

from repro import ppml
from repro.builder import QuadraticModelConfig
from repro.data.synthetic import SyntheticImageClassification
from repro.engine import run_classification
from repro.models import vgg_from_cfg
from repro.utils import print_table, seed_everything

INPUT_SHAPE = (3, 32, 32)


def build_baseline():
    """The first-order VGG-8 whose ReLUs we want to eliminate."""
    return vgg_from_cfg("VGG8", num_classes=10,
                        config=QuadraticModelConfig(neuron_type="first_order"))


def cost_analysis() -> None:
    """Step 1 + 2: per-protocol online cost of the baseline and its conversions."""
    variants = [("First-order (ReLU)", build_baseline())]
    for strategy in ("square", "quadratic_no_relu"):
        converted, report = ppml.to_ppml_friendly(build_baseline(), strategy=strategy)
        print(f"converted with strategy '{strategy}': "
              f"{report.activations_replaced} activations replaced, "
              f"{report.layers_quadratized} convolutions quadratized, "
              f"{report.maxpools_replaced} max-pools averaged, "
              f"parameter ratio {report.parameter_ratio:.2f}x")
        variants.append((f"Converted ({strategy})", converted))

    rows = []
    for name, model in variants:
        reports = ppml.compare_protocols(model, INPUT_SHAPE)
        delphi, cryptonets = reports["delphi"], reports["cryptonets"]
        rows.append([
            name,
            f"{delphi.relu_count:,}",
            f"{delphi.mult_count:,}",
            f"{delphi.total.megabytes:.1f} MB",
            f"{delphi.total.milliseconds:.1f} ms",
            "yes" if cryptonets.runnable else "no",
        ])
    print()
    print_table(
        ["Model", "ReLU ops", "Secure mults", "Delphi comm", "Delphi latency",
         "Runs under CryptoNets"],
        rows,
        title="Online inference cost per protocol (VGG-8, one 32x32 query)",
    )

    # The per-layer view shows where the garbled-circuit budget goes.
    baseline_report = ppml.analyse_model(build_baseline(), INPUT_SHAPE, protocol="delphi")
    print()
    print(ppml.format_cost_report(baseline_report, per_layer=True))


def training_check() -> None:
    """Step 3: the converted models still learn (scaled-down synthetic task)."""
    train_set = SyntheticImageClassification(num_samples=192, num_classes=6, image_size=16,
                                             seed=0, split_seed=0)
    test_set = SyntheticImageClassification(num_samples=96, num_classes=6, image_size=16,
                                            seed=0, split_seed=1)
    cfg = [16, "M", 32, "M"]

    rows = []
    for strategy in (None, "square", "quadratic_no_relu"):
        seed_everything(7)
        model = vgg_from_cfg(cfg, num_classes=6,
                             config=QuadraticModelConfig(neuron_type="first_order",
                                                         width_multiplier=0.25))
        if strategy is not None:
            model, _ = ppml.to_ppml_friendly(model, strategy=strategy)
        with np.errstate(all="ignore"):
            history = run_classification(model, train_set, test_set, epochs=3, batch_size=16,
                                         lr=0.05, max_batches_per_epoch=6, seed=7)
        rows.append([strategy or "original (ReLU)",
                     f"{history.final_train_accuracy:.3f}",
                     f"{history.final_test_accuracy:.3f}"])
    print()
    print_table(["Variant", "Train accuracy", "Test accuracy"], rows,
                title="Training sanity check after PPML conversion (scaled synthetic task)")


def main() -> None:
    seed_everything(0)
    cost_analysis()
    training_check()


if __name__ == "__main__":
    main()
