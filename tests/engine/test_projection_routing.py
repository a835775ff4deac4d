"""Golden-history guard: the conv projection route cannot move training bits.

Eager convolutions project through the reference backend's
``conv_project``, which takes the batched ``matmul`` route wherever its probe
proves it bit-identical to the ``einsum`` route.  A seeded training run must
therefore give the same loss history and the same final weights whichever
route each shape takes: composed quadratic layers and every hybrid-BP node.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff.ops import conv as conv_ops
from repro.builder import QuadraticModelConfig
from repro.data.synthetic import SyntheticImageClassification
from repro.engine import run_classification
from repro.models import SmallConvNet
from repro.utils import seed_everything


def einsum_route(cols, wmat, out, cache):
    """``Backend.conv_project`` with the probe verdict forced to einsum."""
    return np.einsum("gfk,ngko->ngfo", wmat, cols, optimize=True, out=out)


def train(config):
    seed_everything(5)
    model = SmallConvNet(num_classes=4, image_size=16, config=config)
    data = SyntheticImageClassification(num_samples=48, num_classes=4, image_size=16)
    # Three one-batch epochs: ``train_loss`` is then the per-step loss history.
    history = run_classification(model, data, epochs=3, batch_size=16, lr=0.05,
                                 scheduler="none", max_batches_per_epoch=1, seed=2)
    return history, model.state_dict()


@pytest.mark.parametrize("neuron_type,hybrid_bp", [
    ("OURS", False), ("OURS", True), ("T4", True), ("T2_4", True),
])
def test_matmul_route_trains_bit_identical_to_einsum_route(monkeypatch, neuron_type,
                                                           hybrid_bp):
    config = QuadraticModelConfig(neuron_type=neuron_type, hybrid_bp=hybrid_bp,
                                  width_multiplier=0.25)
    monkeypatch.setattr(conv_ops, "_PROBE_CACHE", {})
    shipped, shipped_state = train(config)
    assert any(conv_ops._PROBE_CACHE.values()), "no shape took the matmul route"

    monkeypatch.setattr(conv_ops.reference_backend(), "conv_project", einsum_route)
    reference, reference_state = train(config)

    assert len(shipped.train_loss) == 3
    assert shipped.train_loss == reference.train_loss
    assert list(shipped_state) == list(reference_state)
    for name in shipped_state:
        np.testing.assert_array_equal(shipped_state[name], reference_state[name],
                                      err_msg=name)
