"""Tests for the symbolic-backward (hybrid BP) variants of T4 and Fan (T2&4) convolutions.

The paper's quadratic optimizer applies the same save-less/recompute scheme to
every quadratic design; these tests verify the two additional published
designs produce bit-identical forward values and gradients with their
composed-autodiff counterparts while caching fewer intermediates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import no_grad
from repro.autodiff.tensor import Tensor
from repro.builder import AutoBuilder
from repro.nn import Conv2d, Sequential
from repro.profiler import MemoryTracker
from repro.quadratic import (
    HybridQuadraticConv2dFan,
    HybridQuadraticConv2dT4,
    QuadraticConv2d,
    quadratic_layer,
)

RTOL, ATOL = 1e-4, 1e-5


def make_pair(hybrid_cls, neuron_type, in_channels=3, out_channels=5, **kwargs):
    """A hybrid layer and a composed layer with identical weights."""
    hybrid = hybrid_cls(in_channels, out_channels, kernel_size=3, padding=1, **kwargs)
    composed = QuadraticConv2d(in_channels, out_channels, kernel_size=3, padding=1,
                               neuron_type=neuron_type, **kwargs)
    composed.load_state_dict(hybrid.state_dict())
    return hybrid, composed


def random_input(seed=0, shape=(2, 3, 8, 8)):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


@pytest.mark.parametrize("hybrid_cls,neuron_type", [
    (HybridQuadraticConv2dT4, "T4"),
    (HybridQuadraticConv2dFan, "T2_4"),
])
class TestHybridGeneralEquivalence:
    def test_forward_identical(self, hybrid_cls, neuron_type):
        hybrid, composed = make_pair(hybrid_cls, neuron_type)
        x = random_input()
        with no_grad():
            np.testing.assert_array_equal(hybrid(Tensor(x)).data, composed(Tensor(x)).data)

    def test_input_and_weight_gradients_identical(self, hybrid_cls, neuron_type):
        hybrid, composed = make_pair(hybrid_cls, neuron_type)
        x_data = random_input(seed=1)

        def run(layer):
            layer.zero_grad()
            x = Tensor(x_data.copy(), requires_grad=True)
            (layer(x) * Tensor(np.full((1,), 0.5, dtype=np.float32))).sum().backward()
            grads = {name: p.grad.copy() for name, p in layer._parameters.items()
                     if p is not None and p.grad is not None}
            return x.grad.copy(), grads

        hybrid_x_grad, hybrid_grads = run(hybrid)
        composed_x_grad, composed_grads = run(composed)
        if neuron_type == "T2_4":
            # 2x·dX² joins the sum last here, but autograd accumulates it into
            # x.grad in graph order: the bits differ by up to ~2e-6.
            np.testing.assert_allclose(hybrid_x_grad, composed_x_grad, rtol=RTOL, atol=ATOL)
        else:
            np.testing.assert_array_equal(hybrid_x_grad, composed_x_grad)
        assert set(hybrid_grads) == set(composed_grads)
        for name in hybrid_grads:
            np.testing.assert_array_equal(hybrid_grads[name], composed_grads[name],
                                          err_msg=name)

    def test_no_bias_and_stride_variants(self, hybrid_cls, neuron_type):
        hybrid = hybrid_cls(4, 6, kernel_size=3, stride=2, padding=1, bias=False)
        composed = QuadraticConv2d(4, 6, kernel_size=3, stride=2, padding=1,
                                   neuron_type=neuron_type, bias=False)
        composed.load_state_dict(hybrid.state_dict())
        x = random_input(seed=2, shape=(2, 4, 9, 9))
        with no_grad():
            h = hybrid(Tensor(x))
            c = composed(Tensor(x))
        assert h.shape == c.shape == (2, 6, 5, 5)
        np.testing.assert_array_equal(h.data, c.data)

    def test_caches_less_memory_than_composed(self, hybrid_cls, neuron_type):
        hybrid, composed = make_pair(hybrid_cls, neuron_type, in_channels=3, out_channels=8)
        x = random_input(seed=3, shape=(4, 3, 16, 16))

        def peak(layer):
            with MemoryTracker() as tracker:
                layer(Tensor(x, requires_grad=True)).sum().backward()
            layer.zero_grad()
            return tracker.peak_bytes

        assert peak(hybrid) < peak(composed)


def test_numeric_weight_gradient_fan_squared_path(numgrad):
    """The Fan design's squared-input path has its own chain rule — check it numerically."""
    layer = HybridQuadraticConv2dFan(2, 3, kernel_size=3, padding=1)
    x_data = random_input(seed=4, shape=(2, 2, 5, 5))

    def loss_value():
        with no_grad():
            return float(layer(Tensor(x_data)).sum().item())

    expected = numgrad(loss_value, layer.weight_sq.data)
    layer.zero_grad()
    layer(Tensor(x_data)).sum().backward()
    np.testing.assert_allclose(layer.weight_sq.grad, expected, rtol=2e-2, atol=2e-2)


def test_numeric_input_gradient_fan(numgrad):
    layer = HybridQuadraticConv2dFan(2, 2, kernel_size=3, padding=1, bias=False)
    x_data = random_input(seed=5, shape=(1, 2, 4, 4))

    def loss_value():
        with no_grad():
            return float(layer(Tensor(x_data)).sum().item())

    expected = numgrad(loss_value, x_data)
    x = Tensor(x_data, requires_grad=True)
    layer(x).sum().backward()
    np.testing.assert_allclose(x.grad, expected, rtol=2e-2, atol=2e-2)


def test_factory_dispatches_hybrid_for_t4_and_fan():
    t4 = quadratic_layer("T4", 3, 8, kernel_size=3, padding=1, hybrid_bp=True)
    fan = quadratic_layer("fan", 3, 8, kernel_size=3, padding=1, hybrid_bp=True)
    composed = quadratic_layer("T2", 3, 8, kernel_size=3, padding=1, hybrid_bp=True)
    assert isinstance(t4, HybridQuadraticConv2dT4)
    assert isinstance(fan, HybridQuadraticConv2dFan)
    assert isinstance(composed, QuadraticConv2d)  # no symbolic backward for T2 → fallback


def test_autobuilder_uses_hybrid_layers_for_fan_design():
    model = Sequential(Conv2d(3, 8, 3, padding=1), Conv2d(8, 8, 3, padding=1))
    AutoBuilder(neuron_type="T2_4", hybrid_bp=True).convert(model)
    converted = [m for m in model.modules() if isinstance(m, HybridQuadraticConv2dFan)]
    assert len(converted) == 2
