"""Tests for the Π-net style polynomial layers (PolyLinear / PolyConv2d)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.autodiff import no_grad, randn
from repro.autodiff.tensor import Tensor
from repro.data import TensorDataset
from repro.data.synthetic import xor_dataset
from repro.engine import run_classification
from repro.quadratic import PolyConv2d, PolyLinear, polynomial_layer, typenew


def rand(*shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape).astype(np.float32),
                  requires_grad=True)


# --------------------------------------------------------------------------- #
# Construction and shapes
# --------------------------------------------------------------------------- #

def test_invalid_order_raises():
    with pytest.raises(ValueError):
        PolyLinear(4, 4, order=0)
    with pytest.raises(ValueError):
        PolyConv2d(3, 8, order=-1)


def test_poly_linear_shapes_and_parameter_growth():
    x = rand(5, 6)
    params_by_order = []
    for order in (1, 2, 3, 4):
        layer = PolyLinear(6, 7, order=order)
        assert layer(x).shape == (5, 7)
        params_by_order.append(layer.num_parameters())
    # One extra 6x7 projection per additional order (bias is shared).
    diffs = np.diff(params_by_order)
    assert np.all(diffs == 6 * 7)


def test_poly_conv_shapes_and_parameter_growth():
    x = rand(2, 3, 10, 10)
    params_by_order = []
    for order in (1, 2, 3):
        layer = PolyConv2d(3, 8, kernel_size=3, padding=1, order=order)
        assert layer(x).shape == (2, 8, 10, 10)
        params_by_order.append(layer.num_parameters())
    diffs = np.diff(params_by_order)
    assert np.all(diffs == 8 * 3 * 3 * 3)


def test_poly_conv_stride_and_no_bias():
    layer = PolyConv2d(3, 4, kernel_size=3, stride=2, padding=1, order=2, bias=False)
    out = layer(rand(1, 3, 8, 8))
    assert out.shape == (1, 4, 4, 4)
    assert layer.bias is None


def test_polynomial_layer_factory_dispatch():
    dense = polynomial_layer(6, 7, order=3)
    conv = polynomial_layer(3, 8, order=2, kernel_size=3, padding=1)
    assert isinstance(dense, PolyLinear) and dense.order == 3
    assert isinstance(conv, PolyConv2d) and conv.order == 2


# --------------------------------------------------------------------------- #
# Semantics
# --------------------------------------------------------------------------- #

def test_order_one_equals_plain_linear_projection():
    layer = PolyLinear(5, 3, order=1, bias=False)
    x = rand(4, 5)
    expected = x.data @ layer.projections[0].weight.data.T
    np.testing.assert_allclose(layer(x).data, expected, rtol=1e-5, atol=1e-6)


def test_order_two_matches_tied_quadratic_formula():
    # x2 = (U2 z) ∘ (U1 z) + U1 z  — the paper's Eq. 2 with Wb = Wc tied.
    layer = PolyLinear(5, 3, order=2, bias=False)
    z = rand(4, 5)
    u1 = z.data @ layer.projections[0].weight.data.T
    u2 = z.data @ layer.projections[1].weight.data.T
    expected = u2 * u1 + u1
    np.testing.assert_allclose(layer(z).data, expected, rtol=1e-5, atol=1e-5)


def test_gradients_flow_to_every_projection():
    layer = PolyConv2d(3, 4, kernel_size=3, padding=1, order=3)
    x = rand(2, 3, 6, 6)
    layer(x).sum().backward()
    assert x.grad is not None and np.isfinite(x.grad).all()
    for projection in layer.projections:
        assert projection.weight.grad is not None
        assert np.abs(projection.weight.grad).sum() > 0


def test_poly_linear_numeric_gradient(numgrad):
    layer = PolyLinear(4, 3, order=3)
    x_data = np.random.default_rng(1).normal(size=(2, 4)).astype(np.float32)

    def loss_value():
        with no_grad():
            return float(layer(Tensor(x_data)).sum().item())

    weight = layer.projections[1].weight
    expected = numgrad(loss_value, weight.data)
    x = Tensor(x_data)
    layer(x).sum().backward()
    np.testing.assert_allclose(weight.grad, expected, rtol=2e-2, atol=2e-2)
    layer.zero_grad()


@given(order=st.integers(min_value=1, max_value=4))
@settings(max_examples=8, deadline=None)
def test_output_is_polynomial_of_declared_degree(order):
    """The (order+1)-th finite difference of t ↦ f(x + t·v) vanishes."""
    layer = PolyLinear(3, 2, order=order, bias=False)
    rng = np.random.default_rng(order)
    x0 = rng.normal(size=(1, 3)).astype(np.float64)
    v = rng.normal(size=(1, 3)).astype(np.float64)

    h = 0.5
    steps = order + 2
    with no_grad():
        values = np.array([
            float(layer(Tensor((x0 + (i * h) * v).astype(np.float32))).sum().item())
            for i in range(steps)
        ], dtype=np.float64)
    diffs = values
    for _ in range(order + 1):
        diffs = np.diff(diffs)
    scale = max(np.abs(values).max(), 1.0)
    assert np.all(np.abs(diffs) <= 5e-3 * scale)


# --------------------------------------------------------------------------- #
# Integration
# --------------------------------------------------------------------------- #

def test_poly_conv_composes_in_sequential_and_trains():
    x, y = xor_dataset(200)
    dataset = TensorDataset(x, y)
    model = nn.Sequential(PolyLinear(2, 8, order=2), nn.ReLU(), nn.Linear(8, 2))
    history = run_classification(model, dataset, epochs=10, batch_size=32, lr=0.05)
    assert history.final_train_accuracy > 0.6


def test_poly_conv_in_small_cnn_forward_backward():
    model = nn.Sequential(
        PolyConv2d(3, 8, kernel_size=3, padding=1, order=3),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 5),
    )
    x = randn(4, 3, 12, 12)
    out = model(x)
    assert out.shape == (4, 5)
    out.sum().backward()
    for p in model.parameters():
        if p.requires_grad:
            assert p.grad is not None


def test_untied_quadratic_layer_has_more_parameters_than_order2_poly():
    # The paper's OURS neuron owns three untied weight sets; the order-2 Π-net
    # recursion ties the Hadamard factor to the linear path, so it owns two.
    poly = PolyConv2d(3, 8, kernel_size=3, padding=1, order=2, bias=False)
    ours = typenew(3, 8, kernel_size=3, padding=1, bias=False)
    assert ours.num_parameters() == 3 * 8 * 3 * 3 * 3
    assert poly.num_parameters() == 2 * 8 * 3 * 3 * 3
