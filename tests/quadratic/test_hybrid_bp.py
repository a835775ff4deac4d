"""Tests of the hybrid back-propagation layers: correctness and memory savings."""

import numpy as np
import pytest

from repro.autodiff import Tensor, randn
from repro.profiler import MemoryTracker
from repro.quadratic import (
    HybridQuadraticConv2d,
    HybridQuadraticLinear,
    QuadraticConv2d,
    QuadraticLinear,
)


def _copy_weights(source, target, names=("weight_a", "weight_b", "weight_c", "bias")):
    for name in names:
        src = getattr(source, name, None)
        dst = getattr(target, name, None)
        if src is not None and dst is not None:
            dst.data[...] = src.data


class TestHybridConvCorrectness:
    def _pair(self, in_c=3, out_c=5, **kwargs):
        composed = QuadraticConv2d(in_c, out_c, kernel_size=3, padding=1,
                                   neuron_type="OURS", **kwargs)
        hybrid = HybridQuadraticConv2d(in_c, out_c, kernel_size=3, padding=1, **kwargs)
        _copy_weights(composed, hybrid)
        return composed, hybrid

    def test_forward_identical(self):
        composed, hybrid = self._pair()
        x = randn(2, 3, 8, 8)
        np.testing.assert_array_equal(composed(x).data, hybrid(x).data)

    def test_input_gradients_identical(self):
        composed, hybrid = self._pair()
        x1 = randn(2, 3, 7, 7, requires_grad=True)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        composed(x1).sum().backward()
        hybrid(x2).sum().backward()
        np.testing.assert_array_equal(x1.grad, x2.grad)

    def test_weight_gradients_identical(self):
        composed, hybrid = self._pair()
        x = randn(2, 3, 7, 7)
        composed(Tensor(x.data)).sum().backward()
        hybrid(Tensor(x.data)).sum().backward()
        for name in ("weight_a", "weight_b", "weight_c", "bias"):
            np.testing.assert_array_equal(getattr(composed, name).grad,
                                          getattr(hybrid, name).grad, err_msg=name)

    def test_non_unit_upstream_gradient(self):
        composed, hybrid = self._pair()
        x = randn(1, 3, 6, 6)
        upstream = np.random.default_rng(0).normal(size=(1, 5, 6, 6)).astype(np.float32)
        composed(Tensor(x.data)).backward(upstream)
        hybrid(Tensor(x.data)).backward(upstream)
        np.testing.assert_array_equal(composed.weight_a.grad, hybrid.weight_a.grad)

    def test_strided_and_grouped(self):
        composed = QuadraticConv2d(4, 8, kernel_size=3, stride=2, padding=1, groups=2,
                                   neuron_type="OURS")
        hybrid = HybridQuadraticConv2d(4, 8, kernel_size=3, stride=2, padding=1, groups=2)
        _copy_weights(composed, hybrid)
        x = randn(2, 4, 8, 8)
        np.testing.assert_array_equal(composed(x).data, hybrid(x).data)

    def test_numeric_weight_gradient(self, numgrad):
        hybrid = HybridQuadraticConv2d(2, 3, kernel_size=3, padding=1, bias=False)
        x = randn(1, 2, 5, 5)

        def run():
            return float(hybrid(Tensor(x.data)).sum().data)

        hybrid(Tensor(x.data)).sum().backward()
        expected = numgrad(run, hybrid.weight_b.data)
        assert np.allclose(hybrid.weight_b.grad, expected, atol=5e-2)

    def test_no_bias_variant(self):
        hybrid = HybridQuadraticConv2d(3, 4, kernel_size=3, padding=1, bias=False)
        assert hybrid.bias is None
        out = hybrid(randn(1, 3, 6, 6))
        out.sum().backward()
        assert hybrid.weight_a.grad is not None


class TestHybridLinearCorrectness:
    def _pair(self, in_f=10, out_f=6):
        composed = QuadraticLinear(in_f, out_f, neuron_type="OURS")
        hybrid = HybridQuadraticLinear(in_f, out_f)
        _copy_weights(composed, hybrid)
        return composed, hybrid

    def test_forward_identical(self):
        composed, hybrid = self._pair()
        x = randn(4, 10)
        assert np.allclose(composed(x).data, hybrid(x).data, atol=1e-5)

    def test_gradients_identical(self):
        composed, hybrid = self._pair()
        x1 = randn(4, 10, requires_grad=True)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        composed(x1).sum().backward()
        hybrid(x2).sum().backward()
        assert np.allclose(x1.grad, x2.grad, atol=1e-4)
        for name in ("weight_a", "weight_b", "weight_c", "bias"):
            assert np.allclose(getattr(composed, name).grad, getattr(hybrid, name).grad,
                               atol=1e-4), name


class TestHybridMemorySavings:
    """The whole point of hybrid BP (paper Fig. 8): fewer cached intermediates."""

    def test_conv_saves_intermediate_memory(self):
        composed = QuadraticConv2d(8, 16, kernel_size=3, padding=1, neuron_type="OURS")
        hybrid = HybridQuadraticConv2d(8, 16, kernel_size=3, padding=1)
        _copy_weights(composed, hybrid)
        x = randn(4, 8, 16, 16, requires_grad=True)

        with MemoryTracker() as tracker_composed:
            composed(x).sum().backward()
        x.grad = None
        with MemoryTracker() as tracker_hybrid:
            hybrid(x).sum().backward()

        assert tracker_hybrid.peak_bytes < tracker_composed.peak_bytes
        # The Hadamard product alone caches two (N, F, H, W) responses.
        saved = tracker_composed.peak_bytes - tracker_hybrid.peak_bytes
        response_bytes = 4 * 16 * 16 * 16 * 4
        assert saved >= response_bytes

    def test_saving_fraction_in_plausible_range(self):
        # The paper reports ~26.7% on its ConvNet; exact numbers differ on the
        # substrate but the saving should be substantial (10–80%).
        composed = QuadraticConv2d(4, 8, kernel_size=3, padding=1, neuron_type="OURS")
        hybrid = HybridQuadraticConv2d(4, 8, kernel_size=3, padding=1)
        _copy_weights(composed, hybrid)
        x = randn(2, 4, 12, 12)
        with MemoryTracker() as t_composed:
            composed(Tensor(x.data, requires_grad=True)).sum().backward()
        with MemoryTracker() as t_hybrid:
            hybrid(Tensor(x.data, requires_grad=True)).sum().backward()
        saving = 1 - t_hybrid.peak_bytes / t_composed.peak_bytes
        assert 0.1 < saving < 0.9

    def test_memory_released_after_backward(self):
        hybrid = HybridQuadraticConv2d(3, 6, kernel_size=3, padding=1)
        with MemoryTracker() as tracker:
            hybrid(randn(2, 3, 8, 8, requires_grad=True)).sum().backward()
        assert tracker.current_bytes == 0
        assert tracker.peak_bytes > 0

    def test_training_step_updates_weights(self):
        from repro.optim import SGD

        hybrid = HybridQuadraticConv2d(3, 4, kernel_size=3, padding=1)
        opt = SGD(hybrid.parameters(), lr=0.01)
        before = hybrid.weight_a.data.copy()
        out = hybrid(randn(2, 3, 8, 8))
        out.sum().backward()
        opt.step()
        assert not np.allclose(before, hybrid.weight_a.data)
