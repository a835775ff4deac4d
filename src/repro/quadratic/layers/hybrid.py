"""Hybrid back-propagation quadratic layers (the paper's quadratic optimizer).

Default automatic differentiation builds the quadratic layer out of many
primitive nodes — three convolutions plus a Hadamard product — and each node
caches its own inputs for the backward pass.  In particular the Hadamard
product keeps *both* first-order responses ``Wa X`` and ``Wb X`` alive for the
whole forward/backward round trip, which is exactly the extra intermediate
memory the paper's P6 complains about.

The hybrid scheme (paper Sec. 4.3) instead treats the whole quadratic layer
as a *single* autograd node whose backward pass is written symbolically:

.. math::

    \\partial L/\\partial W_a = (\\partial L/\\partial X^{k+1} \\odot W_b X)\\; X^T

so only the layer input ``X`` and the weights need to be cached, and the two
first-order responses are recomputed on demand during backward.  Everything
outside quadratic layers (BatchNorm, pooling, losses) still uses ordinary AD —
hence *hybrid*.

One node, :class:`HybridQuadraticConv2dFunction`, serves every design of the
form ``(Wa X) ∘ (Wb X)`` plus an optional ``Wc X`` or ``Wsq X²`` term: OURS,
T4 and T2_4 (Fan et al.).  It lowers ``X`` once, shares the columns between
all projections like the compiled kernel does, and runs the projection and
both gradients on the reference backend that eager convolutions use.  The
three layer classes are :class:`~repro.quadratic.layers.qconv.QuadraticConv2d`
with only ``forward`` replaced: same parameters, and the forward values and
gradients of the composed layer bit for bit (the T2_4 input gradient sums its
terms in another order than autograd, so it agrees to rounding), at lower
training memory (measured by ``bench_fig8_hybrid_bp``).
``HybridQuadraticLinear`` is the dense ``OURS`` counterpart.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...autodiff.function import Context, Function
from ...autodiff.ops.conv import conv_output_size, grouped_cols, project, reference_backend
from ...autodiff.tensor import Tensor
from ...nn import init
from ...nn.module import Module
from ...nn.parameter import Parameter
from ..functional import REQUIRED_RESPONSES
from .qconv import IntOrPair, QuadraticConv2d


# --------------------------------------------------------------------------- #
# Single-node quadratic convolution (symbolic backward)
# --------------------------------------------------------------------------- #

class HybridQuadraticConv2dFunction(Function):
    """``out = conv(x, Wa) ∘ conv(x, Wb) [+ conv(x, Wc) | + conv(x², Wsq)] + bias``.

    The weights follow ``REQUIRED_RESPONSES[neuron_type]`` (OURS, T4 or
    T2_4) and may be followed by the bias.  Only ``x`` and the weights are
    saved for backward; the first-order responses are recomputed
    symbolically, mirroring Eq. 7 of the paper.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, *params: np.ndarray, neuron_type: str = "OURS",
                stride=(1, 1), padding=(0, 0), groups: int = 1) -> np.ndarray:
        required = REQUIRED_RESPONSES[neuron_type]
        weights, bias = params[:len(required)], params[len(required):]
        f, _, kh, kw = weights[0].shape
        # One lowering shared by every projection (im2col(x²) == im2col(x)²).
        sources = _sources(grouped_cols(x, kh, kw, stride, padding, groups), required)
        responses = [project(src, _wmat(w, groups)) for src, w in zip(sources, weights)]
        out = reference_backend().combine(neuron_type, responses)
        out = out.reshape(x.shape[0], f,
                          conv_output_size(x.shape[2], kh, stride[0], padding[0]),
                          conv_output_size(x.shape[3], kw, stride[1], padding[1]))
        if bias:
            out += bias[0].reshape(1, f, 1, 1)
        ctx.required, ctx.stride, ctx.padding, ctx.groups = required, stride, padding, groups
        ctx.has_bias = bool(bias)
        # Deliberately *not* saving the responses — that is the whole point.
        ctx.save_for_backward(x, *weights)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x, *weights = ctx.saved_tensors
        required, stride, padding, groups = ctx.required, ctx.stride, ctx.padding, ctx.groups
        needs = ctx.needs_input_grad
        be = reference_backend()
        _, _, kh, kw = weights[0].shape
        wmats = [_wmat(w, groups) for w in weights]
        grad = np.ascontiguousarray(grad)
        grad_g = grad.reshape(grad.shape[0], groups, wmats[0].shape[1], -1)

        # Recompute the first-order responses (symbolic differentiation step).
        sources = _sources(grouped_cols(x, kh, kw, stride, padding, groups), required)
        a, b = project(sources[0], wmats[0]), project(sources[1], wmats[1])
        # ∂out/∂response: Wb X for Wa, Wa X for Wb, 1 for the third term.
        response_grads = [grad_g * b, grad_g * a, grad_g][:len(required)]

        gx = None
        if needs[0]:
            parts = [be.conv_input_grad(wmat, g, x.shape, kh, kw, stride, padding)
                     for wmat, g in zip(wmats, response_grads)]
            if required[-1] == "sq":
                # ∂(conv(x², Wsq))/∂x = 2x ∘ conv-input-grad — the chain rule
                # of Eq. 7 applied to the squared-input path.
                parts[-1] = 2.0 * x * parts[-1]
            gx = parts[0] + parts[1]
            if len(parts) > 2:
                gx = gx + parts[2]
        grads = [gx]
        for source, w, g in zip(sources, weights, response_grads):
            needed = needs[len(grads)]
            grads.append(be.conv_weight_grad(g, source).reshape(w.shape) if needed else None)
        if ctx.has_bias:
            grads.append(grad.sum(axis=(0, 2, 3)) if needs[len(grads)] else None)
        return tuple(grads)


def _sources(cols: np.ndarray, required) -> list:
    """The lowered operand of each projection: the columns, squared for ``sq``."""
    return [cols * cols if kind == "sq" else cols for kind in required]


def _wmat(w: np.ndarray, groups: int) -> np.ndarray:
    return w.reshape(groups, w.shape[0] // groups, -1)


class _HybridConv2d(QuadraticConv2d):
    """A ``QuadraticConv2d`` whose forward is one symbolic-backward node."""

    hybrid_type: str

    def __init__(self, in_channels: int, out_channels: int, kernel_size: IntOrPair = 3,
                 stride: IntOrPair = 1, padding: IntOrPair = 0, groups: int = 1,
                 bias: bool = True) -> None:
        super().__init__(in_channels, out_channels, kernel_size, stride, padding, groups,
                         neuron_type=self.hybrid_type, bias=bias)

    def forward(self, x: Tensor) -> Tensor:
        args = [x, *(getattr(self, f"weight_{kind}") for kind in self.required)]
        if self.bias is not None:
            args.append(self.bias)
        return HybridQuadraticConv2dFunction.apply(
            *args, neuron_type=self.neuron_type, stride=self.stride, padding=self.padding,
            groups=self.groups)


class HybridQuadraticConv2d(_HybridConv2d):
    """Memory-efficient drop-in for ``QuadraticConv2d(neuron_type='OURS')``."""

    hybrid_type = "OURS"


class HybridQuadraticConv2dT4(_HybridConv2d):
    """Memory-efficient drop-in for ``QuadraticConv2d(neuron_type='T4')``."""

    hybrid_type = "T4"


class HybridQuadraticConv2dFan(_HybridConv2d):
    """Memory-efficient drop-in for ``QuadraticConv2d(neuron_type='T2_4')`` (Fan et al.)."""

    hybrid_type = "T2_4"


# --------------------------------------------------------------------------- #
# Dense variant
# --------------------------------------------------------------------------- #

class HybridQuadraticLinearFunction(Function):
    """``out = (x Waᵀ) ∘ (x Wbᵀ) + x Wcᵀ + bias`` as a single autograd node."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, wa: np.ndarray, wb: np.ndarray,
                wc: np.ndarray, bias: Optional[np.ndarray] = None) -> np.ndarray:
        a = x @ wa.T
        b = x @ wb.T
        out = a * b + x @ wc.T
        if bias is not None:
            out += bias
        ctx.has_bias = bias is not None
        ctx.save_for_backward(x, wa, wb, wc)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x, wa, wb, wc = ctx.saved_tensors
        a = x @ wa.T
        b = x @ wb.T
        grad_a = grad * b
        grad_b = grad * a
        gx = gwa = gwb = gwc = gbias = None
        if ctx.needs_input_grad[0]:
            gx = grad_a @ wa + grad_b @ wb + grad @ wc
        if ctx.needs_input_grad[1]:
            gwa = grad_a.T @ x
        if ctx.needs_input_grad[2]:
            gwb = grad_b.T @ x
        if ctx.needs_input_grad[3]:
            gwc = grad.T @ x
        if ctx.has_bias and len(ctx.needs_input_grad) > 4 and ctx.needs_input_grad[4]:
            gbias = grad.sum(axis=0)
        return gx, gwa, gwb, gwc, gbias


class HybridQuadraticLinear(Module):
    """Memory-efficient drop-in for ``QuadraticLinear(neuron_type='OURS')``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        shape = (out_features, in_features)
        self.weight_a = Parameter(init.kaiming_uniform(shape))
        self.weight_b = Parameter(init.kaiming_uniform(shape))
        self.weight_c = Parameter(init.kaiming_uniform(shape, gain=1.0))
        self.bias: Optional[Parameter] = Parameter(init.zeros((out_features,))) if bias else None
        self.neuron_type = "OURS"

    def forward(self, x: Tensor) -> Tensor:
        args = [x, self.weight_a, self.weight_b, self.weight_c]
        if self.bias is not None:
            args.append(self.bias)
        return HybridQuadraticLinearFunction.apply(*args)

    def extra_repr(self) -> str:
        return (f"in_features={self.in_features}, out_features={self.out_features}, "
                f"hybrid_bp=True")
