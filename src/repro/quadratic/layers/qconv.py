"""Quadratic convolution layers.

``QuadraticConv2d`` supports every non-full-rank neuron type from Table 1 by
composing standard grouped convolutions with Hadamard products — the paper's
implementation-feasibility recipe (P4).  ``QuadraticConv2dT1`` implements the
full-rank bilinear convolution (Cheung & Leung / Mantini & Shah style) whose
parameter count grows with the *square* of the patch size; it exists so the
memory-explosion numbers of P2 and Fig. 5 can be measured rather than assumed.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ...autodiff.tensor import cat as _cat, einsum as _einsum
from ...autodiff.ops.conv import _pair, conv_output_size
from ...autodiff.tensor import Tensor
from ...nn import functional as F
from ...nn import init
from ...nn.parameter import Parameter
from .base import QuadraticLayerBase

IntOrPair = Union[int, Tuple[int, int]]


class QuadraticConv2d(QuadraticLayerBase):
    """Quadratic convolution over NCHW tensors for composable neuron types.

    The supported types are T2, T3, T4, T4_ID, T2_4 (Fan et al.) and OURS —
    i.e. every design that decomposes into first-order convolutions plus
    element-wise operations.  Use :class:`QuadraticConv2dT1` for the
    full-rank T1 family.

    Parameters
    ----------
    in_channels, out_channels, kernel_size, stride, padding, groups :
        As in :class:`repro.nn.Conv2d`.
    neuron_type : str
        Canonical name or alias of the quadratic design.
    bias : bool
        Learn an additive per-channel bias applied after combination.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: IntOrPair = 3,
                 stride: IntOrPair = 1, padding: IntOrPair = 0, groups: int = 1,
                 neuron_type: str = "OURS", bias: bool = True) -> None:
        super().__init__(neuron_type)
        if "bilinear" in self.required:
            raise ValueError(
                f"neuron type {self.neuron_type} needs a full-rank bilinear term; "
                "use QuadraticConv2dT1 instead"
            )
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"channels ({in_channels}->{out_channels}) must be divisible by groups ({groups})"
            )
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.groups = int(groups)
        kh, kw = self.kernel_size
        wshape = (out_channels, in_channels // groups, kh, kw)

        if "a" in self.required:
            self.weight_a = Parameter(init.kaiming_normal(wshape))
        if "b" in self.required:
            self.weight_b = Parameter(init.kaiming_normal(wshape))
        if "c" in self.required:
            self.weight_c = Parameter(init.kaiming_normal(wshape, gain=1.0))
        if "sq" in self.required:
            self.weight_sq = Parameter(init.kaiming_normal(wshape))
        if "id" in self.required:
            if in_channels != out_channels or self.stride != (1, 1):
                raise ValueError(
                    "T4_ID requires matching channels and stride 1 so the raw input "
                    "can be added; use neuron_type='OURS' otherwise"
                )
        self.bias: Optional[Parameter] = Parameter(init.zeros((out_channels,))) if bias else None

    def _conv(self, x: Tensor, weight: Parameter) -> Tensor:
        return F.conv2d(x, weight, None, stride=self.stride, padding=self.padding,
                        groups=self.groups)

    def project(self, x: Tensor, kind: str) -> Tensor:
        if kind == "a":
            return self._conv(x, self.weight_a)
        if kind == "b":
            return self._conv(x, self.weight_b)
        if kind == "c":
            return self._conv(x, self.weight_c)
        if kind == "sq":
            return self._conv(x * x, self.weight_sq)
        if kind == "id":
            return x
        raise KeyError(f"unknown projection kind '{kind}'")

    def post_combine(self, out: Tensor) -> Tensor:
        if self.bias is not None:
            out = out + self.bias.reshape((1, self.out_channels, 1, 1))
        return out

    def output_shape(self, input_hw: Tuple[int, int]) -> Tuple[int, int]:
        """Spatial output size for a given input size (used by the profiler)."""
        h, w = input_hw
        kh, kw = self.kernel_size
        return (
            conv_output_size(h, kh, self.stride[0], self.padding[0]),
            conv_output_size(w, kw, self.stride[1], self.padding[1]),
        )

    def extra_repr(self) -> str:
        return (f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
                f"stride={self.stride}, padding={self.padding}, type={self.neuron_type}, "
                f"bias={self.bias is not None}")


class QuadraticConv2dT1(QuadraticLayerBase):
    """Full-rank bilinear convolution: each output filter applies ``pᵀ W p`` to
    every im2col patch ``p`` of size ``C·kh·kw``.

    The weight tensor has shape ``(F, K, K)`` with ``K = C·kh·kw``, i.e. the
    parameter count is quadratic in the patch size — the O(n²) column of
    Table 1 and the reason Mantini & Shah's ResNet balloons from 0.2 M to
    128 M parameters (paper P2).  The optional ``linear_term`` adds ``Wb X``
    (Cheung & Leung's original formulation).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: IntOrPair = 3,
                 stride: IntOrPair = 1, padding: IntOrPair = 0,
                 neuron_type: str = "T1_PURE", bias: bool = True) -> None:
        super().__init__(neuron_type)
        if "bilinear" not in self.required:
            raise ValueError(
                f"{self.neuron_type} is not a full-rank design; use QuadraticConv2d"
            )
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        kh, kw = self.kernel_size
        patch = in_channels * kh * kw
        self.patch_size = patch
        self.weight_bilinear = Parameter(
            init.kaiming_normal((out_channels, patch, patch), gain=1.0 / max(patch, 1) ** 0.5)
        )
        if "b" in self.required:
            self.weight_b = Parameter(init.kaiming_normal((out_channels, in_channels, kh, kw)))
        if "sq" in self.required:
            self.weight_sq = Parameter(init.kaiming_normal((out_channels, in_channels, kh, kw)))
        self.bias: Optional[Parameter] = Parameter(init.zeros((out_channels,))) if bias else None

    def project(self, x: Tensor, kind: str) -> Tensor:
        if kind == "bilinear":
            return self._bilinear(x)
        if kind == "b":
            return F.conv2d(x, self.weight_b, None, stride=self.stride, padding=self.padding)
        if kind == "sq":
            return F.conv2d(x * x, self.weight_sq, None, stride=self.stride, padding=self.padding)
        raise KeyError(f"unknown projection kind '{kind}'")

    def _bilinear(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        kh, kw = self.kernel_size
        oh = conv_output_size(h, kh, self.stride[0], self.padding[0])
        ow = conv_output_size(w, kw, self.stride[1], self.padding[1])
        # Patches as a differentiable unfold: (N, C*kh*kw, OH*OW).  The unfold
        # is assembled from GetItem slices so gradients flow back into x.
        padded = x.pad2d((self.padding[1], self.padding[1], self.padding[0], self.padding[0]))
        patches = []
        for i in range(kh):
            for j in range(kw):
                sl = padded[:, :, i:i + self.stride[0] * oh:self.stride[0],
                            j:j + self.stride[1] * ow:self.stride[1]]
                patches.append(sl.reshape(n, c, oh * ow))
        cols = _cat(patches, axis=1)                       # (N, K, L) with K = C*kh*kw
        # pᵀ W p for every filter: two einsum contractions.
        partial = _einsum("fkq,nql->nfkl", self.weight_bilinear, cols)   # (N, F, K, L)
        out = (partial * cols.unsqueeze(1)).sum(axis=2)                    # (N, F, L)
        return out.reshape(n, self.out_channels, oh, ow)

    def post_combine(self, out: Tensor) -> Tensor:
        if self.bias is not None:
            out = out + self.bias.reshape((1, self.out_channels, 1, 1))
        return out

    def extra_repr(self) -> str:
        return (f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
                f"patch={self.patch_size}, type={self.neuron_type}")
