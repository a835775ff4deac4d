"""The one static walk of a model: leaf shapes, parameter and MAC counts.

:func:`trace_leaves` pushes a single probe input through the model with
forward hooks on every leaf module and records the input and output shape of
each invocation.  Every static analyser folds over that list: the
``#Param``/MACs columns of Table 3 and the RI layer-performance indicator
(Eq. 5) through :func:`profile_model`, the PPML online cost through
:func:`repro.ppml.count_operations`, and the capacity planner's kernel-class
work through :func:`repro.capacity.request_work`.  Shapes are measured, not
estimated, so conv MACs are exact at every resolution.

This module also owns what those analysers share about layers: the
quadratic layer families (:data:`QUADRATIC_CONVS`, :data:`QUADRATIC_LINEARS`),
their weight sets (:func:`weight_sets`) and the conv MAC formula
(:func:`conv_macs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..autodiff import no_grad
from ..autodiff.tensor import Tensor
from ..nn.layers.conv import Conv2d
from ..nn.layers.linear import Linear
from ..nn.module import Module
from ..nn.parameter import Parameter
from ..quadratic.layers.hybrid import HybridQuadraticLinear
from ..quadratic.layers.qconv import QuadraticConv2d, QuadraticConv2dT1
from ..quadratic.layers.qlinear import QuadraticLinear

Shape = Tuple[int, ...]
#: ``(in_shape, out_shape)`` of every forward invocation of one leaf.
Calls = List[Tuple[Shape, Shape]]

#: Composable quadratic convolutions: one projection per weight set plus an
#: element-wise combine (the ``hybrid_bp=True`` ``Hybrid*`` classes subclass it).
QUADRATIC_CONVS = (QuadraticConv2d,)
QUADRATIC_LINEARS = (QuadraticLinear, HybridQuadraticLinear)


@dataclass
class LayerProfile:
    """Parameter count and MACs of a single leaf layer."""

    name: str
    layer_type: str
    parameters: int
    macs: int
    output_shape: Tuple[int, ...] = ()


@dataclass
class ModelProfile:
    """Aggregate profile of a model."""

    layers: List[LayerProfile] = field(default_factory=list)

    @property
    def total_parameters(self) -> int:
        return sum(l.parameters for l in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    def by_name(self, name: str) -> LayerProfile:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named '{name}' in profile")


def trace_leaves(model: Module, input_shape: Tuple[int, ...],
                 batch_size: int = 1) -> List[Tuple[str, Module, Calls]]:
    """Every leaf of ``model`` with the shapes of each of its invocations.

    One eval-mode, ``no_grad`` probe forward of zeros shaped
    ``(batch_size, *input_shape)``.  Leaves come back in ``named_modules``
    order; a module shared across call sites (the one ReLU a residual block
    applies twice) lists one entry per invocation, and a leaf the forward
    never reaches lists none.
    """
    calls: Dict[int, Calls] = {}
    leaves: List[Tuple[str, Module, Calls]] = []
    removers = []

    def hook(module, inputs, output):
        if isinstance(output, Tensor):
            in_shape = inputs[0].shape if inputs and isinstance(inputs[0], Tensor) else ()
            calls[id(module)].append((in_shape, output.shape))

    for name, module in model.named_modules():
        if module._modules:
            continue
        if id(module) not in calls:
            calls[id(module)] = []
            removers.append(module.register_forward_hook(hook))
        leaves.append((name, module, calls[id(module)]))

    probe = Tensor(np.zeros((batch_size,) + tuple(input_shape), dtype=np.float32))
    was_training = model.training
    model.train(False)
    try:
        with no_grad():
            model(probe)
    finally:
        model.train(was_training)
        for remove in removers:
            remove()
    return leaves


def weight_sets(module: Module) -> List[Parameter]:
    """The weight tensors of a layer (one per projection of a quadratic neuron)."""
    return [p for n, p in module._parameters.items() if n.startswith("weight")]


def conv_macs(out_shape: Shape, patch: int, n_weight_sets: int = 1,
              elementwise: int = 0) -> int:
    """MACs of a convolution producing ``out_shape`` ``(N, F, OH, OW)``.

    ``patch`` is the receptive-field size one output reads (``C/g·kh·kw``);
    ``elementwise`` adds per-output combine work on top of the projections.
    """
    n, f, oh, ow = out_shape
    return n * (n_weight_sets * f * patch + elementwise * f) * oh * ow


def _leaf_macs(module: Module, out_shape: Shape) -> int:
    if isinstance(module, Conv2d):
        return conv_macs(out_shape, int(np.prod(module.weight.shape[1:])))
    if isinstance(module, QUADRATIC_CONVS):
        weights = weight_sets(module)
        return conv_macs(out_shape, int(np.prod(weights[0].shape[1:])),
                         n_weight_sets=len(weights), elementwise=2)
    if isinstance(module, QuadraticConv2dT1):
        return conv_macs(out_shape, module.patch_size ** 2)
    batch = int(np.prod(out_shape[:-1]))
    if isinstance(module, Linear):
        return module.in_features * module.out_features * batch
    if isinstance(module, QUADRATIC_LINEARS):
        return len(weight_sets(module)) * module.in_features * module.out_features * batch
    # BatchNorm and other small parametric layers: about one MAC per element.
    return int(np.prod(out_shape))


def layer_profile(name: str, module: Module, calls: Calls) -> Optional[LayerProfile]:
    """Profile row of one traced leaf, or ``None`` for parameter-free layers."""
    params = sum(p.size for p in module._parameters.values() if p is not None)
    if not params:
        return None
    macs = sum(_leaf_macs(module, out_shape) for _, out_shape in calls)
    out_shape = calls[-1][1] if calls else ()
    return LayerProfile(name, type(module).__name__, params, macs, out_shape)


def profile_model(model: Module, input_shape: Tuple[int, int, int],
                  batch_size: int = 1) -> ModelProfile:
    """Profile parameters and MACs of every parametric leaf layer."""
    rows = (layer_profile(*leaf) for leaf in trace_leaves(model, input_shape, batch_size))
    return ModelProfile([row for row in rows if row is not None])


def count_parameters(model: Module) -> int:
    """Trainable parameter count (the paper's #Param column)."""
    return model.num_parameters()
