"""Operation counting and PPML cost estimation for whole models.

The analysis folds over :func:`repro.profiler.flops.trace_leaves` — the one
probe forward that records the shapes of every leaf layer, shared with the
profiler and the capacity planner — and classifies each layer into the three
online primitives a hybrid PPML protocol distinguishes:

* ``macs`` — multiply-accumulates inside linear / convolution layers
  (pre-processed or HE-evaluated, cheap per-op),
* ``relu_ops`` — non-linear comparisons (ReLU, LeakyReLU, max-pooling),
  evaluated with garbled circuits in hybrid protocols and impossible in
  HE-only protocols,
* ``mult_ops`` — secure element-wise multiplications (square activations and
  the Hadamard products inside quadratic layers), one Beaver triple each.

Combining the counts with a :class:`~repro.ppml.protocols.Protocol` gives the
per-layer and total online cost, which is the quantity the paper's PPML
motivation is about: converting ReLU networks to quadratic ones moves the
dominant cost from the ``relu_ops`` column to the much cheaper ``mult_ops``
column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn.layers.activations import GELU, LeakyReLU, ReLU, Sigmoid, Square, Tanh
from ..nn.layers.conv import Conv2d
from ..nn.layers.linear import Linear
from ..nn.layers.normalization import BatchNorm1d, BatchNorm2d, LayerNorm
from ..nn.layers.pooling import AdaptiveAvgPool2d, AvgPool2d, GlobalAvgPool2d, MaxPool2d
from ..nn.module import Module
from ..profiler.flops import (
    QUADRATIC_CONVS,
    QUADRATIC_LINEARS,
    conv_macs,
    trace_leaves,
    weight_sets,
)
from ..quadratic.functional import REQUIRED_RESPONSES
from ..quadratic.layers.qconv import QuadraticConv2dT1
from ..utils.logging import format_table
from .protocols import Protocol, ProtocolCost, resolve_protocol


@dataclass
class LayerOperations:
    """Online-operation counts of one leaf layer."""

    name: str
    layer_type: str
    macs: int = 0
    relu_ops: int = 0
    mult_ops: int = 0
    output_shape: Tuple[int, ...] = ()
    #: forward invocations the counts cover — modules shared across call
    #: sites (e.g. the one ReLU a residual block applies twice) accumulate.
    calls: int = 1

    @property
    def is_nonlinear(self) -> bool:
        return self.relu_ops > 0 or self.mult_ops > 0


@dataclass
class LayerCost:
    """Per-layer online cost under one protocol."""

    operations: LayerOperations
    linear: ProtocolCost
    relu: ProtocolCost
    mult: ProtocolCost

    @property
    def total(self) -> ProtocolCost:
        return self.linear + self.relu + self.mult


@dataclass
class CostReport:
    """Total online cost of a model under one protocol."""

    protocol: Protocol
    layers: List[LayerCost] = field(default_factory=list)

    @property
    def total(self) -> ProtocolCost:
        total = ProtocolCost()
        for layer in self.layers:
            total += layer.total
        return total

    @property
    def relu_total(self) -> ProtocolCost:
        total = ProtocolCost()
        for layer in self.layers:
            total += layer.relu
        return total

    @property
    def mult_total(self) -> ProtocolCost:
        total = ProtocolCost()
        for layer in self.layers:
            total += layer.mult
        return total

    @property
    def relu_count(self) -> int:
        return sum(layer.operations.relu_ops for layer in self.layers)

    @property
    def mult_count(self) -> int:
        return sum(layer.operations.mult_ops for layer in self.layers)

    @property
    def multiplicative_depth(self) -> int:
        """Number of layers contributing secure multiplications (HE depth proxy)."""
        return sum(1 for layer in self.layers if layer.operations.mult_ops > 0)

    @property
    def runnable(self) -> bool:
        """Whether the model can be evaluated under the protocol at all."""
        if not self.total.finite():
            return False
        limit = self.protocol.multiplicative_depth_limit
        if limit and self.multiplicative_depth > limit:
            return False
        return True

    def relu_share(self) -> float:
        """Fraction of the total online latency spent in ReLU evaluations."""
        total = self.total.microseconds
        if not np.isfinite(total) or total == 0:
            return float("nan") if not np.isfinite(total) else 0.0
        return self.relu_total.microseconds / total


# --------------------------------------------------------------------------- #
# Operation counting
# --------------------------------------------------------------------------- #

def _elements(shape: Tuple[int, ...]) -> int:
    return int(np.prod(shape)) if shape else 0


def _quadratic_mult_ops(neuron_type: str, out_elements: int, in_elements: int) -> int:
    """Secure multiplications one quadratic layer needs, by neuron design.

    Designs with a Hadamard/self product (``"a"`` in the required responses)
    pay one Beaver triple per *output* element for the combination; designs
    with a squared-input projection (``"sq"``) additionally pay one per
    *input* element to form ``X²`` before the linear phase.  This is exactly
    what the secure runtime executes, so measured traces match these counts.
    """
    required = REQUIRED_RESPONSES[neuron_type]
    mult_ops = 0
    if "a" in required:
        mult_ops += out_elements
    if "sq" in required:
        mult_ops += in_elements
    return mult_ops


def _classify(module: Module, out_shape: Tuple[int, ...],
              in_shape: Tuple[int, ...] = ()) -> Optional[LayerOperations]:
    """Operation counts of one leaf module, or ``None`` for cost-free layers."""
    elements = _elements(out_shape)
    type_name = type(module).__name__

    if isinstance(module, Conv2d):
        macs = conv_macs(out_shape, int(np.prod(module.weight.shape[1:])))
        return LayerOperations("", type_name, macs=macs, output_shape=out_shape)
    if isinstance(module, Linear):
        batch = _elements(out_shape[:-1])
        return LayerOperations("", type_name,
                               macs=module.in_features * module.out_features * batch,
                               output_shape=out_shape)
    if isinstance(module, QUADRATIC_CONVS):
        weights = weight_sets(module)
        macs = conv_macs(out_shape, int(np.prod(weights[0].shape[1:])),
                         n_weight_sets=len(weights))
        mult_ops = _quadratic_mult_ops(module.neuron_type, elements, _elements(in_shape))
        return LayerOperations("", type_name, macs=macs, mult_ops=mult_ops,
                               output_shape=out_shape)
    if isinstance(module, QuadraticConv2dT1):
        return LayerOperations("", type_name, macs=conv_macs(out_shape, module.patch_size ** 2),
                               mult_ops=elements, output_shape=out_shape)
    if isinstance(module, QUADRATIC_LINEARS):
        batch = _elements(out_shape[:-1])
        macs = len(weight_sets(module)) * module.in_features * module.out_features * batch
        mult_ops = _quadratic_mult_ops(module.neuron_type, elements, _elements(in_shape))
        return LayerOperations("", type_name, macs=macs, mult_ops=mult_ops,
                               output_shape=out_shape)
    if isinstance(module, Square):
        return LayerOperations("", type_name, mult_ops=elements, output_shape=out_shape)
    if isinstance(module, (ReLU, LeakyReLU)):
        return LayerOperations("", type_name, relu_ops=elements, output_shape=out_shape)
    if isinstance(module, (GELU, Sigmoid, Tanh)):
        # Smooth non-polynomial activations are at least as expensive as a
        # garbled comparison in every published protocol; count them as such.
        return LayerOperations("", type_name, relu_ops=elements, output_shape=out_shape)
    if isinstance(module, MaxPool2d):
        k = module.kernel_size if isinstance(module.kernel_size, int) else module.kernel_size[0]
        comparisons = elements * max(k * k - 1, 1)
        return LayerOperations("", type_name, relu_ops=comparisons, output_shape=out_shape)
    if isinstance(module, (AvgPool2d, AdaptiveAvgPool2d, GlobalAvgPool2d)):
        # Window sums are linear; the division by the (public) window size is
        # one scalar multiplication per output element.
        return LayerOperations("", type_name, macs=elements, output_shape=out_shape)
    if isinstance(module, (BatchNorm1d, BatchNorm2d, LayerNorm)):
        # At inference BatchNorm folds into the preceding linear layer; LayerNorm
        # costs one MAC per element online.
        return LayerOperations("", type_name, macs=elements, output_shape=out_shape)
    return None


def count_operations(model: Module, input_shape: Tuple[int, int, int],
                     batch_size: int = 1) -> List[LayerOperations]:
    """Per-leaf-layer operation counts from a probe forward pass.

    Parameters
    ----------
    model : Module
        The network to analyse (not modified; evaluated in inference mode).
    input_shape : tuple
        Shape of one input sample, e.g. ``(3, 32, 32)``.
    batch_size : int
        Probe batch size; PPML protocols evaluate one query at a time, so the
        default of 1 matches the usual reporting convention.  Every count
        (MACs included) scales linearly with the batch, matching what the
        secure runtime measures on a batched execution.
    """
    operations: List[LayerOperations] = []
    for name, module, calls in trace_leaves(model, input_shape, batch_size):
        # One count per *invocation*: a module shared across call sites (a
        # residual block's ReLU fires twice per forward) costs the protocol
        # once per application, not once per Python object.  The input shape
        # sizes the squared-input projections of T2-style quadratic designs.
        merged: Optional[LayerOperations] = None
        for in_shape, out_shape in calls:
            counted = _classify(module, out_shape, in_shape)
            if counted is None:
                break
            if merged is None:
                merged = counted
            else:
                merged.macs += counted.macs
                merged.relu_ops += counted.relu_ops
                merged.mult_ops += counted.mult_ops
                merged.output_shape = counted.output_shape
                merged.calls += 1
        if merged is None:
            continue
        merged.name = name
        operations.append(merged)
    return operations


# --------------------------------------------------------------------------- #
# Cost estimation
# --------------------------------------------------------------------------- #

def estimate_cost(operations: Sequence[LayerOperations],
                  protocol: Union[str, Protocol]) -> CostReport:
    """Online cost of pre-counted operations under one protocol."""
    proto = resolve_protocol(protocol)
    report = CostReport(protocol=proto)
    for ops in operations:
        report.layers.append(LayerCost(
            operations=ops,
            linear=proto.linear_cost(ops.macs),
            relu=proto.relu_cost(ops.relu_ops),
            mult=proto.mult_cost(ops.mult_ops),
        ))
    return report


def analyse_model(model: Module, input_shape: Tuple[int, int, int],
                  protocol: Union[str, Protocol] = "delphi",
                  batch_size: int = 1) -> CostReport:
    """Count operations and estimate the online cost in one call."""
    operations = count_operations(model, input_shape, batch_size=batch_size)
    return estimate_cost(operations, protocol)


def compare_protocols(model: Module, input_shape: Tuple[int, int, int],
                      protocols: Optional[Sequence[Union[str, Protocol]]] = None,
                      batch_size: int = 1) -> Dict[str, CostReport]:
    """Cost reports for the same model under several protocols (counted once)."""
    from .protocols import PROTOCOLS

    operations = count_operations(model, input_shape, batch_size=batch_size)
    selected = protocols if protocols is not None else list(PROTOCOLS)
    reports: Dict[str, CostReport] = {}
    for proto in selected:
        resolved = resolve_protocol(proto)
        reports[resolved.name] = estimate_cost(operations, resolved)
    return reports


def format_cost_report(report: CostReport, per_layer: bool = False) -> str:
    """Render a cost report as a fixed-width table (totals, optionally per layer)."""
    def fmt(value: float, unit: str) -> str:
        return "not runnable" if not np.isfinite(value) else f"{value:.3f} {unit}"

    rows = []
    if per_layer:
        for layer in report.layers:
            rows.append([
                layer.operations.name,
                layer.operations.layer_type,
                layer.operations.macs,
                layer.operations.relu_ops,
                layer.operations.mult_ops,
                fmt(layer.total.megabytes, "MB"),
                fmt(layer.total.milliseconds, "ms"),
            ])
    rows.append([
        "TOTAL",
        report.protocol.name,
        sum(l.operations.macs for l in report.layers),
        report.relu_count,
        report.mult_count,
        fmt(report.total.megabytes, "MB"),
        fmt(report.total.milliseconds, "ms"),
    ])
    return format_table(
        ["layer", "type", "MACs", "ReLU ops", "secure mults", "online comm", "online latency"],
        rows,
        title=f"PPML online cost under {report.protocol.name} ({report.protocol.reference})",
    )
