"""QDNN auto-builder (paper Sec. 4.2).

Manually designing a quadratic model for a new task requires domain
experience; the auto-builder instead starts from an existing first-order model
and performs two operations:

1. **Layer replacement** — every first-order convolution (and optionally every
   dense layer) is swapped for the equivalent quadratic layer of the requested
   neuron type, shallow to deep, keeping kernel size / stride / padding /
   groups identical (:func:`quadratize_module`).

2. **Heuristic layer reduction** — because quadratic neurons have higher
   capacity, the converted model can be made shallower.  Layers are ranked by
   the RI indicator (Eq. 5, :mod:`repro.builder.indicator`) and removed until
   a parameter budget or target depth is met
   (:meth:`AutoBuilder.reduce_structure` and the config-level helpers
   ``reduce_vgg_cfg`` / ``reduce_resnet_blocks`` / ``reduce_mobilenet_cfg``).

The "QuadraNN (no auto-builder)" rows of Table 3 correspond to step 1 alone;
the "QuadraNN" rows apply both steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn.layers.conv import Conv2d
from ..nn.layers.linear import Linear
from ..nn.module import Module
from ..quadratic.layers.hybrid import HybridQuadraticLinear
from ..quadratic.layers.qlinear import QuadraticLinear
from ..quadratic.neuron_types import resolve_type
from .config import QuadraticModelConfig
from .indicator import LayerIndicator, compute_layer_indicators


# --------------------------------------------------------------------------- #
# Step 1: layer replacement on live modules
# --------------------------------------------------------------------------- #

def _convert_conv(layer: Conv2d, neuron_type: str, hybrid_bp: bool) -> Module:
    from ..quadratic.factory import quadratic_layer

    return quadratic_layer(
        neuron_type,
        layer.in_channels,
        layer.out_channels,
        kernel_size=layer.kernel_size,
        stride=layer.stride,
        padding=layer.padding,
        groups=layer.groups,
        bias=layer.bias is not None,
        hybrid_bp=hybrid_bp,
    )


def _convert_linear(layer: Linear, neuron_type: str, hybrid_bp: bool) -> Module:
    if hybrid_bp and resolve_type(neuron_type).name == "OURS":
        return HybridQuadraticLinear(layer.in_features, layer.out_features,
                                     bias=layer.bias is not None)
    return QuadraticLinear(layer.in_features, layer.out_features, neuron_type=neuron_type,
                           bias=layer.bias is not None)


def quadratize_module(model: Module, neuron_type: str = "OURS", hybrid_bp: bool = False,
                      convert_linear: bool = False, skip_depthwise: bool = True,
                      skip_names: Sequence[str] = ()) -> int:
    """Replace first-order layers with quadratic ones in place (shallow → deep).

    Parameters
    ----------
    model : Module
        Modified in place.
    neuron_type : str
        Quadratic design for the converted layers.
    hybrid_bp : bool
        Use the symbolic-backward implementations where available.
    convert_linear : bool
        Also convert dense layers (classifier heads usually stay first-order).
    skip_depthwise : bool
        Leave depthwise convolutions (groups == in_channels > 1) first-order;
        the quadratic capacity lives in the pointwise/ordinary convolutions.
    skip_names : sequence of str
        Dotted-name substrings to leave untouched (e.g. detector heads).

    Returns
    -------
    int
        Number of layers converted.
    """
    converted = 0
    for name, module in list(model.named_modules()):
        for child_name, child in list(module._modules.items()):
            full_name = f"{name}.{child_name}" if name else child_name
            if any(skip in full_name for skip in skip_names):
                continue
            if isinstance(child, Conv2d):
                if skip_depthwise and child.groups == child.in_channels and child.groups > 1:
                    continue
                module.register_module(child_name,
                                       _convert_conv(child, neuron_type, hybrid_bp))
                converted += 1
            elif convert_linear and isinstance(child, Linear):
                module.register_module(child_name,
                                       _convert_linear(child, neuron_type, hybrid_bp))
                converted += 1
    return converted


# --------------------------------------------------------------------------- #
# Step 2: heuristic layer reduction at the configuration level
# --------------------------------------------------------------------------- #

def reduce_vgg_cfg(cfg: Sequence[Union[int, str]], target_conv_layers: int) -> List[Union[int, str]]:
    """Shrink a VGG channel configuration to ``target_conv_layers`` convolutions.

    Within each pooling stage the later (duplicate-width) convolutions carry
    the largest parameter/compute share but the smallest marginal accuracy —
    they are removed first, which is what the RI ranking selects on trained
    VGGs.  At least one convolution per stage is always kept so the spatial
    reduction schedule is preserved.
    """
    stages: List[List[int]] = []
    current: List[int] = []
    for item in cfg:
        if item == "M":
            stages.append(current)
            current = []
        else:
            current.append(int(item))
    if current:
        stages.append(current)

    def total_convs() -> int:
        return sum(len(stage) for stage in stages)

    while total_convs() > target_conv_layers:
        # Remove from the stage with the most convolutions, deepest first
        # (deep stages have the widest, most expensive duplicates).
        candidates = [i for i, stage in enumerate(stages) if len(stage) > 1]
        if not candidates:
            break
        stage_idx = max(candidates, key=lambda i: (len(stages[i]), i))
        stages[stage_idx].pop()

    reduced: List[Union[int, str]] = []
    for stage in stages:
        reduced.extend(stage)
        reduced.append("M")
    return reduced


def reduce_resnet_blocks(blocks: Sequence[int], target_blocks_per_stage: int) -> List[int]:
    """Reduce the per-stage residual block counts (e.g. [5, 5, 5] → [2, 2, 2])."""
    return [max(min(count, target_blocks_per_stage), 1) for count in blocks]


def reduce_mobilenet_cfg(cfg: Sequence[Tuple[int, int]],
                         target_blocks: int) -> List[Tuple[int, int]]:
    """Reduce a MobileNet block list, always keeping stride-2 (resolution) blocks."""
    cfg = list(cfg)
    if target_blocks >= len(cfg):
        return cfg
    keep = [i for i, (_, stride) in enumerate(cfg) if stride != 1]
    stride1 = [i for i, (_, stride) in enumerate(cfg) if stride == 1]
    # Drop stride-1 blocks from the deepest repeats first.
    budget = target_blocks - len(keep)
    keep.extend(stride1[:max(budget, 0)])
    keep.sort()
    return [cfg[i] for i in keep]


# --------------------------------------------------------------------------- #
# The auto-builder facade
# --------------------------------------------------------------------------- #

@dataclass
class ConversionReport:
    """What the auto-builder did to a model."""

    converted_layers: int
    removed_layers: List[str]
    parameters_before: int
    parameters_after: int

    @property
    def parameter_ratio(self) -> float:
        return self.parameters_after / max(self.parameters_before, 1)


class AutoBuilder:
    """Convert first-order models into QDNNs (layer replacement + reduction).

    Parameters
    ----------
    neuron_type : str
        Quadratic design used for converted layers (default: the paper's).
    hybrid_bp : bool
        Build memory-efficient symbolic-backward layers where available.
    convert_linear : bool
        Also convert dense layers.
    """

    def __init__(self, neuron_type: str = "OURS", hybrid_bp: bool = False,
                 convert_linear: bool = False) -> None:
        self.neuron_type = resolve_type(neuron_type).name
        self.hybrid_bp = hybrid_bp
        self.convert_linear = convert_linear

    # -- live-module conversion --------------------------------------------------
    def convert(self, model: Module, skip_names: Sequence[str] = ()) -> ConversionReport:
        """Replace first-order layers in ``model`` (in place) and report the change."""
        params_before = model.num_parameters()
        converted = quadratize_module(model, neuron_type=self.neuron_type,
                                     hybrid_bp=self.hybrid_bp,
                                     convert_linear=self.convert_linear,
                                     skip_names=skip_names)
        return ConversionReport(
            converted_layers=converted,
            removed_layers=[],
            parameters_before=params_before,
            parameters_after=model.num_parameters(),
        )

    # -- RI-driven structural reduction ------------------------------------------
    def rank_layers(self, model: Module, input_shape: Tuple[int, int, int],
                    eval_fn: Optional[Callable[[Module], float]] = None,
                    candidate_layers: Optional[Sequence[str]] = None) -> List[LayerIndicator]:
        """RI ranking (Eq. 5) of the model's layers, most-removable first."""
        return compute_layer_indicators(model, input_shape, candidate_layers=candidate_layers,
                                        eval_fn=eval_fn)

    def reduce_structure(self, model: Module, input_shape: Tuple[int, int, int],
                         eval_fn: Optional[Callable[[Module], float]] = None,
                         max_removals: int = 2,
                         max_accuracy_drop: float = 0.02) -> ConversionReport:
        """Bypass the highest-RI layers of a (converted) model in place.

        Layers are replaced with identity mappings one at a time, most
        removable first, stopping when ``max_removals`` is reached, the
        accuracy drop exceeds ``max_accuracy_drop`` (when ``eval_fn`` is
        given), or a removal breaks the forward pass.
        """
        from ..nn.layers.activations import Identity
        from .indicator import _set_submodule

        params_before = model.num_parameters()
        removed: List[str] = []
        indicators = self.rank_layers(model, input_shape, eval_fn=eval_fn)
        for item in indicators:
            if len(removed) >= max_removals:
                break
            if eval_fn is not None and item.accuracy_drop > max_accuracy_drop:
                continue
            original = _set_submodule(model, item.name, Identity())
            try:
                # Verify the forward pass still works with the layer bypassed.
                from ..autodiff import no_grad
                from ..autodiff.tensor import Tensor

                probe = Tensor(np.zeros((1,) + tuple(input_shape), dtype=np.float32))
                with no_grad():
                    model(probe)
                removed.append(item.name)
            except Exception:
                _set_submodule(model, item.name, original)
        return ConversionReport(
            converted_layers=0,
            removed_layers=removed,
            parameters_before=params_before,
            parameters_after=model.num_parameters(),
        )
