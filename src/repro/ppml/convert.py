"""Conversion of ReLU networks into PPML-friendly polynomial networks.

Three strategies are provided, in increasing order of how much of the paper's
machinery they use:

``"square"``
    Keep the model structure and swap every ReLU for a
    :class:`~repro.nn.Square` activation (the CryptoNets recipe).
``"quadratic"``
    Use the :class:`~repro.builder.AutoBuilder` to replace first-order
    convolutions with the paper's quadratic layers while keeping the ReLUs —
    useful when the model stays on plaintext but a later PPML deployment is
    planned.
``"quadratic_no_relu"``
    Replace convolutions with quadratic layers *and* drop the ReLUs entirely
    (paper design insight 3: shallow QDNNs do not need activation functions)
    so the converted model contains no garbled-circuit operations at all.

Every strategy returns a :class:`PPMLConversionReport`, and
:func:`ppml_savings` quantifies the before/after online cost under a chosen
protocol.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Type, Union

from ..builder.auto_builder import quadratize_module
from ..nn.layers.activations import Identity, LeakyReLU, ReLU, Square
from ..nn.layers.pooling import AvgPool2d, MaxPool2d
from ..nn.module import Module
from .cost import CostReport, analyse_model
from .protocols import Protocol, resolve_protocol
from .trace import ProtocolTrace

#: Activation classes treated as "comparison-based" and therefore expensive
#: under hybrid PPML protocols.
RELU_LIKE: Tuple[Type[Module], ...] = (ReLU, LeakyReLU)


def count_relu_modules(model: Module) -> int:
    """Number of ReLU-like activation modules in the model."""
    return sum(1 for _, module in model.named_modules() if isinstance(module, RELU_LIKE))


def replace_activations(model: Module, factory: Callable[[], Module],
                        kinds: Tuple[Type[Module], ...] = RELU_LIKE,
                        skip_names: Sequence[str] = ()) -> int:
    """Replace every activation of the given kinds in place.

    Parameters
    ----------
    model : Module
        Modified in place.
    factory : callable
        Zero-argument callable producing the replacement module (a fresh
        instance per replacement so modules are not shared).
    kinds : tuple of Module subclasses
        Which activation classes to replace.
    skip_names : sequence of str
        Dotted-name substrings to leave untouched.

    Returns
    -------
    int
        Number of modules replaced.
    """
    replaced = 0
    for name, module in list(model.named_modules()):
        for child_name, child in list(module._modules.items()):
            full_name = f"{name}.{child_name}" if name else child_name
            if any(skip in full_name for skip in skip_names):
                continue
            if isinstance(child, kinds):
                module.register_module(child_name, factory())
                replaced += 1
    return replaced


def replace_relu_with_square(model: Module, scale: float = 1.0, linear: float = 0.0,
                             skip_names: Sequence[str] = ()) -> int:
    """Swap every ReLU-like activation for a :class:`~repro.nn.Square` in place."""
    return replace_activations(model, lambda: Square(scale=scale, linear=linear),
                               skip_names=skip_names)


def remove_activations(model: Module, skip_names: Sequence[str] = ()) -> int:
    """Replace every ReLU-like activation with an identity mapping in place."""
    return replace_activations(model, Identity, skip_names=skip_names)


def replace_maxpool_with_avgpool(model: Module, skip_names: Sequence[str] = ()) -> int:
    """Swap max pooling for average pooling in place (the CryptoNets recipe).

    Max pooling needs one comparison per window element, which is exactly as
    expensive as a ReLU under a garbled-circuit protocol and impossible under
    levelled HE; average pooling is a plain linear operation.
    """
    replaced = 0
    for name, module in list(model.named_modules()):
        for child_name, child in list(module._modules.items()):
            full_name = f"{name}.{child_name}" if name else child_name
            if any(skip in full_name for skip in skip_names):
                continue
            if isinstance(child, MaxPool2d):
                module.register_module(
                    child_name,
                    AvgPool2d(child.kernel_size, stride=child.stride, padding=child.padding),
                )
                replaced += 1
    return replaced


@dataclass
class PPMLConversionReport:
    """What a PPML conversion did to a model."""

    strategy: str
    relu_modules_before: int
    relu_modules_after: int
    activations_replaced: int
    layers_quadratized: int
    maxpools_replaced: int
    parameters_before: int
    parameters_after: int

    @property
    def relu_free(self) -> bool:
        return self.relu_modules_after == 0

    @property
    def parameter_ratio(self) -> float:
        return self.parameters_after / max(self.parameters_before, 1)


def to_ppml_friendly(model: Module, strategy: str = "square", neuron_type: str = "OURS",
                     inplace: bool = True, square_scale: float = 1.0,
                     square_linear: float = 0.0, convert_pooling: bool = True,
                     skip_names: Sequence[str] = ()) -> Tuple[Module, PPMLConversionReport]:
    """Convert a model into a PPML-friendly form.

    Parameters
    ----------
    model : Module
        Source model; converted in place unless ``inplace=False``, in which
        case a deep copy is converted and returned.
    strategy : str
        ``"square"``, ``"quadratic"`` or ``"quadratic_no_relu"`` (see module
        docstring).
    neuron_type : str
        Quadratic design used by the quadratic strategies.
    square_scale, square_linear : float
        Parameters of the substituted :class:`~repro.nn.Square` activation.
    convert_pooling : bool
        Also swap max pooling for average pooling in the ``"square"`` and
        ``"quadratic_no_relu"`` strategies, so no comparison operations remain.
    skip_names : sequence of str
        Dotted-name substrings to leave untouched (e.g. detector heads).

    Returns
    -------
    (Module, PPMLConversionReport)
        The converted model and a summary of the changes.
    """
    known = ("square", "quadratic", "quadratic_no_relu")
    if strategy not in known:
        raise ValueError(f"unknown PPML conversion strategy '{strategy}'; choose from {known}")
    target = model if inplace else copy.deepcopy(model)

    relus_before = count_relu_modules(target)
    params_before = target.num_parameters()
    replaced = 0
    quadratized = 0
    pools = 0

    if strategy == "square":
        replaced = replace_relu_with_square(target, scale=square_scale, linear=square_linear,
                                            skip_names=skip_names)
        if convert_pooling:
            pools = replace_maxpool_with_avgpool(target, skip_names=skip_names)
    elif strategy == "quadratic":
        quadratized = quadratize_module(target, neuron_type=neuron_type, skip_names=skip_names)
    else:  # quadratic_no_relu
        quadratized = quadratize_module(target, neuron_type=neuron_type, skip_names=skip_names)
        replaced = remove_activations(target, skip_names=skip_names)
        if convert_pooling:
            pools = replace_maxpool_with_avgpool(target, skip_names=skip_names)

    report = PPMLConversionReport(
        strategy=strategy,
        relu_modules_before=relus_before,
        relu_modules_after=count_relu_modules(target),
        activations_replaced=replaced,
        layers_quadratized=quadratized,
        maxpools_replaced=pools,
        parameters_before=params_before,
        parameters_after=target.num_parameters(),
    )
    return target, report


@dataclass
class PPMLSavings:
    """Before/after online cost of a PPML conversion under one protocol.

    With ``ppml_savings(..., measured=True)`` the static reports are
    validated against executed protocol traces: ``before_trace`` /
    ``after_trace`` hold the measured records and :attr:`measured_matches`
    states whether every measured operation total equals its static count.
    """

    protocol: Protocol
    before: CostReport
    after: CostReport
    #: executed traces (``ppml_savings(measured=True)`` only, else ``None``).
    before_trace: Optional[ProtocolTrace] = None
    after_trace: Optional[ProtocolTrace] = None

    @property
    def measured(self) -> bool:
        """Whether the savings were validated by an executed secure run."""
        return self.before_trace is not None and self.after_trace is not None

    @property
    def measured_matches(self) -> Optional[bool]:
        """``True`` when both executed traces match the static counts exactly
        (``None`` when the savings were not measured)."""
        if not self.measured:
            return None
        return (self.before_trace.matches_report(self.before)
                and self.after_trace.matches_report(self.after))

    @property
    def latency_ratio(self) -> float:
        """after/before online latency (< 1 means the conversion is cheaper)."""
        before = self.before.total.microseconds
        after = self.after.total.microseconds
        if before == 0:
            return float("nan")
        if before == float("inf"):
            return 0.0 if after != float("inf") else float("nan")
        return after / before

    @property
    def communication_ratio(self) -> float:
        """after/before online communication."""
        before = self.before.total.bytes
        after = self.after.total.bytes
        if before == 0:
            return float("nan")
        if before == float("inf"):
            return 0.0 if after != float("inf") else float("nan")
        return after / before

    @property
    def became_runnable(self) -> bool:
        """True when the conversion unlocked a protocol that could not run before."""
        return (not self.before.runnable) and self.after.runnable


def ppml_savings(original: Module, converted: Module, input_shape: Tuple[int, int, int],
                 protocol: Union[str, Protocol] = "delphi",
                 batch_size: int = 1, measured: bool = False,
                 frac_bits: int = 12, truncation: str = "nearest",
                 seed: int = 0) -> PPMLSavings:
    """Online-cost comparison of an original model and its PPML-friendly version.

    With ``measured=True`` both models are additionally *executed* by the
    secure runtime (:mod:`repro.ppml.runtime`) on a random probe batch of
    ``batch_size`` samples, and the resulting protocol traces are attached —
    :attr:`PPMLSavings.measured_matches` then certifies that the static
    operation counts agree with what a hybrid-protocol execution actually
    performs.  ``frac_bits``/``truncation``/``seed`` configure the runtime's
    fixed-point format (they do not affect the counts, only the numerics).
    """
    proto = resolve_protocol(protocol)
    savings = PPMLSavings(
        protocol=proto,
        before=analyse_model(original, input_shape, proto, batch_size=batch_size),
        after=analyse_model(converted, input_shape, proto, batch_size=batch_size),
    )
    if measured:
        import numpy as np

        from .runtime import SecureConfig, secure_compile

        probe = np.random.default_rng(seed).standard_normal(
            (batch_size,) + tuple(input_shape)).astype(np.float32)
        config = SecureConfig(protocol=proto, frac_bits=frac_bits,
                              truncation=truncation, seed=seed)
        _, savings.before_trace = secure_compile(original, config).run(probe)
        _, savings.after_trace = secure_compile(converted, config).run(probe)
    return savings
