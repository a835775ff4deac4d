"""Named component registries behind the unified experiment API.

QuadraLib's surfaces were historically wired together by hand: model
factories lived in ``repro.models``, structure tables in
``repro.builder.config``, neuron designs in ``repro.quadratic.neuron_types``
and trainers in ``repro.training``.  The registries here give every component
family a single by-name lookup with a uniform error message, which is what
makes :class:`repro.experiment.ExperimentSpec` serializable: a spec only ever
stores registry *names*, never Python objects.

Registries
----------
``MODELS``         ``name -> factory(ModelSpec) -> Module``
``ARCHITECTURES``  named structure configurations (the former ``VGG_CFGS`` /
                   ``RESNET_BLOCKS`` / ``MOBILENET_CFGS`` tables)
``DATASETS``       ``name -> factory(DataSpec, train: bool) -> Dataset``
``NEURONS``        quadratic neuron designs (views of ``NEURON_TYPES``)
``TRAINERS``       ``name -> trainer(model, train_set, test_set, TrainSpec,
                   optimizer_factory=None, callbacks=(), experiment_spec=None)``
                   — ``Experiment.fit`` always passes all three keywords
``OPTIMIZERS``     ``name -> Optimizer class``
``CALLBACKS``      ``name -> repro.engine.Callback subclass``

New components register with the decorator form::

    @MODELS.register("my_model")
    def build_my_model(spec):
        return ...
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..builder.config import MOBILENET_CFGS, RESNET_BLOCKS, VGG_CFGS
from ..quadratic.neuron_types import NEURON_TYPES, is_first_order, resolve_type


_MISSING = object()


class Registry:
    """A named mapping of components with helpful unknown-key errors."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Any] = {}
        #: canonical (as-registered) spelling per lowercase key, for listings
        self._display: Dict[str, str] = {}

    # ------------------------------------------------------------ registration
    def register(self, name: str, obj: Any = _MISSING):
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        Lookup is case-insensitive; listings keep the registered spelling.
        """
        key = name.lower()

        def _add(value: Any) -> Any:
            if key in self._entries:
                raise ValueError(f"{self.kind} '{name}' is already registered")
            self._entries[key] = value
            self._display[key] = name
            return value

        if obj is _MISSING:
            return _add
        return _add(obj)

    # ------------------------------------------------------------------ lookup
    def get(self, name: str) -> Any:
        key = str(name).lower()
        if key not in self._entries:
            raise ValueError(
                f"unknown {self.kind} '{name}'; registered {self.kind}s: "
                f"{', '.join(self.names())}"
            )
        return self._entries[key]

    def names(self) -> List[str]:
        return [self._display[key] for key in sorted(self._entries)]

    def items(self) -> List[Tuple[str, Any]]:
        return [(self._display[key], self._entries[key])
                for key in sorted(self._entries)]

    def __contains__(self, name: object) -> bool:
        return str(name).lower() in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {len(self)} entries)"


MODELS = Registry("model")
ARCHITECTURES = Registry("architecture")
DATASETS = Registry("dataset")
NEURONS = Registry("neuron type")
TRAINERS = Registry("trainer")
OPTIMIZERS = Registry("optimizer")
CALLBACKS = Registry("callback")


# --------------------------------------------------------------------------- #
# Architectures: the former VGG_CFGS / RESNET_BLOCKS / MOBILENET_CFGS tables.
# The dicts in ``builder.config`` remain as aliases; the registry is the
# canonical by-name lookup the spec layer and CLI use.
# --------------------------------------------------------------------------- #

for _name, _cfg in VGG_CFGS.items():
    ARCHITECTURES.register(_name, {"family": "vgg", "cfg": list(_cfg)})
for _name, _blocks in RESNET_BLOCKS.items():
    ARCHITECTURES.register(_name, {"family": "resnet", "cfg": list(_blocks)})
for _name, _mcfg in MOBILENET_CFGS.items():
    ARCHITECTURES.register(_name, {"family": "mobilenet",
                                   "cfg": [list(block) for block in _mcfg]})


# --------------------------------------------------------------------------- #
# Neuron designs: views of the Table-1 registry (aliases resolve on lookup).
# --------------------------------------------------------------------------- #

for _name, _spec in NEURON_TYPES.items():
    NEURONS.register(_name, _spec)
NEURONS.register("first_order", None)  # the linear baseline is a valid choice


def neuron_names() -> List[str]:
    """Canonical neuron names, baseline first (for CLI listings)."""
    return ["first_order"] + [n for n in NEURONS.names() if n.lower() != "first_order"]


def check_neuron_type(neuron_type: str) -> str:
    """Canonical name of ``neuron_type``; ``ValueError`` listing known designs."""
    if is_first_order(neuron_type):
        return "first_order"
    try:
        return resolve_type(neuron_type).name
    except KeyError:
        raise ValueError(
            f"unknown neuron type '{neuron_type}'; registered neuron types: "
            f"{', '.join(neuron_names())}"
        ) from None


# --------------------------------------------------------------------------- #
# Models: uniform ``factory(ModelSpec) -> Module`` adapters over the zoo.
# Factories read ``spec.num_classes`` / ``spec.to_config()`` / ``spec.extra``.
# --------------------------------------------------------------------------- #

def _register_zoo_models() -> None:
    from ..models.mobilenet import MobileNetV1
    from ..models.resnet import ResNet
    from ..models.simple import FirstOrderMLP, LeNet, QuadraticMLP, SmallConvNet
    from ..models.vgg import VGG

    def _vgg(arch: str):
        def build(spec):
            return VGG(arch, num_classes=spec.num_classes, config=spec.to_config(),
                       **spec.extra)
        build.__name__ = f"build_{arch.lower()}"
        return build

    def _resnet(arch: str):
        def build(spec):
            return ResNet(arch, num_classes=spec.num_classes, config=spec.to_config(),
                          **spec.extra)
        build.__name__ = f"build_{arch.lower()}"
        return build

    MODELS.register("vgg8", _vgg("VGG8"))
    MODELS.register("vgg11", _vgg("VGG11"))
    MODELS.register("vgg16", _vgg("VGG16"))
    MODELS.register("vgg16_quadra", _vgg("VGG16_QUADRA"))
    MODELS.register("resnet8", _resnet("RESNET8"))
    MODELS.register("resnet20", _resnet("RESNET20"))
    MODELS.register("resnet32", _resnet("RESNET32"))
    MODELS.register("resnet32_quadra", _resnet("RESNET32_QUADRA"))

    @MODELS.register("mobilenet_v1")
    def build_mobilenet_v1(spec):
        cfg = ARCHITECTURES.get("MOBILENET13")["cfg"]
        return MobileNetV1([tuple(b) for b in cfg], num_classes=spec.num_classes,
                           config=spec.to_config(), **spec.extra)

    @MODELS.register("mobilenet_v1_quadra")
    def build_mobilenet_v1_quadra(spec):
        cfg = ARCHITECTURES.get("MOBILENET8")["cfg"]
        return MobileNetV1([tuple(b) for b in cfg], num_classes=spec.num_classes,
                           config=spec.to_config(), **spec.extra)

    @MODELS.register("lenet")
    def build_lenet(spec):
        return LeNet(num_classes=spec.num_classes, config=spec.to_config(), **spec.extra)

    @MODELS.register("small_convnet")
    def build_small_convnet(spec):
        extra = dict(spec.extra)
        if "channels" in extra:
            extra["channels"] = tuple(int(c) for c in extra["channels"])
        return SmallConvNet(num_classes=spec.num_classes, config=spec.to_config(), **extra)

    @MODELS.register("mlp")
    def build_mlp_model(spec):
        extra = dict(spec.extra)
        sizes = [int(s) for s in extra.pop("layer_sizes", (16, 32))]
        layer_sizes = sizes + [spec.num_classes]
        if is_first_order(spec.neuron_type):
            return FirstOrderMLP(layer_sizes, **extra)
        return QuadraticMLP(layer_sizes, neuron_type=spec.neuron_type,
                            hybrid_bp=spec.hybrid_bp, **extra)


_register_zoo_models()


# --------------------------------------------------------------------------- #
# Datasets: ``factory(DataSpec, train) -> Dataset``.
# --------------------------------------------------------------------------- #

def _register_datasets() -> None:
    from ..data.dataset import TensorDataset
    from ..data.synthetic import SyntheticImageClassification
    from ..data.synthetic.toy import circle_dataset, xor_dataset

    @DATASETS.register("synthetic_classification")
    def build_synthetic_classification(spec, train: bool):
        return SyntheticImageClassification(
            num_samples=spec.num_samples if train else spec.test_samples,
            num_classes=spec.num_classes,
            image_size=spec.image_size,
            channels=spec.channels,
            seed=spec.seed,
            split_seed=0 if train else 1,
            **spec.extra,
        )

    def _toy(generator):
        def build(spec, train: bool):
            x, y = generator(spec.num_samples if train else spec.test_samples,
                             seed=spec.seed + (0 if train else 1))
            return TensorDataset(x, y)
        return build

    DATASETS.register("xor", _toy(xor_dataset))
    DATASETS.register("circle", _toy(circle_dataset))


_register_datasets()


# --------------------------------------------------------------------------- #
# Trainers and optimizers.
# --------------------------------------------------------------------------- #

def _register_trainers() -> None:
    from ..engine import run_classification

    @TRAINERS.register("classifier")
    def classifier_trainer(model, train_set, test_set, spec,
                           optimizer_factory: Optional[Callable] = None,
                           callbacks=(), experiment_spec=None):
        """The engine-backed classification trainer.

        ``callbacks`` and ``experiment_spec`` (the full spec dict embedded
        into checkpoints for ``repro train --resume``) come from the
        :class:`Experiment` facade; the checkpoint/prefetch knobs come from
        the ``TrainSpec`` itself.
        """
        return run_classification(
            model, train_set, test_set,
            epochs=spec.epochs, batch_size=spec.batch_size, lr=spec.lr,
            momentum=spec.momentum, weight_decay=spec.weight_decay,
            scheduler=spec.scheduler, label_smoothing=spec.label_smoothing,
            max_batches_per_epoch=spec.max_batches_per_epoch, seed=spec.seed,
            optimizer_factory=optimizer_factory,
            prefetch=spec.prefetch, prefetch_depth=spec.prefetch_depth,
            checkpoint_dir=spec.checkpoint_dir, checkpoint_every=spec.checkpoint_every,
            resume_from=spec.resume_from, stop_after_epoch=spec.stop_after_epoch,
            callbacks=callbacks, spec=experiment_spec,
        )


def _register_callbacks() -> None:
    from ..engine import CheckpointCallback, EarlyStopping, LambdaCallback, ProgressCallback

    CALLBACKS.register("checkpoint", CheckpointCallback)
    CALLBACKS.register("early_stopping", EarlyStopping)
    CALLBACKS.register("progress", ProgressCallback)
    CALLBACKS.register("lambda", LambdaCallback)


def _register_optimizers() -> None:
    from ..optim import SGD, Adagrad, Adam, AdamW, RMSprop

    OPTIMIZERS.register("sgd", SGD)
    OPTIMIZERS.register("adam", Adam)
    OPTIMIZERS.register("adamw", AdamW)
    OPTIMIZERS.register("rmsprop", RMSprop)
    OPTIMIZERS.register("adagrad", Adagrad)


_register_trainers()
_register_optimizers()
_register_callbacks()
