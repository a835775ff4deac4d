"""Quadratic layer modules."""

from .base import QuadraticLayerBase
from .hybrid import (
    HybridQuadraticConv2d,
    HybridQuadraticConv2dFan,
    HybridQuadraticConv2dFunction,
    HybridQuadraticConv2dT4,
    HybridQuadraticLinear,
    HybridQuadraticLinearFunction,
)
from .qconv import QuadraticConv2d, QuadraticConv2dT1
from .qlinear import QuadraticLinear

__all__ = [
    "QuadraticLayerBase",
    "QuadraticLinear",
    "QuadraticConv2d",
    "QuadraticConv2dT1",
    "HybridQuadraticConv2d",
    "HybridQuadraticConv2dT4",
    "HybridQuadraticConv2dFan",
    "HybridQuadraticLinear",
    "HybridQuadraticConv2dFunction",
    "HybridQuadraticLinearFunction",
]
