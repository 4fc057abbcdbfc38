"""Exact-arithmetic cut-and-project schemes, model sets and transformations."""

from .internal_space import (
    FiniteCyclicFactor,
    HPoint,
    IntegerRankFactor,
    InternalSpace,
    RealFactor,
    TorusFactor,
    TwistedExtensionFactor,
    haar_measure,
)
from .scalars import GOLDEN, GOLDEN_CONJ, SQRT5, Scalar, parse_scalar
from .scheme import (
    AveragingSequence,
    Box,
    CutProjectScheme,
    Patch,
    dens_lattice,
    is_commensurate,
    project_points,
    star,
)
from .windows import (
    AugmentedWindow,
    Interval,
    IntervalSet,
    ProductWindow,
    UnionWindow,
    Window,
    empty_window,
    interval_window,
    window_from_obj,
)

__all__ = [
    "AugmentedWindow",
    "AveragingSequence",
    "Box",
    "CutProjectScheme",
    "FiniteCyclicFactor",
    "GOLDEN",
    "GOLDEN_CONJ",
    "HPoint",
    "IntegerRankFactor",
    "InternalSpace",
    "Interval",
    "IntervalSet",
    "Patch",
    "ProductWindow",
    "RealFactor",
    "SQRT5",
    "Scalar",
    "TorusFactor",
    "TwistedExtensionFactor",
    "UnionWindow",
    "Window",
    "dens_lattice",
    "empty_window",
    "haar_measure",
    "interval_window",
    "is_commensurate",
    "parse_scalar",
    "project_points",
    "star",
    "window_from_obj",
]

__version__ = "0.1.0"
