"""Finite-precision arithmetic across the tilting correspondence.

The package computes in the completed perfectoid field built from
Q_p(p^(1/p^inf)) and in its characteristic-p tilt, and makes the maps
between the two sides explicit: digit arithmetic, the sharp map,
Witt-vector untilting, Newton-polygon root finding, polynomial transfer,
homogeneous approximation on the perfectoid unit disc, adic-point
calculus, and toric section/transfer computations.
"""

from .arith import (
    INF,
    BudgetError,
    ConfigError,
    DencapError,
    DivisionError,
    FieldConfig,
    IndeterminateError,
    KernelError,
    PrecisionError,
    TiltElement,
    UntiltElement,
    ValExp,
    divide_exact,
    element_from_json,
    invert_unit,
    lift_mod_uniformizer,
    parse_text,
    pth_root_mod,
    reduce_mod_uniformizer,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "BudgetError",
    "ConfigError",
    "DencapError",
    "DivisionError",
    "FieldConfig",
    "IndeterminateError",
    "KernelError",
    "PrecisionError",
    "TiltElement",
    "UntiltElement",
    "ValExp",
    "divide_exact",
    "element_from_json",
    "invert_unit",
    "lift_mod_uniformizer",
    "parse_text",
    "pth_root_mod",
    "reduce_mod_uniformizer",
    "__version__",
]
