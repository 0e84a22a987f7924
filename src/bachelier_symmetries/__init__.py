"""Closed-form solutions of the Bachelier pricing PDE and their symmetry transforms.

The package evaluates four families of elementary-function solutions of

    r S C_S + (sigma^2 / 2) C_SS + C_t - r C = 0,

applies the equation's six one-parameter point symmetry groups to generate
new solution families from them, and verifies everything it produces
against the PDE with analytic and finite-difference residual oracles. A
small expression language ties the pieces together for scripting and for
the ``bachsym`` command line.
"""

from .errors import (
    DomainError,
    InvalidParameter,
    ParseError,
    RangeError,
    SemanticError,
)
from .solutions import (
    BaseCombo,
    ComboSolution,
    ModelParams,
    SolutionTerm,
)
from .symmetry import (
    FLOW_ORIENTATION,
    GroupElement,
    JetPoint,
    chain_function,
    forward_map,
    generator_eval,
    inverse_point_map,
)
from .pde_verify import GridSpec, default_step, residual_scan
from .reference_forms import (
    g3_family_from_worked_combo,
    g4_family_from_linear,
    g5_family_from_gaussian_term,
    worked_combo,
)
from .spec_lang import expression_function, format_expr, parse_expr

__version__ = "1.0.0"

__all__ = [
    "BaseCombo",
    "ComboSolution",
    "DomainError",
    "FLOW_ORIENTATION",
    "GridSpec",
    "GroupElement",
    "InvalidParameter",
    "JetPoint",
    "ModelParams",
    "ParseError",
    "RangeError",
    "SemanticError",
    "SolutionTerm",
    "chain_function",
    "default_step",
    "expression_function",
    "format_expr",
    "forward_map",
    "g3_family_from_worked_combo",
    "g4_family_from_linear",
    "g5_family_from_gaussian_term",
    "generator_eval",
    "inverse_point_map",
    "parse_expr",
    "residual_scan",
    "worked_combo",
]
