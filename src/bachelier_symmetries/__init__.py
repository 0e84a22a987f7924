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
from .kummer import (
    kummer_truncated,
    kummer_truncated_d2u,
    kummer_truncated_du,
    pochhammer,
)
from .solutions import (
    BaseCombo,
    ComboSolution,
    ModelParams,
    SolutionTerm,
    eval_term,
    eval_term_partials,
    safe_exp,
)
from .symmetry import (
    FLOW_ORIENTATION,
    GeneratorComponents,
    GroupElement,
    JetPoint,
    chain_function,
    fixed_surface_check,
    forward_map,
    generator_eval,
    inverse_point_map,
    pullback,
    pullback_chain,
    transformed,
)
from .pde_verify import (
    GridSpec,
    ResidualReport,
    default_step,
    derivative_richardson,
    residual_fd,
    residual_from_partials,
    residual_scan,
)
from .reference_forms import (
    g3_family_from_worked_combo,
    g4_family_from_linear,
    g5_family_from_gaussian_term,
    worked_combo,
)
from .spec_lang import (
    SolutionExpr,
    expression_function,
    format_expr,
    parse_expr,
    parse_group_element,
)
from .verification import CheckResult, run_scope

__version__ = "1.0.0"

__all__ = [
    "BaseCombo",
    "CheckResult",
    "ComboSolution",
    "DomainError",
    "FLOW_ORIENTATION",
    "GeneratorComponents",
    "GridSpec",
    "GroupElement",
    "InvalidParameter",
    "JetPoint",
    "ModelParams",
    "ParseError",
    "RangeError",
    "ResidualReport",
    "SemanticError",
    "SolutionExpr",
    "SolutionTerm",
    "chain_function",
    "default_step",
    "derivative_richardson",
    "eval_term",
    "eval_term_partials",
    "expression_function",
    "fixed_surface_check",
    "format_expr",
    "forward_map",
    "g3_family_from_worked_combo",
    "g4_family_from_linear",
    "g5_family_from_gaussian_term",
    "generator_eval",
    "inverse_point_map",
    "kummer_truncated",
    "kummer_truncated_d2u",
    "kummer_truncated_du",
    "parse_expr",
    "parse_group_element",
    "pochhammer",
    "pullback",
    "pullback_chain",
    "residual_fd",
    "residual_from_partials",
    "residual_scan",
    "run_scope",
    "safe_exp",
    "transformed",
    "worked_combo",
]
