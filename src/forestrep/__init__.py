"""Exact arithmetic for the fraction groups of binary forests and their
representation coefficients."""

from .coefficients import (
    FarleyPhi,
    GramResult,
    VanishRow,
    farley_norm,
    farley_phi,
    gram_psd_check,
    phi_alpha,
    phi_alpha_eval,
    vanishing_scan,
)
from .errors import ContractError, ForestRepError, ParseError
from .ring import ALPHA, BETA, ONE, ZERO, RingElem
from .shiftrep import (
    Indicator,
    SparseVec,
    UnitVec,
    almost_invariance,
    almost_invariance_report,
    c_constant,
    invariance_bound,
    kn_coefficient,
    zeta,
)
from .thompson import (
    Perm,
    VElement,
    builtin,
    classify,
    element_from_json,
    element_to_json,
    eval_pl,
    family_gn,
    family_kn,
    format_element_literal,
    inflated_element,
    inverse,
    multiply,
    parse_dyadic,
    parse_element_literal,
    standard_generators,
)
from .trees import (
    LEAF,
    Tree,
    caret,
    complete_tree,
    enumerate_trees,
    format_tree,
    merge_trees,
    parse_tree,
)

__version__ = "0.1.0"
