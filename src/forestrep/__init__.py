"""Exact arithmetic for the fraction groups of binary forests and their
representation coefficients."""

from .coefficients import (
    ExpansionTerm,
    FarleyPhi,
    GramResult,
    RTensor,
    VanishRow,
    farley_matches_phi,
    farley_norm,
    farley_phi,
    gram_psd_check,
    partition_function,
    phi_alpha,
    phi_alpha_eval,
    phi_expansion,
    vanishing_scan,
    word_window_tensor,
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
    Forest,
    Subrooted,
    Tree,
    caret,
    complete_tree,
    compose,
    elementary_forest,
    enumerate_forests,
    enumerate_trees,
    format_forest,
    format_tree,
    format_words,
    graft,
    merge_trees,
    parse_forest,
    parse_tree,
    path_words,
    residual_forest,
    subrooted_trees,
    trivial_forest,
)

__version__ = "0.1.0"
