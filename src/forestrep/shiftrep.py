"""Exact coefficients of the shift representation on l^2(Z).

The caret isometry sends a vector v to (shift v) tensor zeta for a fixed
window vector zeta.  Everything a forest does to an elementary tensor is
therefore describable leaf by leaf as a shift power applied to either zeta
or one of the root inputs, which keeps all inner products rational.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import ContractError
from .thompson import VElement, named_tree, refine
from .trees import Forest, Tree, complete_tree, leaf_cells, left_run, merge_trees, residual_forest

# the highest level whose 2m*8^m window is materialised
WINDOW_LEVEL_CAP = 3


class SparseVec:
    """Finitely supported map from integers to ints or Fractions; no stored zeros."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict | None = None):
        entries = entries or {}
        if set(map(type, entries.values())) - {int, Fraction}:
            raise ContractError("SparseVec: every value must be an int or a Fraction")
        self.entries = {k: v for k, v in entries.items() if v}

    def shift(self, k: int) -> "SparseVec":
        # a shifted valid vector needs neither the value check nor the zero filter
        out = object.__new__(SparseVec)
        out.entries = {i + k: v for i, v in self.entries.items()}
        return out

    def dot(self, other: "SparseVec") -> Fraction:
        small, big = sorted((self.entries, other.entries), key=len)
        return Fraction(sum(v * big[i] for i, v in small.items() if i in big))

    def norm_sq(self) -> Fraction:
        return Fraction(sum(v * v for v in self.entries.values()))

    def __eq__(self, other):
        return isinstance(other, SparseVec) and self.entries == other.entries

    def __repr__(self):
        return f"SparseVec({dict(sorted(self.entries.items()))})"


class UnitVec(NamedTuple):
    """A unit vector kept rational: the actual vector is vec / sqrt(scale_sq).

    Inner products between shifts of the same UnitVec are exact rationals.
    """

    vec: SparseVec
    scale_sq: Fraction

    def inner_shifts(self, a: int, b: int) -> Fraction:
        """<shift^a u, shift^b u>, which is <u, shift^(b-a) u>."""
        return self.vec.dot(self.vec.shift(b - a)) / self.scale_sq

    @classmethod
    def from_sparse(cls, v: SparseVec) -> "UnitVec":
        return cls(v, v.norm_sq())


def _as_unit(v) -> UnitVec:
    if isinstance(v, UnitVec):
        return v
    if isinstance(v, SparseVec):
        return UnitVec.from_sparse(v)
    raise ContractError("expected a UnitVec or SparseVec")


def window_size(m: int) -> int:
    return 2 * m * 8**m


def zeta(m: int) -> UnitVec:
    """Normalized indicator of {1, ..., 2m*8^m}, the scale kept symbolic so
    every reported inner product stays rational."""
    if m < 1:
        raise ContractError("zeta: index must be >= 1")
    if m > WINDOW_LEVEL_CAP:
        raise ContractError(f"zeta: index {m} exceeds bound {WINDOW_LEVEL_CAP}")
    h = window_size(m)
    return UnitVec(SparseVec({i: 1 for i in range(1, h + 1)}), Fraction(h))


class LeafSymbol(NamedTuple):
    """Symbolic leaf component shift^power applied to a carrier.

    ``root`` names the input slot the component descends from when the whole
    path is made of left turns; otherwise the carrier is the fixed auxiliary
    vector and ``root`` is None.
    """

    power: int
    root: int | None


def forest_apply_shift(f: Forest) -> tuple[LeafSymbol, ...]:
    """Leaf components of the forest acting on one abstract input per root.

    Each caret shifts its incoming vector down the left branch and emits the
    auxiliary vector on the right branch, so a leaf carries the input shifted
    by its depth when its path is all left turns, and otherwise the auxiliary
    vector shifted by the number of left turns below the last right turn.
    """
    return tuple(
        LeafSymbol(left_run(index, depth), None if index else root)
        for root, t in enumerate(f.trees, 1)
        for index, depth in leaf_cells(t)
    )


def _resolved_powers(f: Forest, input_powers: Sequence[int]) -> list[int]:
    """Leaf shift powers when every carrier is the auxiliary vector and input
    slot j arrives already shifted by input_powers[j-1]."""
    if len(input_powers) != f.root_count:
        raise ContractError("one input power per root required")
    powers = []
    for sym in forest_apply_shift(f):
        extra = input_powers[sym.root - 1] if sym.root is not None else 0
        powers.append(sym.power + extra)
    return powers


def c_constant(z) -> Fraction:
    """The scalar by which the two commutator trees pair:
    <shift z, z>^2 * <z, shift^2 z>.

    This is the closed form of the leaf-by-leaf pairing of trees q and a,
    i.e. of kn_coefficient(0, [z], z).
    """
    z = _as_unit(z)
    return z.inner_shifts(1, 0) ** 2 * z.inner_shifts(0, 2)


def _pairing(carrier: UnitVec, powers: Iterable[tuple[int, int]]) -> Fraction:
    """Product of <shift^a u, shift^b u> over the leaf pairs (a, b): one
    shifted inner product per distinct lag b - a, raised to its count."""
    lags = Counter(b - a for a, b in powers)
    return math.prod(
        (carrier.inner_shifts(0, lag) ** count for lag, count in lags.items()), start=Fraction(1)
    )


def kn_coefficient(n: int, xi: Sequence, zeta_vec) -> Fraction:
    """Diagonal coefficient of the level-n commutator inflation on the
    elementary tensor with the given 2^n slot vectors.

    Computed by pairing the two symbolic leaf expansions of trees q and a
    with exact sparse inner products; equals C^(2^n) times the product of
    the slot norms, with C = c_constant(zeta_vec).
    """
    if n < 0:
        raise ContractError("kn_coefficient: level must be >= 0")
    components = [_as_unit(v) for v in xi]
    if len(components) != 2**n:
        raise ContractError(
            f"kn_coefficient: expected {2**n} slot vectors at level {n}, got {len(components)}"
        )
    zeta_vec = _as_unit(zeta_vec)
    syms_q = forest_apply_shift(Forest((named_tree("q"),)))
    syms_a = forest_apply_shift(Forest((named_tree("a"),)))
    # q and a both hang the slot input under their first leaf, so every leaf
    # pair has one carrier: zeta_vec, alike in every slot, or the slot's own
    shared = [(sq.power, sa.power) for sq, sa in zip(syms_q, syms_a) if sq.root is None]
    own = [(sq.power, sa.power) for sq, sa in zip(syms_q, syms_a) if sq.root is not None]
    # equal slots pair alike; SparseVec is unhashable, so they are found by ==
    distinct = [comp for k, comp in enumerate(components) if comp not in components[:k]]
    total = _pairing(zeta_vec, shared) ** len(components)
    for comp in distinct:
        total *= _pairing(comp, own) ** components.count(comp)
    return total


def _overlap(g: VElement, m: int) -> tuple[Fraction, Tree]:
    """The overlap <pi(g) xi_m, xi_m> and g's range tree refined so that its
    domain contains the level-m tree."""
    if m < 1 or m > WINDOW_LEVEL_CAP:
        raise ContractError(f"almost_invariance: level {m} outside 1..{WINDOW_LEVEL_CAP}")
    z = zeta(m)
    level = complete_tree(m)
    slots = 2**m

    # reference vector rewritten over the refinement of (domain, level tree)
    w1 = merge_trees(g.domain, level)
    powers_w1 = _resolved_powers(residual_forest(w1, level), [0] * slots)

    # g refined so its domain is w1; its action permutes the components
    range_tree, widened = refine(g.range, g.perm, residual_forest(w1, g.domain))
    powers_range = widened.theta(powers_w1)

    # pair (range_tree, moved components) against (level, all zeros)
    w2 = merge_trees(range_tree, level)
    left = _resolved_powers(residual_forest(w2, range_tree), powers_range)
    right = _resolved_powers(residual_forest(w2, level), [0] * slots)
    return _pairing(z, zip(left, right)), range_tree


def almost_invariance(g: VElement, m: int) -> Fraction:
    """Exact overlap <pi(g) xi_m, xi_m> against the level-m reference vector
    (the all-equal elementary tensor over the complete tree with 2^m leaves).

    Both sides are rewritten over a common refinement tree; every component
    is then a shift power of the same window vector, so the overlap is the
    product of rational shifted inner products.
    """
    return _overlap(g, m)[0]


def invariance_bound(m: int) -> Fraction:
    """(1 - 8^-m)^(4^m), the guaranteed lower bound at level m."""
    return Fraction(8**m - 1, 8**m) ** (4**m)


def almost_invariance_report(g: VElement, m: int) -> dict:
    """Coefficient, bound and the depth condition under which the bound is
    guaranteed (domain no deeper than m once refined, range no deeper than 2m)."""
    value, range_tree = _overlap(g, m)
    ref = invariance_bound(m)
    return {
        "m": m,
        "coefficient": value,
        "bound": ref,
        "satisfied": value >= ref,
        "within_depth": g.domain.depth <= m and range_tree.depth <= 2 * m,
    }
