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

# the exact bound (1 - 8^-m)^(4^m), two integers of about 3m*4^m bits, sets what
# level m costs: printing it takes 0.4 s at m = 7 and 9 s at m = 8 (2-vCPU VM)
SHIFT_LEVEL_CAP = 7


def _check_level(where: str, m: int) -> None:
    if not 1 <= m <= SHIFT_LEVEL_CAP:
        # past m = 32 the bit count itself grows long, so it stays a formula
        bits = f"{3 * m * 4**m:,}" if m <= 32 else f"3*{m}*4^{m}"
        cost = f"; its exact bound (1 - 8^-m)^(4^m) needs two {bits}-bit integers" if m > 0 else ""
        raise ContractError(f"{where}: level {m} outside 1..{SHIFT_LEVEL_CAP}{cost}")


class SparseVec:
    """Finitely supported map from integers to ints or Fractions; no stored zeros."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict | None = None):
        entries = entries or {}
        if set(map(type, entries.values())) - {int, Fraction}:
            raise ContractError("SparseVec: every value must be an int or a Fraction")
        self.entries = {k: v for k, v in entries.items() if v}

    def shift(self, k: int) -> "SparseVec":
        return SparseVec({i + k: v for i, v in self.entries.items()})

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
    """A unit vector kept rational: the actual vector is vec / sqrt(scale_sq),
    so inner products between shifts of the same UnitVec are exact rationals."""

    vec: SparseVec
    scale_sq: Fraction

    def inner_shifts(self, a: int, b: int) -> Fraction:
        """<shift^a u, shift^b u>, which is <u, shift^(b-a) u>."""
        return self.vec.dot(self.vec.shift(b - a)) / self.scale_sq

    @classmethod
    def from_sparse(cls, v: SparseVec) -> "UnitVec":
        return cls(v, v.norm_sq())


class Indicator:
    """Normalized indicator of {1, ..., h}, stored as h: shifted by a and b it
    overlaps itself on max(0, h - |b - a|) points."""

    __slots__ = ("h",)

    def __init__(self, h: int):
        self.h = h

    def inner_shifts(self, a: int, b: int) -> Fraction:
        return Fraction(max(0, self.h - abs(b - a)), self.h)

    def __eq__(self, other):
        return isinstance(other, Indicator) and self.h == other.h


def _as_unit(v) -> UnitVec | Indicator:
    if isinstance(v, (UnitVec, Indicator)):
        return v
    if isinstance(v, SparseVec):
        return UnitVec.from_sparse(v)
    raise ContractError("expected an Indicator, a UnitVec or a SparseVec")


def zeta(m: int) -> Indicator:
    """The window vector of level m: the normalized indicator of {1, ..., 2m*8^m}."""
    _check_level("zeta", m)
    return Indicator(2 * m * 8**m)


class LeafSymbol(NamedTuple):
    """Symbolic leaf component shift^power applied to a carrier: the input of
    slot ``root`` when the whole path is made of left turns, otherwise the
    fixed auxiliary vector, with ``root`` None."""

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
    shifts = (0, *input_powers)  # slots count from 1; 0 stands for the auxiliary vector
    return [sym.power + shifts[sym.root or 0] for sym in forest_apply_shift(f)]


def c_constant(z) -> Fraction:
    """<shift z, z>^2 * <z, shift^2 z>, the scalar by which the two commutator
    trees pair: the closed form of their leaf-by-leaf pairing, which is
    kn_coefficient(0, [z], z)."""
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
    with exact shifted inner products; equals C^(2^n) times the product of
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
    _check_level("almost_invariance", m)
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
    return _pairing(zeta(m), zip(left, right)), range_tree


def almost_invariance(g: VElement, m: int) -> Fraction:
    """Exact overlap <pi(g) xi_m, xi_m> against the level-m reference vector
    (the all-equal elementary tensor over the complete tree with 2^m leaves).

    Both sides are rewritten over a common refinement tree; every component
    is then a shift power of zeta(m), so the overlap is a product of its
    rational shifted inner products."""
    return _overlap(g, m)[0]


def invariance_bound(m: int) -> Fraction:
    """(1 - 8^-m)^(4^m), the guaranteed lower bound at level m."""
    _check_level("invariance_bound", m)
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
