"""Exact coefficients of the shift representation on l^2(Z).

The caret isometry sends a vector v to (shift v) tensor zeta for a fixed
window vector zeta.  So a tree sends its root input to one shift power per
leaf cell (i, d): shift^left_run(i, d) of the input on the first leaf, where
i == 0, and of zeta on every other leaf.  Inner products of such tensors are
products of rational shifted inner products.  The overlap of a group element
moves the leaves of the reference vector's tree from the element's domain
under its range with ``thompson.carry``, the one routine by which
``multiply`` also moves the leaves of its merge, and builds no refined tree.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Sequence

from .errors import ContractError, _integer
from .thompson import VElement, carry, named_tree
from .trees import Depths, left_run, merge_trees

# the exact bound (1 - 8^-m)^(4^m), two integers of about 3m*4^m bits, sets what
# level m costs: printing it takes 0.4 s at m = 7 and 9 s at m = 8 (2-vCPU VM)
SHIFT_LEVEL_CAP = 7


def _check_level(where: str, m: int) -> None:
    if not 1 <= _integer(where, "level", m) <= SHIFT_LEVEL_CAP:
        # past m = 32 the bit count itself grows long, so it stays a formula
        bits = f"{3 * m * 4**m:,}" if m <= 32 else f"3*{m}*4^{m}"
        cost = f"; its exact bound (1 - 8^-m)^(4^m) needs two {bits}-bit integers" if m > 0 else ""
        raise ContractError(f"{where}: level {m} outside 1..{SHIFT_LEVEL_CAP}{cost}")


class SparseVec:
    """Finitely supported map from integers to ints or Fractions; no stored zeros."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict | None = None):
        entries = entries or {}
        if set(map(type, entries)) - {int}:
            raise ContractError("SparseVec: every key must be an int")
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


class UnitVec:
    """The unit vector vec / |vec| kept rational through the squared norm of
    vec, so inner products between its shifts are exact rationals."""

    __slots__ = ("vec", "_norm_sq")

    def __init__(self, vec: SparseVec):
        norm_sq = vec.norm_sq()
        if not norm_sq:
            raise ContractError("UnitVec: the zero vector has no unit direction")
        self.vec = vec
        self._norm_sq = norm_sq

    def lag_ratio(self, lag: int) -> tuple[int, int]:
        """<u, shift^lag u> as its numerator and denominator."""
        return (self.vec.dot(self.vec.shift(lag)) / self._norm_sq).as_integer_ratio()

    def inner_shifts(self, a: int, b: int) -> Fraction:
        """<shift^a u, shift^b u>, which is <u, shift^(b-a) u>."""
        return Fraction(*self.lag_ratio(b - a))

    def __eq__(self, other):
        return isinstance(other, UnitVec) and self.vec == other.vec


class Indicator:
    """Normalized indicator of {1, ..., h}, stored as h: shifted by a and b it
    overlaps itself on max(0, h - |b - a|) points."""

    __slots__ = ("h",)

    def __init__(self, h: int):
        if _integer("Indicator", "window length", h) < 1:
            raise ContractError(f"Indicator: window length {h} is below 1")
        self.h = h

    def lag_ratio(self, lag: int) -> tuple[int, int]:
        return max(0, self.h - abs(lag)), self.h

    def inner_shifts(self, a: int, b: int) -> Fraction:
        return Fraction(*self.lag_ratio(b - a))

    def __eq__(self, other):
        return isinstance(other, Indicator) and self.h == other.h


def _as_unit(v) -> UnitVec | Indicator:
    if isinstance(v, (UnitVec, Indicator)):
        return v
    if isinstance(v, SparseVec):
        return UnitVec(v)
    raise ContractError("expected an Indicator, a UnitVec or a SparseVec")


def zeta(m: int) -> Indicator:
    """The window vector of level m: the normalized indicator of {1, ..., 2m*8^m}."""
    _check_level("zeta", m)
    return Indicator(2 * m * 8**m)


def c_constant(z) -> Fraction:
    """<shift z, z>^2 * <z, shift^2 z>, the scalar by which the two commutator
    trees pair: the closed form of their leaf-by-leaf pairing, which is
    kn_coefficient(0, [z], z)."""
    z = _as_unit(z)
    return z.inner_shifts(1, 0) ** 2 * z.inner_shifts(0, 2)


def _pairing(carrier: UnitVec | Indicator, lags: Counter) -> Fraction:
    """Product of <u, shift^lag u> over a {lag: count} Counter, on integers;
    lag 0 pairs a unit vector with itself to 1."""
    num = den = 1
    for lag, count in lags.items():
        if lag:
            n, d = carrier.lag_ratio(lag)
            num *= n**count
            den *= d**count
    return Fraction(num, den)


def _split_lags(k: int) -> dict[int, int]:
    """{lag: count} of -left_run(r, k), r's trailing zero count, over r = 1..2^k - 1."""
    return {-j: 1 << (k - 1 - j) for j in range(k)}


def kn_coefficient(n: int, xi: Sequence, zeta_vec) -> Fraction:
    """Diagonal coefficient of the level-n commutator inflation on the
    elementary tensor with the given 2^n slot vectors, each taken as a unit
    vector.

    Computed by pairing the leaf shift powers of trees q and a, leaf by
    leaf, with exact shifted inner products; equals C^(2^n), with
    C = c_constant(zeta_vec).
    """
    if _integer("kn_coefficient", "level", n) < 0:
        raise ContractError("kn_coefficient: level must be >= 0")
    components = [_as_unit(v) for v in xi]
    # a count of 2^n has n + 1 bits, so a wrong n is refused without building 2^n
    if len(components).bit_length() != n + 1 or len(components) != 1 << n:
        raise ContractError(f"kn_coefficient: level {n} takes 2^{n} slot vectors, got {len(components)}")
    zeta_vec = _as_unit(zeta_vec)
    # q and a both hang the slot input under their first leaf, at the same
    # shift power, so each slot's unit vector pairs with itself to <u, u> = 1;
    # every other leaf pair carries zeta_vec, alike in every slot
    _, *shared = zip(named_tree("q").cells(), named_tree("a").cells())
    lags = Counter(left_run(*cell_a) - left_run(*cell_q) for cell_q, cell_a in shared)
    return _pairing(zeta_vec, lags) ** len(components)


def _overlap(g: VElement, m: int) -> tuple[Fraction, int, int]:
    """The overlap <pi(g) xi_m, xi_m> and the depths of g's domain and range
    trees once refined so that the domain contains the level-m tree.

    Over the merge W of g's domain and the level tree, the reference vector
    has on W's leaf cell (i, d) zeta shifted by p = min(left_run(i, d), d - m),
    the left turns that end its path below the level tree.  g moves the W
    leaves below each domain leaf, with their p, under the range leaf it is
    sent to; in range order they are the leaves of the refined range tree,
    each moved as many levels as the two leaves' depths differ.  A moved
    cell (c, e) with e >= m lies in a level-m cell, where the reference
    vector has zeta shifted by min(left_run(c, e), e - m).  A moved cell
    with e < m splits into 2^(m-e) level-m cells, each with plain zeta in
    the reference vector: the first carries p after m - e more left turns,
    cell r > 0 carries left_run(r, m - e).  The overlap is the product over
    these pairs, so only the count of each lag matters.
    """
    _check_level("almost_invariance", m)
    w = merge_trees(g.domain, Depths((m,) * 2**m))
    moved, source = carry(w, g.domain, g.range, g.perm._inv, list(range(len(w))))
    w_cells = w.cells()
    lags = Counter()
    for (c, e), t in zip(moved.cells(), source):
        i, d = w_cells[t]
        p = min(left_run(i, d), d - m)
        if e >= m:
            lags[min(left_run(c, e), e - m) - p] += 1
        else:
            lags[e - m - p] += 1
            lags.update(_split_lags(m - e))
    return _pairing(zeta(m), lags), max(w), max(moved)


def almost_invariance(g: VElement, m: int) -> Fraction:
    """Exact overlap <pi(g) xi_m, xi_m> against the level-m reference vector
    (the all-equal elementary tensor over the complete tree with 2^m leaves).

    Both sides are written on level-m cells and below, cell by cell; every
    component is then a shift power of zeta(m), so the overlap is a product
    of its rational shifted inner products."""
    return _overlap(g, m)[0]


def invariance_bound(m: int) -> Fraction:
    """(1 - 8^-m)^(4^m), the guaranteed lower bound at level m."""
    _check_level("invariance_bound", m)
    return Fraction(8**m - 1, 8**m) ** (4**m)


def almost_invariance_report(g: VElement, m: int) -> dict:
    """Coefficient, bound and the depth condition under which the bound is
    guaranteed (domain no deeper than m once refined, range no deeper than 2m)."""
    value, domain_depth, range_depth = _overlap(g, m)
    ref = invariance_bound(m)
    return {
        "m": m,
        "coefficient": value,
        "bound": ref,
        "satisfied": value >= ref,
        "within_depth": domain_depth <= m and range_depth <= 2 * m,
    }
