"""Exact representation coefficients over binary forests.

Two computation routes live here.  The generic route contracts a finite
three-index tensor over the states of a forest (a partition function).  The
interpolation route gives the coefficient ``phi_alpha``, an integer
polynomial in alpha: on F and T the monomial alpha^(2n - 2) of a reduced
pair with n leaves (the cyclic-forest lemma), on V by expanding the action of
each tree on the vacuum basis vector into prefix terms and pairing the two
expansions.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import ContractError
from .ring import ONE, RingElem
from .thompson import Perm, VElement, inverse, multiply
from .trees import (
    Forest,
    Tree,
    caret_positions,
    enumerate_trees,
    fold_tree,
    subrooted_trees,
)


class RTensor:
    """Finite three-index tensor R_i^{j,k} over an explicit index set.

    ``entries`` maps (i, j, k) to an exact scalar (Fraction, int or RingElem).
    When ``check_isometry`` is set, every column i must satisfy
    sum_{j,k} R_i^{j,k}^2 = 1 exactly; symbolic entries are checked in the
    ring, which implies the identity for every parameter value.  Windows cut
    out of an infinite isometry are not themselves isometries, so they are
    built with the check disabled.
    """

    __slots__ = ("indices", "entries", "_columns")

    def __init__(self, indices, entries: dict, check_isometry: bool = True):
        self.indices = tuple(indices)
        index_set = set(self.indices)
        if len(index_set) != len(self.indices):
            raise ContractError("RTensor: duplicate indices")
        self.entries = dict(entries)
        columns: dict = {i: [] for i in self.indices}
        for (i, j, k), value in self.entries.items():
            if i not in index_set or j not in index_set or k not in index_set:
                raise ContractError(f"RTensor: entry ({i},{j},{k}) outside the index set")
            columns[i].append(((j, k), value))
        self._columns = columns
        if check_isometry:
            for i in self.indices:
                if sum((v * v for _, v in columns[i]), start=0) != 1:
                    raise ContractError(f"RTensor: column {i!r} is not norm one")

    def column(self, i):
        try:
            return self._columns[i]
        except KeyError:
            raise ContractError(f"RTensor: index {i!r} outside the index set") from None


def partition_function(f: Forest, R: RTensor, in_idx, out_idx):
    """Sum over all edge labelings compatible with the boundary indices of the
    product of R over the internal vertices.

    ``in_idx`` labels the roots, ``out_idx`` the leaves.  An empty compatible
    set yields 0; a forest with no vertices yields 1 exactly when the
    boundaries agree.
    """
    in_idx = tuple(in_idx)
    out_idx = tuple(out_idx)
    if len(in_idx) != f.root_count:
        raise ContractError("partition_function: one input index per root required")
    if len(out_idx) != f.leaf_count:
        raise ContractError("partition_function: one output index per leaf required")
    index_set = set(R.indices)
    for i in in_idx + out_idx:
        if i not in index_set:
            raise ContractError(f"partition_function: index {i!r} outside the index set")

    def join(left: dict, right: dict) -> dict:
        # label i on a caret's top edge sums R_i^{j,k} * left[j] * right[k]
        out = {}
        for i in R.indices:
            value = sum(
                (w * left[j] * right[k] for (j, k), w in R.column(i) if j in left and k in right),
                start=0,
            )
            if value != 0:
                out[i] = value
        return out

    total = 1
    pos = 0
    for root, t in zip(in_idx, f.trees):
        segment = out_idx[pos : pos + t.leaf_count]
        pos += t.leaf_count
        # one state sum per tree: each node maps its top label to an amplitude
        value = fold_tree(t, [{label: 1} for label in segment], join).get(root, 0)
        if value == 0:
            return 0 * total
        total = total * value
    return total


# ---------------------------------------------------------------------------
# the interpolation family

class ExpansionTerm(NamedTuple):
    coefficient: RingElem
    words: tuple[str, ...]


def phi_expansion(t: Tree) -> tuple[ExpansionTerm, ...]:
    """Expansion of the tree's action on the vacuum vector: one term per
    prefix z, with coefficient alpha^(leaves(z)-1) * beta^(inner leaves of z)
    attached to the residual path words."""
    return tuple(
        ExpansionTerm(RingElem.term(entry.tree.leaf_count - 1, entry.inner_leaves), entry.words)
        for entry in subrooted_trees(t)
    )


def word_window_tensor(words: Iterable[str]) -> RTensor:
    """The interpolation tensor restricted to the suffix closure of the given
    words.  Column 'e' carries alpha on (e, e) and beta on (a, b); a word g
    maps to ('a'+g, 'b'+g) with weight one whenever both lie in the window.
    """
    closure = {""}
    for w in words:
        for k in range(len(w) + 1):
            closure.add(w[k:])
    closure.update({"a", "b"})
    entries: dict = {("", "", ""): RingElem.alpha(), ("", "a", "b"): RingElem.beta()}
    for g in closure:
        if g and "a" + g in closure and "b" + g in closure:
            entries[(g, "a" + g, "b" + g)] = ONE
    return RTensor(sorted(closure), entries, check_isometry=False)


def phi_alpha(g: VElement) -> RingElem:
    """The diagonal vacuum coefficient of g as an exact polynomial in alpha.

    On F and T (the bijection is a rotation) it is alpha^(2n - 2) for the n
    leaves of the reduced pair.  On V_only elements it sums over pairs of
    prefixes (z of the range tree, r of the domain tree) whose residual words
    match under the stored leaf bijection.  The result is always beta-free:
    an odd beta power, whose term is positive on (0, 1) and so cannot cancel,
    would be a computation bug and raises.
    """
    if g.perm.rotation_offset() is not None:
        # cyclic-forest lemma: only the whole trees match; any other matched
        # prefix pair leaves a common caret under aligned leaves, which cancels
        return RingElem.term(farley_norm(g), 0)
    range_terms = subrooted_trees(g.range)
    domain_terms = subrooted_trees(g.domain)
    lookup = {}
    for entry in domain_terms:
        lookup[g.perm.theta(entry.words)] = (entry.tree.leaf_count, entry.inner_leaves)
    exponents: Counter = Counter()
    for entry in range_terms:
        hit = lookup.get(entry.words)
        if hit is not None:
            leaves_r, inner_r = hit
            exponents[(entry.tree.leaf_count + leaves_r - 2, entry.inner_leaves + inner_r)] += 1
    if any(beta_exp % 2 for _, beta_exp in exponents):
        raise ArithmeticError(
            "phi_alpha: nonzero beta component; matched terms must absorb beta in pairs"
        )
    return RingElem.expand(exponents)


def phi_alpha_eval(g: VElement, alpha) -> Fraction:
    """Exact rational value of phi_alpha at a rational parameter in [0, 1]."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ContractError("phi_alpha_eval: alpha must lie in [0, 1]")
    return phi_alpha(g).eval(alpha)


# ---------------------------------------------------------------------------
# comparison with the exponential-decay family

class FarleyPhi(NamedTuple):
    """exp(-beta)^exponent kept exact as the pair (beta, exponent)."""

    beta: Fraction
    exponent: int

    def as_float(self) -> float:
        return math.exp(-float(self.beta) * self.exponent)


def farley_norm(g: VElement) -> int:
    """Squared cocycle length of a reduced pair with n leaves: 2n - 2."""
    return 2 * g.leaf_count - 2


def farley_phi(g: VElement, beta) -> FarleyPhi:
    beta = Fraction(beta)
    if beta < 0:
        raise ContractError("farley_phi: decay rate must be >= 0")
    return FarleyPhi(beta, farley_norm(g))


def farley_matches_phi(g: VElement) -> bool:
    """Whether phi_alpha(g) equals the pure monomial alpha^(2n-2) as a
    polynomial, i.e. whether the exponential-decay family sees g the same way.

    On F and T this restates the closed form phi_alpha returns there, so only
    V_only elements can differ; the closed form itself is checked against
    prefix-pair enumeration (``_enumerated_phi`` in tests/test_coefficients.py).
    """
    return phi_alpha(g) == RingElem.term(farley_norm(g), 0)


# ---------------------------------------------------------------------------
# positive semidefiniteness, exactly

class GramResult(NamedTuple):
    is_psd: bool
    witness: dict | None


def psd_ldlt(matrix) -> GramResult:
    """Decide positive semidefiniteness of a symmetric rational matrix by
    pivoted LDL^T, no tolerances.

    The matrix is scaled to integers by the common denominator of its
    entries and eliminated fraction-free (Bareiss): after each pivot every
    remaining entry is the rational Schur-complement entry times the
    positive integer previous pivot x common denominator, so each update
    divides exactly by the previous pivot and integer comparisons order the
    entries as the rationals do.  The pivot is the largest remaining
    diagonal entry, lowest index first.  A negative pivot (or diagonal entry
    beside a zero pivot), or a zero pivot alongside a nonzero residual
    off-diagonal entry, refutes PSD and is the witness, with its rational value.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ContractError("psd_ldlt: the matrix is not square")
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise ContractError("psd_ldlt: the matrix is not symmetric")
    common = math.lcm(*(v.denominator for row in rows for v in row))
    work = [[v.numerator * (common // v.denominator) for v in row] for row in rows]
    active = list(range(n))
    previous = 1
    while active:
        pivot = max(active, key=lambda i: (work[i][i], -i))
        value = work[pivot][pivot]
        scale = previous * common
        if value < 0:
            return GramResult(
                False, {"kind": "negative_pivot", "index": pivot, "value": Fraction(value, scale)}
            )
        if value == 0:
            for i in active:
                for j in active:
                    if work[i][j] != 0:
                        where = (
                            {"kind": "negative_pivot", "index": i}
                            if i == j
                            else {"kind": "zero_pivot_offdiagonal", "row": i, "col": j}
                        )
                        return GramResult(False, {**where, "value": Fraction(work[i][j], scale)})
            return GramResult(True, None)
        active.remove(pivot)
        col = work[pivot]
        # one update per unordered pair, mirrored: the residual stays symmetric
        for a, i in enumerate(active):
            row, ci = work[i], col[i]
            for j in active[a:]:
                row[j] = work[j][i] = (value * row[j] - ci * col[j]) // previous
        previous = value
    return GramResult(True, None)


def gram_psd_check(elements, alpha) -> GramResult:
    """Exact PSD verdict for M[i][j] = phi_alpha(g_i^-1 g_j) at a rational alpha.

    Each unordered pair of distinct elements is computed once and mirrored,
    since phi(g^-1) = phi(g); entries between equal elements, the diagonal
    included, are phi(identity) = 1.  A repeated element takes the row and
    column of its first occurrence.
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ContractError("gram_psd_check: alpha must lie in [0, 1]")
    elements = list(elements)
    # slot[i]: the position of element i among the distinct elements
    slots: dict = {}
    slot = [slots.setdefault(g, len(slots)) for g in elements]
    distinct = list(slots)
    m = len(distinct)
    core = [[Fraction(1)] * m for _ in range(m)]
    for a in range(m - 1):
        inv = inverse(distinct[a])
        for b in range(a + 1, m):
            core[a][b] = core[b][a] = phi_alpha(multiply(inv, distinct[b])).eval(alpha)
    return psd_ldlt([[core[a][b] for b in slot] for a in slot])


# ---------------------------------------------------------------------------
# decay table on rotation elements

class VanishRow(NamedTuple):
    leaves: int
    count: int
    phi_value: Fraction
    max_deviation: Fraction
    values: tuple[tuple[VElement, Fraction], ...]  # (element, phi) per pair


def reduced_rotation_elements(max_leaves: int):
    """All reduced (tree, tree, rotation) triples with up to max_leaves leaves,
    in deterministic order.

    Rotation c cancels a caret exactly when it sends the leaves (k, k+1) of
    a domain caret onto a range caret's leaves (k + c, k + c + 1), so only the
    offsets with no such k are built.
    """
    for n in range(1, max_leaves + 1):
        trees = enumerate_trees(n)
        carets = [caret_positions(t) for t in trees]
        rotations = [Perm.rotation(n, c) for c in range(n)]
        for range_tree, range_carets in zip(trees, carets):
            for domain_tree, domain_carets in zip(trees, carets):
                cancelling = {(j - k) % n for k in domain_carets for j in range_carets}
                for c in range(n):
                    if c not in cancelling:
                        yield VElement._from_reduced(domain_tree, range_tree, rotations[c])


def _rotation_triples(max_leaves: int) -> int:
    """How many (tree, tree, rotation) triples reduced_rotation_elements
    screens: the sum over n <= max_leaves of n * Cat(n-1)^2."""
    return sum(n * (math.comb(2 * n - 2, n - 1) // n) ** 2 for n in range(1, max_leaves + 1))


# the 133,647 triples screened at max_leaves = 7, of which 74,828 are reduced:
# `scan-vanishing --max-leaves 7` takes about 4 s on a shared 2-vCPU VM, and
# each further leaf multiplies the count by about ten
_SCAN_TRIPLE_CAP = _rotation_triples(7)


def vanishing_scan(alpha, max_leaves: int) -> list[VanishRow]:
    """Tabulate phi_alpha over all reduced rotation pairs by leaf count.

    For each n the computed value must be exactly alpha^(2n-2); the deviation
    column records the largest absolute difference actually observed, and
    ``values`` keeps each (element, value) pair in enumeration order.  Since
    phi_alpha returns that closed form on rotation pairs, the deviation
    restates it and reads 0; the independent check is prefix-pair enumeration
    (``_enumerated_phi`` in tests/test_coefficients.py).
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ContractError("vanishing_scan: alpha must lie in [0, 1]")
    if max_leaves < 0:
        raise ContractError(f"vanishing_scan: max_leaves {max_leaves} is negative")
    triples = _rotation_triples(max_leaves)
    if triples > _SCAN_TRIPLE_CAP:
        raise ContractError(
            f"vanishing_scan: max_leaves {max_leaves} means screening {triples} triples"
            f" of two trees and a rotation, over the cap of {_SCAN_TRIPLE_CAP}"
        )
    per_n: dict[int, list[tuple[VElement, Fraction]]] = {n: [] for n in range(1, max_leaves + 1)}
    for g in reduced_rotation_elements(max_leaves):
        per_n[g.leaf_count].append((g, phi_alpha_eval(g, alpha)))
    rows = []
    for n in range(1, max_leaves + 1):
        expected = alpha ** (2 * n - 2)
        values = tuple(per_n[n])
        deviation = max((abs(v - expected) for _, v in values), default=Fraction(0))
        rows.append(VanishRow(n, len(values), expected, deviation, values))
    return rows
