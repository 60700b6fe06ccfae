"""Exact representation coefficients over binary forests.

``phi_alpha`` is the diagonal vacuum coefficient of the interpolation
family, an integer polynomial in alpha: on F and T the monomial
alpha^(2n - 2) of a reduced pair with n leaves (the cyclic-forest lemma), on
V the sum over the pairs of prefixes whose residual words match through the
leaf bijection, taken as a cover sum over closure classes of tree nodes on
integer leaf cells without listing the prefixes.  Beside it: the comparison
with the exponential-decay family, exact PSD verdicts on Gram matrices and
the decay table on rotation elements.  The tensor construction these
coefficients come from, the prefix enumeration and the other routes that
check them live in ``oracles``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import ContractError, _exact, _integer
from .ring import RingElem
from .thompson import Perm, VElement, inverse, multiply
from .trees import ENUM_LEAF_CAP, caret_positions, enumerate_depths


def _exact_alpha(where: str, alpha) -> Fraction:
    """alpha as a Fraction in [0, 1], from an int or a Fraction only."""
    alpha = _exact(where, "alpha", alpha)
    # the denominator is positive, so this is 0 <= alpha <= 1 on integers
    if not 0 <= alpha.numerator <= alpha.denominator:
        raise ContractError(f"{where}: alpha must lie in [0, 1]")
    return alpha


# the 7,000-leaf block-reversed comb pair reaches 10^7 partner entries in 3 to
# 4.5 s and 39 MiB on a shared 2-vCPU VM; g_N builds 4N.  A node builds at
# most one entry per leaf below it: quadratic when those go to many partners
CLOSURE_ENTRY_CAP = 10_000_000
# a 993-leaf element whose cover states multiply writes 10^6 polynomial
# entries in about 0.25 s and 47 MiB on a shared 2-vCPU VM; g_N writes N
COVER_ENTRY_CAP = 1_000_000
CUT = -1  # the parent of a root and of a node whose parent cannot be cut


def phi_alpha(g: VElement) -> RingElem:
    """The diagonal vacuum coefficient of g as an exact polynomial in alpha.

    On F and T (the bijection is a rotation) it is alpha^(2n - 2) for the n
    leaves of the reduced pair.  On V_only elements it is the closure-class
    cover sum ``_class_sum``, which sums over the pairs of prefixes whose
    residual words match under the leaf bijection without listing them.
    The rotation branch is a fast path of that route: on a reduced rotation
    element neither tree has a caret whose two strands can both be cut, so
    the caret test settles it (the cyclic-forest lemma).  The result is
    always beta-free: an odd beta power, whose term is positive on (0, 1)
    and so cannot cancel, would be a computation bug and raises.
    """
    if g.perm.rotation_offset() is not None:
        return RingElem.term(farley_norm(g), 0)
    return _class_sum(g)


def _class_sum(g: VElement) -> RingElem:
    """Sum alpha^(leaves(z) + leaves(r) - 2) beta^(inner leaves of z and r)
    over the prefix pairs (z of the range tree, r of the domain tree) whose
    residual words match under the leaf bijection, on leaf cells.

    Range leaf i and domain leaf perm.inv(i) form strand i.  A matched pair
    cuts each strand at one height h: the cut nodes of z and r sit h levels
    above the strand's two leaves, so h is at most both depths and the low h
    bits of the two cell indices, the residual words, agree.  Cutting at a
    node fixes h on its strands, hence its partners, the nodes of the other
    tree cut there: a leaf's partner is the leaf at the other end of its
    strand, a node's are the parents of its children's, or CUT when such a
    parent cannot be cut.  Range nodes joined to their partners form the
    classes, valid with no CUT, no overlap on either side (no strand cut
    twice) and as many leaves on both sides.  Leaf strands are the trivial
    classes (two leaf nodes, alpha^2); a nontrivial class holds only
    internal nodes and weighs (alpha beta)^(nodes).  A matched pair is a set
    of classes whose range nodes cover the range leaves once (the state-sum
    picture of Jones, arXiv:1412.7740), and the sum carries one alpha^-2.

    Before any node table is built, a two-sided caret test settles most
    elements.  A node can be cut when every strand below it can be cut that
    high, so every node below a cuttable node can be cut too, and a cuttable
    internal node has a cuttable caret (two sibling leaves whose strands
    both have a cut height >= 1) below it.  A nontrivial class holds
    internal nodes of both trees, cut at one height h >= 1 on its strands.
    So if either tree has no cuttable caret, every nontrivial class
    conflicts and the whole trees are the only match: alpha^(2n - 2).
    """
    range_cells, domain_cells = g.range.cells(), g.domain.cells()
    n = len(range_cells)
    # the leaf at the other end of each range leaf's and domain leaf's strand
    to_domain = g.perm._inv
    to_range = [v - 1 for v in g.perm.images]
    top = []  # the largest cut height of each strand
    for (c, d), j in zip(range_cells, to_domain):
        c2, d2 = domain_cells[j]
        diff = c ^ c2
        top.append(min(d, d2, (diff & -diff).bit_length() - 1) if diff else min(d, d2))
    if not _cuttable_caret(range_cells, top) or not _cuttable_caret(domain_cells, [top[i] for i in to_range]):
        return RingElem.term(2 * n - 2, 0)
    range_up = _viable_nodes(g.range, [d - h for d, h in zip(g.range, top)], 0)
    domain_up = _viable_nodes(g.domain, [d - top[i] for d, i in zip(g.domain, to_range)], 1)
    stride = n + 1
    link = {CUT: CUT}  # union-find over CUT, the internal range nodes and their partners
    def find(x: int) -> int:
        while link[x] != x:
            link[x] = x = link[link[x]]
        return x
    below: dict[int, list[set]] = {}  # the partner sets of the children built so far
    entries = 0
    for node, parent in range_up.items():
        if node in below:
            own = {domain_up.get(p, CUT) for part in below.pop(node) for p in part}
            entries += len(own)
            if entries > CLOSURE_ENTRY_CAP:
                raise ContractError(
                    f"phi_alpha: closing the classes of a {n}-leaf element builds more than"
                    f" the cap of {CLOSURE_ENTRY_CAP} partner entries"
                )
            link[node] = node
            for p in own:
                link[find(link.setdefault(p, p))] = node
        else:  # a leaf
            j = to_domain[(node >> 1) // stride]
            own = {(j * stride + j + 1) << 1 | 1}
        if parent != CUT:
            below.setdefault(parent, []).append(own)
    members: dict[int, list[int]] = {}
    for x in link:
        members.setdefault(find(x), []).append(x)
    del members[find(CUT)]
    classes = []
    for nodes in members.values():
        masks, sizes = [0, 0], [0, 0]  # the leaves of the class on each side
        for x in nodes:
            first, end = divmod(x >> 1, stride)
            masks[x & 1] |= (1 << end) - (1 << first)
            sizes[x & 1] += end - first
        # no two nodes of one side overlap, and both sides hold as many leaves
        if masks[0].bit_count() == sizes[0] == sizes[1] == masks[1].bit_count():
            classes.append((len(nodes), masks[0]))
    exponents = {
        (2 * (n - strands) + nodes - 2, nodes): count
        for (strands, nodes), count in _cover_counts(classes, n).items()
    }
    if any(beta_exp % 2 for _, beta_exp in exponents):
        raise ArithmeticError("phi_alpha: nonzero beta component; matched terms must absorb beta in pairs")
    return RingElem.expand(exponents)


def _cuttable_caret(cells, top) -> bool:
    """Whether some caret, two sibling leaf cells (c - 1, d) and (c, d) with
    c odd, has both strands cuttable: top, the largest cut height of each
    leaf's strand in cell order, is at least 1 on both."""
    before = depth = 0  # the previous leaf's top and depth
    for (c, d), h in zip(cells, top):
        if h and before and d == depth and c & 1:
            return True
        before, depth = h, d
    return False


def _viable_nodes(depths, floor, side: int) -> dict[int, int]:
    """{node: parent or CUT} over the nodes that can be cut, children first:
    a node at depth e can be cut when every leaf below it has floor <= e,
    i.e. its strand can be cut e levels from the root.  A node is the int
    (first leaf * (n + 1) + end leaf) * 2 + side.  Built shift-reduce over
    the leaf depths, as trees._assemble builds a tree."""
    stride = len(depths) + 1
    up = {}
    stack: list[tuple[int, int, int, int]] = []  # (depth, first leaf, floor, node)
    for k, (d, low) in enumerate(zip(depths, floor)):
        first, node = k, (k * stride + k + 1) << 1 | side
        while stack and stack[-1][0] == d:
            _, first, other, left = stack.pop()
            d, low = d - 1, max(low, other)
            parent = (first * stride + k + 1) << 1 | side if d >= low else CUT
            up[left] = up[node] = parent
            node = parent
        stack.append((d, first, low, node))
    up[node] = CUT
    up.pop(CUT, None)
    return up


def _cover_counts(classes, n: int) -> dict[tuple[int, int], int]:
    """{(strands, nodes): number of sets of pairwise disjoint classes}, from
    (nodes, range leaf mask) per nontrivial class; the leaves they leave
    uncovered are the trivial classes.

    A forward sweep over the decision leaves, the lowest leaves of classes,
    in increasing order.  At each, an uncovered leaf is either left trivial
    or covered by a disjoint class that starts there.  A state is the
    covered set cut down to the leaves that later classes reach, so
    independent stretches share their states.  It refuses before the
    polynomial entries that the moves write pass COVER_ENTRY_CAP.
    """
    width = 1 + sum(nodes for nodes, _ in classes)
    options: dict[int, list[tuple[int, int]]] = {}
    for nodes, mask in classes:
        options.setdefault(mask & -mask, []).append((mask.bit_count() * width + nodes, mask))
    lows = sorted(options)
    # reach[i]: the leaves of the classes that start after lows[i]
    reach = []
    later = 0
    for low in reversed(lows):
        reach.append(later)
        for _, mask in options[low]:
            later |= mask
    # {covered & reach: {strands * width + nodes: count}} over the cover so far
    states = {0: {0: 1}}
    written = 0
    for low, cut in zip(lows, reversed(reach)):
        after: dict[int, dict[int, int]] = {}
        for covered, counts in states.items():
            moves = [(0, covered)]
            if not covered & low:
                moves += [(weight, covered | mask) for weight, mask in options[low] if not covered & mask]
            written += len(moves) * len(counts)
            if written > COVER_ENTRY_CAP:
                raise ContractError(
                    f"phi_alpha: the cover sum of a {n}-leaf element writes more than"
                    f" the cap of {COVER_ENTRY_CAP} polynomial entries"
                )
            for weight, taken in moves:
                total = after.setdefault(taken & cut, {})
                for key, count in counts.items():
                    key += weight
                    total[key] = total.get(key, 0) + count
        states = after
    return {divmod(key, width): count for key, count in states[0].items()}


def phi_alpha_eval(g: VElement, alpha) -> Fraction:
    """Exact rational value of phi_alpha at a rational parameter in [0, 1]."""
    alpha = _exact_alpha("phi_alpha_eval", alpha)  # before any cover sum
    return phi_alpha(g).eval(alpha)


# ---------------------------------------------------------------------------
# comparison with the exponential-decay family

class FarleyPhi(NamedTuple):
    """exp(-beta)^exponent kept exact as the pair (beta, exponent)."""

    beta: Fraction
    exponent: int

    def as_float(self) -> float:
        # float(beta) overflows only past the range where exp(-beta) is 0.0
        try:
            return math.exp(-float(self.beta) * self.exponent) if self.exponent else 1.0
        except OverflowError:
            return 0.0


def farley_norm(g: VElement) -> int:
    """Squared cocycle length of a reduced pair with n leaves: 2n - 2."""
    return 2 * g.leaf_count - 2


def farley_phi(g: VElement, beta) -> FarleyPhi:
    beta = _exact("farley_phi", "decay rate", beta)
    if beta < 0:
        raise ContractError("farley_phi: decay rate must be >= 0")
    return FarleyPhi(beta, farley_norm(g))


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
    Entries are ints or Fractions, taken as they are (an int is its own
    numerator over 1); anything else is refused, as by ``_exact``.
    """
    rows = [[v if type(v) is int else _exact("psd_ldlt", "an entry", v) for v in row] for row in matrix]
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

    With alpha = num/den and D the largest degree among the entries, each
    entry sum c_k alpha^k goes to psd_ldlt as the integer numerator
    sum c_k num^k den^(D - k) over den^D, from one table of the num^k
    den^(D - k).  Scaling by den^D changes neither the pivot order nor the
    verdict; it scales a witness value, which is divided back.
    """
    alpha = _exact_alpha("gram_psd_check", alpha)
    elements = list(elements)
    # slot[i]: the position of element i among the distinct elements
    slots: dict = {}
    slot = [slots.setdefault(g, len(slots)) for g in elements]
    distinct = list(slots)
    m = len(distinct)
    # {(a, b): coefficients} above the diagonal; phi_alpha is beta-free, so
    # the alpha part p is the whole polynomial
    entries = {}
    for a in range(m - 1):
        inv = inverse(distinct[a])
        for b in range(a + 1, m):
            entries[a, b] = phi_alpha(multiply(inv, distinct[b])).p
    degree = max(map(len, entries.values()), default=1) - 1
    num, den = alpha.numerator, alpha.denominator
    weight = [num**k * den**(degree - k) for k in range(degree + 1)]
    scale = den**degree
    core = [[scale] * m for _ in range(m)]
    for (a, b), p in entries.items():
        core[a][b] = core[b][a] = sum(map(mul, p, weight))
    result = psd_ldlt([[core[a][b] for b in slot] for a in slot])
    if result.witness is None:
        return result
    return GramResult(False, {**result.witness, "value": result.witness["value"] / scale})


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
    in the order of ``enumerate_trees``, from ``enumerate_depths``: no tree.
    More triples than _SCAN_TRIPLE_CAP, counted to at most ENUM_LEAF_CAP
    leaves, are refused at the first ``next()``, before any is listed.

    Rotation c cancels a caret exactly when it sends the leaves (k, k+1) of
    a domain caret onto a range caret's leaves (k + c, k + c + 1), read from
    the cells of the depths, so only the offsets with no such k are built.
    """
    counted = min(_integer("reduced_rotation_elements", "max_leaves", max_leaves), ENUM_LEAF_CAP)
    triples = _rotation_triples(counted)
    if triples > _SCAN_TRIPLE_CAP:
        raise ContractError(
            f"reduced_rotation_elements: max_leaves {max_leaves} means screening at least {triples} triples"
            f" of two trees and a rotation, over the cap of {_SCAN_TRIPLE_CAP}"
        )
    for n in range(1, max_leaves + 1):
        leaves = enumerate_depths(n)
        carets = [caret_positions(d) for d in leaves]
        rotations = [Perm.rotation(n, c) for c in range(n)]
        for range_leaves, range_carets in zip(leaves, carets):
            for domain_leaves, domain_carets in zip(leaves, carets):
                cancelling = {(j - k) % n for k in domain_carets for j in range_carets}
                for c in range(n):
                    if c not in cancelling:
                        yield VElement._from_reduced(domain_leaves, range_leaves, rotations[c])


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
    restates it and reads 0; the independent checks are prefix-pair
    enumeration (``oracles.enumerated_phi``) and ``_class_sum`` called past
    the closed form, in the tests.
    """
    alpha = _exact_alpha("vanishing_scan", alpha)
    if _integer("vanishing_scan", "max_leaves", max_leaves) < 0:
        raise ContractError(f"vanishing_scan: max_leaves {max_leaves} is negative")
    per_n: dict[int, list[tuple[VElement, Fraction]]] = {}
    for g in reduced_rotation_elements(max_leaves):
        per_n.setdefault(g.leaf_count, []).append((g, phi_alpha_eval(g, alpha)))
    rows = []
    for n in range(1, max_leaves + 1):
        expected = alpha ** (2 * n - 2)
        values = tuple(per_n[n])
        deviation = max((abs(v - expected) for _, v in values), default=Fraction(0))
        rows.append(VanishRow(n, len(values), expected, deviation, values))
    return rows
