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
from typing import NamedTuple

from .errors import ContractError
from .ring import RingElem
from .thompson import Perm, VElement, inverse, multiply
from .trees import caret_positions, depths, enumerate_trees


def _exact(where: str, name: str, value) -> Fraction:
    """value as a Fraction, from an int or a Fraction only: Fraction() would
    also take a float's binary value, a string, a bool or a Decimal.  A
    Fraction is returned as it is."""
    if type(value) is Fraction:
        return value
    if type(value) is not int:
        raise ContractError(f"{where}: {name} is a {type(value).__name__}, not an int or a Fraction")
    return Fraction(value)


def _exact_alpha(where: str, alpha) -> Fraction:
    """alpha as a Fraction in [0, 1], from an int or a Fraction only."""
    alpha = _exact(where, "alpha", alpha)
    # the denominator is positive, so this is 0 <= alpha <= 1 on integers
    if not 0 <= alpha.numerator <= alpha.denominator:
        raise ContractError(f"{where}: alpha must lie in [0, 1]")
    return alpha


# the closure classes of g_2000 (4,000 leaves) take 8,003,996 leaf visits and
# about 2.6 s on a shared 2-vCPU VM; the visits grow quadratically along
# nested classes like those of g_N
CLOSURE_VISIT_CAP = 10_000_000
# 2^16 cover states, each holding a 17-term polynomial, take about 0.8 s and
# 71 MiB on a shared 2-vCPU VM; the count can double with each class
COVER_STATE_CAP = 100_000


def phi_alpha(g: VElement) -> RingElem:
    """The diagonal vacuum coefficient of g as an exact polynomial in alpha.

    On F and T (the bijection is a rotation) it is alpha^(2n - 2) for the n
    leaves of the reduced pair.  On V_only elements it is the closure-class
    cover sum ``_class_sum``, which sums over the pairs of prefixes whose
    residual words match under the leaf bijection without listing them.
    The result is always beta-free: an odd beta power, whose term is
    positive on (0, 1) and so cannot cancel, would be a computation bug and
    raises.
    """
    if g.perm.rotation_offset() is not None:
        # cyclic-forest lemma: only the whole trees match; any other matched
        # prefix pair leaves a common caret under aligned leaves, which cancels
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
    range node fixes h on its leaves, hence the domain nodes cut above their
    partners, hence h on the leaves of those, and so on: each range node
    closes to a class of range and domain nodes, dropped when some strand
    gets two heights or some node cannot be cut.  Leaf strands are the
    trivial classes (two leaf nodes, alpha^2); a nontrivial class holds only
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
    range_nodes = _viable_nodes(range_cells, [d - h for (_, d), h in zip(range_cells, top)])
    domain_nodes = _viable_nodes(domain_cells, [d - top[i] for (_, d), i in zip(domain_cells, to_range)])
    # the closures below visit the leaves of each internal node at most once
    visits = sum(hi - lo for table in (range_nodes, domain_nodes) for lo, hi in table.values()) - 2 * n
    if visits > CLOSURE_VISIT_CAP:
        raise ContractError(
            f"phi_alpha: closing the classes of a {n}-leaf element takes up to {visits}"
            f" leaf visits, over the cap of {CLOSURE_VISIT_CAP}"
        )
    # per side: the node table, the other side's, each leaf's depth and the
    # cell at the other end of its strand
    sides = (
        (range_nodes, domain_nodes, g.range, [domain_cells[j] for j in to_domain]),
        (domain_nodes, range_nodes, g.domain, [range_cells[i] for i in to_range]),
    )
    classes = []
    seen = set()
    for start, (lo, hi) in range_nodes.items():
        if hi - lo == 1 or (0, start) in seen:
            continue
        # explore the whole class, conflicts included, so that each node is
        # visited once; a strand cut at two heights shows as two nodes of one
        # side sharing a leaf
        seen.add((0, start))
        work = [(0, start)]
        masks = [0, 0]
        conflict = False
        nodes = 0
        while work:
            side, (c, e) = work.pop()
            table, other_table, depths, ends = sides[side]
            lo, hi = table[(c, e)]
            bits = (1 << hi) - (1 << lo)
            conflict = conflict or bool(masks[side] & bits)
            masks[side] |= bits
            nodes += 1
            # the other side's node cut on each strand, d - e levels up
            for key in {(c2 >> (d - e), d2 - d + e) for d, (c2, d2) in zip(depths[lo:hi], ends[lo:hi])}:
                if key not in other_table:
                    conflict = True
                elif (1 - side, key) not in seen:
                    seen.add((1 - side, key))
                    work.append((1 - side, key))
        if not conflict:
            classes.append((nodes, masks[0]))
    exponents = {
        (2 * (n - strands) + nodes - 2, nodes): count
        for (strands, nodes), count in _cover_counts(classes, n).items()
    }
    if any(beta_exp % 2 for _, beta_exp in exponents):
        raise ArithmeticError(
            "phi_alpha: nonzero beta component; matched terms must absorb beta in pairs"
        )
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


def _viable_nodes(cells, floor) -> dict:
    """{(index, depth): (first leaf, end leaf)} of the leaves and of the
    internal nodes that can be cut: a node at depth e is viable when every
    leaf below it has floor <= e, i.e. its strand can be cut e levels from
    the root.  Built shift-reduce over the leaf cells, as trees._assemble
    builds a tree."""
    nodes = {}
    stack: list[tuple[int, int, int, int]] = []
    for k, ((c, d), low) in enumerate(zip(cells, floor)):
        nodes[(c, d)] = (k, k + 1)
        first = k
        while stack and stack[-1][1] == d:
            _, _, first, other = stack.pop()
            c, d, low = c >> 1, d - 1, max(low, other)
            if d >= low:
                nodes[(c, d)] = (first, k + 1)
        stack.append((c, d, first, low))
    return nodes


def _cover_counts(classes, n: int) -> dict[tuple[int, int], int]:
    """{(strands, nodes): number of sets of pairwise disjoint classes}, from
    (nodes, range leaf mask) per nontrivial class; the leaves they leave
    uncovered are the trivial classes.

    A memoised search without recursion: it takes the lowest uncovered leaf
    that is the lowest leaf of some class, and either leaves it trivial or
    covers it by one of those classes.  A state is the covered set cut down
    to the leaves that later classes reach, so independent stretches share
    their states; past COVER_STATE_CAP states it refuses.
    """
    width = 1 + sum(nodes for nodes, _ in classes)
    options: dict[int, list[tuple[int, int]]] = {}
    for nodes, mask in classes:
        options.setdefault(mask & -mask, []).append((mask.bit_count() * width + nodes, mask))
    decisions = sum(options)
    reach = {}
    later = 0
    for low in sorted(options, reverse=True):
        for _, mask in options[low]:
            later |= mask
        reach[low] = later

    def state(covered: int) -> int:
        free = decisions & ~covered
        if not free:
            return -1
        low = free & -free
        return (covered & reach[low]) | (low - 1)

    # memo[state]: {strands * width + nodes: count} over the rest of the cover
    memo = {-1: {0: 1}}
    first = state(0)
    stack = [first]
    while stack:
        covered = stack[-1]
        if covered in memo:
            stack.pop()
            continue
        low = ~covered & (covered + 1)
        moves = [(0, state(covered | low))] + [
            (weight, state(covered | mask)) for weight, mask in options[low] if not mask & covered
        ]
        pending = [after for _, after in moves if after not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if len(memo) >= COVER_STATE_CAP:
            raise ContractError(
                f"phi_alpha: the cover sum of a {n}-leaf element visits more than"
                f" the cap of {COVER_STATE_CAP} states"
            )
        total = dict(memo[moves[0][1]])
        for weight, after in moves[1:]:
            for key, count in memo[after].items():
                key += weight
                total[key] = total.get(key, 0) + count
        memo[covered] = total
    return {divmod(key, width): count for key, count in memo[first].items()}


def phi_alpha_eval(g: VElement, alpha) -> Fraction:
    """Exact rational value of phi_alpha at a rational parameter in [0, 1]."""
    return phi_alpha(g).eval(_exact_alpha("phi_alpha_eval", alpha))


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
    Int and Fraction entries are taken as they are (an int is its own
    numerator over 1); others are converted with Fraction().
    """
    rows = [[v if type(v) is int or type(v) is Fraction else Fraction(v) for v in row] for row in matrix]
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
    den^(D - k): an entry alpha^k, almost every entry on random words, is
    one table value.  Scaling by den^D changes neither the pivot order nor
    the verdict; it scales a witness value, which is divided back.
    """
    alpha = _exact_alpha("gram_psd_check", alpha)
    elements = list(elements)
    # slot[i]: the position of element i among the distinct elements
    slots: dict = {}
    slot = [slots.setdefault(g, len(slots)) for g in elements]
    distinct = list(slots)
    m = len(distinct)
    # {(a, b): k for an entry alpha^k, else its coefficients} above the
    # diagonal; phi_alpha is beta-free, so the alpha part p is the whole
    # polynomial
    entries = {}
    degree = 0
    for a in range(m - 1):
        inv = inverse(distinct[a])
        for b in range(a + 1, m):
            p = phi_alpha(multiply(inv, distinct[b])).p
            k = len(p) - 1
            entries[a, b] = k if p.count(0) == k and p[k] == 1 else p
            if k > degree:
                degree = k
    num, den = alpha.numerator, alpha.denominator
    weight = [num**k * den**(degree - k) for k in range(degree + 1)]
    scale = den**degree
    core = [[scale] * m for _ in range(m)]
    for (a, b), p in entries.items():
        core[a][b] = core[b][a] = weight[p] if type(p) is int else sum(c * w for c, w in zip(p, weight))
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
    in deterministic order.

    Rotation c cancels a caret exactly when it sends the leaves (k, k+1) of
    a domain caret onto a range caret's leaves (k + c, k + c + 1), so only the
    offsets with no such k are built.
    """
    for n in range(1, max_leaves + 1):
        trees = enumerate_trees(n)
        leaves = [depths(t) for t in trees]
        carets = [caret_positions(t) for t in trees]
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
