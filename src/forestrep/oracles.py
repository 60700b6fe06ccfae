"""Brute-force verification of combinatorial claims the engines rely on.

Every check enumerates (or samples with a fixed seed) independently of the
code path it validates and returns a JSON-friendly report dict with at least
the keys ``check``, ``instances`` and ``violations``.  ``refine`` and
``inflate`` build unreduced representatives as trees, apart from the leaf
cells the library computes on; the tests use them as references too.
The tensor construction the coefficients come from (Jones, arXiv:1412.7740)
is kept here as a reference: ``RTensor``, its state sum ``partition_function``
and the windowed interpolation tensor ``word_window_tensor``.  So is
``enumerated_phi``, phi_alpha by listing the prefix pairs that the library's
closure-class cover sum counts without listing.  The forest enumeration,
path words and the exact equality of piecewise-linear maps that these
checks use are kept here too: the library computes on leaf cells and uses
none of them.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Iterable

from .coefficients import phi_alpha
from .errors import ContractError
from .ring import ONE, RingElem
from .thompson import (
    Perm,
    VElement,
    family_gn,
    multiply,
    pl_value,
    standard_generators,
)
from .trees import (
    ENUM_LEAF_CAP,
    Forest,
    Tree,
    _prefixes,
    _trees_by_size,
    caret_positions,
    collapse_caret,
    enumerate_trees,
    fold_tree,
    graft,
    leaf_cells,
    split_sequence,
    subrooted_trees,
)


def enumerate_forests(m: int) -> tuple[Forest, ...]:
    """All forests with m leaves (any number of roots), deterministic order:
    by the first tree's leaf count, then the first tree, then the rest."""
    trees = _trees_by_size("enumerate_forests", m)
    shapes: list[list[tuple[Tree, ...]]] = [[()]]
    for size in range(1, m + 1):
        shapes.append(
            [
                (first,) + rest
                for k in range(1, size + 1)
                for first in trees[k]
                for rest in shapes[size - k]
            ]
        )
    return tuple(Forest(shape) for shape in shapes[m])


def path_words(f: Forest | Tree) -> tuple[str, ...]:
    """Root-to-leaf turn words over {a, b}, one per leaf.

    A left turn contributes 'a', a right turn 'b'; the letter for the turn
    nearest the leaf is written first, so the first turn taken is the
    rightmost character.  The empty word is the trivial path.  These are the
    bits of each leaf cell's index, lowest first.
    """
    trees = (f,) if isinstance(f, Tree) else f.trees
    return tuple(
        "".join("ab"[index >> k & 1] for k in range(depth))
        for t in trees
        for index, depth in leaf_cells(t)
    )


def pl_maps_equal(a, b) -> bool:
    """Exact equality of two piecewise-linear maps given as raw triples.

    Between consecutive cell starts of either domain both maps are affine, so
    they agree there exactly when they agree at the left end and the midpoint.
    """
    starts = {Fraction(i, 1 << d) for t in (a[0], b[0]) for i, d in leaf_cells(t)}
    cuts = sorted(starts | {Fraction(1)})
    for lo, hi in zip(cuts, cuts[1:]):
        for x in (lo, (lo + hi) / 2):
            if pl_value(*a, x) != pl_value(*b, x):
                return False
    return True


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _tree_count(n: int) -> int:
    return _catalan(n - 1)


def _check_bound(check: str, max_leaves: int, noun: str, count) -> None:
    """Refuse a leaf bound outside 1..ENUM_LEAF_CAP before enumerating
    anything.  Past the cap the message states the count(n) trees or forests
    with n leaves summed up to one leaf past the cap, which any larger bound
    would enumerate too."""
    if max_leaves < 1:
        raise ContractError(f"{check}: max_leaves {max_leaves} is below 1")
    if max_leaves > ENUM_LEAF_CAP:
        total = sum(count(n) for n in range(1, ENUM_LEAF_CAP + 2))
        raise ContractError(
            f"{check}: max_leaves {max_leaves} means at least {total} {noun},"
            f" past the enumeration cap of {ENUM_LEAF_CAP} leaves"
        )


def check_word_injectivity(max_leaves: int = 8) -> dict:
    """Path-word tuples separate trees: distinct trees with equal leaf count
    never share a word multiset, and within one tree all words differ, so no
    nontrivial permutation can match two tuples."""
    _check_bound("word-injectivity", max_leaves, "trees", _tree_count)
    instances = 0
    violations = 0
    for n in range(1, max_leaves + 1):
        groups: dict[tuple, int] = {}
        for t in enumerate_trees(n):
            words = path_words(t)
            instances += 1
            if len(set(words)) != n:
                violations += 1
            key = tuple(sorted(words))
            groups[key] = groups.get(key, 0) + 1
        for count in groups.values():
            violations += count * (count - 1) // 2
    return {
        "check": "word-injectivity",
        "bound": max_leaves,
        "instances": instances,
        "violations": violations,
    }


def check_cyclic_forest_lemma(max_leaves: int = 6) -> dict:
    """A rotation matching the path words of two forests forces equal root
    counts and trees equal up to the same cyclic shift of positions.

    Every (p, q, c) of two m-leaf forests and a rotation counts as an
    instance; the q whose words equal p's words rotated by c are looked up
    by those words, so only the matches are compared."""
    _check_bound("cyclic-forest", max_leaves, "forests", _catalan)
    instances = 0
    matches = 0
    violations = 0
    for m in range(1, max_leaves + 1):
        forests = enumerate_forests(m)
        by_words: dict[tuple[str, ...], list[Forest]] = {}
        for f in forests:
            by_words.setdefault(path_words(f), []).append(f)
        instances += m * len(forests) ** 2
        for p in forests:
            wp = path_words(p)
            for c in range(m):
                rotated = wp[-c:] + wp[:-c] if c else wp
                for q in by_words.get(rotated, ()):
                    matches += 1
                    if p.root_count != q.root_count:
                        violations += 1
                        continue
                    n = p.root_count
                    if not any(
                        all(p.trees[j] == q.trees[(j + a) % n] for j in range(n))
                        for a in range(n)
                    ):
                        violations += 1
    return {
        "check": "cyclic-forest",
        "bound": max_leaves,
        "instances": instances,
        "matches": matches,
        "violations": violations,
    }


def check_term_parity(max_leaves: int = 5) -> dict:
    """Every matching prefix pair hides the same number of inner leaves on
    both sides, so matched coefficients carry an even combined beta power.

    The check runs over all pairs of n-leaf trees, matching prefix pairs
    whenever any bijection could pair them (equal word multisets).  Per n it
    counts the prefixes N[key][v] of every tree by word multiset and inner
    leaves v, so the matched pairs number sum N[key]^2 and the mismatched
    ones sum N[key]^2 - sum_v N[key][v]^2, without forming a pair.
    """
    _check_bound("term-parity", max_leaves, "trees", _tree_count)
    instances = 0
    violations = 0
    for n in range(1, max_leaves + 1):
        groups: dict[tuple[str, ...], Counter] = {}
        for t in enumerate_trees(n):
            for _, inner, words in _prefixes(t):
                groups.setdefault(tuple(sorted(words)), Counter())[inner] += 1
        for by_inner in groups.values():
            total = sum(by_inner.values())
            instances += total * total
            violations += total * total - sum(k * k for k in by_inner.values())
    return {
        "check": "term-parity",
        "bound": max_leaves,
        "instances": instances,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# reduction soundness

def random_element(rng: random.Random, max_word_length: int, nonidentity: bool = False) -> VElement:
    gens = standard_generators()
    pool = gens + tuple(~g for g in gens)
    while True:
        g = VElement.identity()
        for _ in range(rng.randint(1, max_word_length)):
            g = multiply(g, rng.choice(pool))
        if not (nonidentity and g.is_identity()):
            return g


def random_elements(count: int, max_word_length: int, seed: int, nonidentity: bool = False):
    rng = random.Random(seed)
    return [random_element(rng, max_word_length, nonidentity) for _ in range(count)]


def inflate(perm: Perm, sizes) -> Perm:
    """Replace strand k by sizes[k-1] parallel strands.

    Domain block k has sizes[k-1] slots; it is sent order-preservingly onto
    the range block of strand perm(k), whose offset is the total size of the
    strands landing before it.
    """
    sizes = tuple(sizes)
    if len(sizes) != perm.size:
        raise ContractError("inflate: one size per strand required")
    range_sizes = [sizes[perm.inv(j) - 1] for j in range(1, perm.size + 1)]
    range_off = [0] * perm.size
    for j in range(1, perm.size):
        range_off[j] = range_off[j - 1] + range_sizes[j - 1]
    images = []
    for k in range(1, perm.size + 1):
        base = range_off[perm(k) - 1]
        images.extend(base + r for r in range(1, sizes[k - 1] + 1))
    return Perm(images)


def refine(range_: Tree, perm: Perm, f: Forest) -> tuple[Tree, Perm]:
    """Carry a forest grafted under the domain leaves to the range side.

    Tree k of f hangs under domain leaf k, so in the refined pair
    (graft(domain, f), result tree) it hangs under range leaf perm(k); the
    bijection of that pair is perm inflated by the tree sizes.
    """
    widened = inflate(perm, [t.leaf_count for t in f.trees])
    return graft(range_, Forest(perm.theta(f.trees))), widened


def _inflated_representative(g: VElement, rng: random.Random):
    """A non-canonical representative of g: random small trees grafted onto
    every domain leaf, carried through the bijection."""
    pool = [t for n in (1, 2, 3) for t in enumerate_trees(n)]
    attach = Forest(tuple(rng.choice(pool) for _ in range(g.leaf_count)))
    raw_range, raw_perm = refine(g.range, g.perm, attach)
    return graft(g.domain, attach), raw_range, raw_perm


def _speculative_candidates(g: VElement):
    """Triples obtained by one further caret cancellation against the leaf
    bijection's crossed pattern; a reduced element admits no straight pattern."""
    range_carets = set(caret_positions(g.range))
    for i in caret_positions(g.domain):
        images = {g.perm(i), g.perm(i + 1)}
        j = min(images)
        if images != {j, j + 1} or j not in range_carets:
            continue
        new_images = []
        for k, v in enumerate(g.perm.images, 1):
            if k == i + 1:
                continue
            if k == i:
                new_images.append(j)
            else:
                new_images.append(v - 1 if v > j + 1 else v)
        yield collapse_caret(g.domain, i), collapse_caret(g.range, j), Perm(new_images)


# about 16 s on a shared 2-vCPU VM, at about 0.6 ms a sample
REDUCTION_SAMPLE_CAP = 25_000


def check_reduction_soundness(samples: int = 500, seed: int = 42) -> dict:
    """Canonical forms act like the representatives they come from, rebuilding
    from an inflated representative lands on the same canonical triple, and no
    single further cancellation yields a smaller pair with the same action."""
    if samples < 1:
        raise ContractError(f"reduction-soundness: samples {samples} is below 1")
    if samples > REDUCTION_SAMPLE_CAP:
        raise ContractError(
            f"reduction-soundness: samples {samples} is over the cap of {REDUCTION_SAMPLE_CAP}"
        )
    rng = random.Random(seed)
    violations = 0
    speculative = 0
    collapsed_pairs = 0
    for idx in range(samples):
        if idx % 10 == 7:
            # pair a random tree with itself: must reduce to the identity
            n = rng.randint(1, 6)
            t = rng.choice(enumerate_trees(n))
            if not VElement(t, t).is_identity():
                violations += 1
            collapsed_pairs += 1
            continue
        g = random_element(rng, 6)
        raw = _inflated_representative(g, rng)
        canonical = (g.domain, g.range, g.perm)
        if not pl_maps_equal(raw, canonical):
            violations += 1
        if VElement(*raw) != g:
            violations += 1
        for candidate in _speculative_candidates(g):
            speculative += 1
            if pl_maps_equal(candidate, canonical):
                violations += 1
    # the exchange family is built from an irreducible triple: nothing cancels
    for n in range(2, 7):
        if family_gn(n).leaf_count != 2 * n:
            violations += 1
    return {
        "check": "reduction-soundness",
        "samples": samples,
        "seed": seed,
        "identity_pairs": collapsed_pairs,
        "speculative_candidates": speculative,
        "instances": samples,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# prefix enumeration

def enumerated_phi(g: VElement) -> RingElem:
    """phi_alpha(g) by listing prefixes: every prefix z of the range tree
    meets every prefix r of the domain tree whose residual words match under
    the leaf bijection, and the pair adds alpha^(leaves(z) + leaves(r) - 2)
    beta^(inner leaves of z and r).  The tables grow doubly exponentially
    with the tree depth; subrooted_trees refuses one past PREFIX_TABLE_CAP."""
    domain_terms: dict[tuple[str, ...], list] = {}
    for entry in subrooted_trees(g.domain):
        domain_terms.setdefault(g.perm.theta(entry.words), []).append(entry)
    exponents: Counter = Counter()
    for z in subrooted_trees(g.range):
        for r in domain_terms.get(z.words, ()):
            exponents[(z.tree.leaf_count + r.tree.leaf_count - 2, z.inner_leaves + r.inner_leaves)] += 1
    return RingElem.expand(exponents)


# ---------------------------------------------------------------------------
# the tensor construction: a state sum and an operator route

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


def _root_amplitudes(f: Forest, R: RTensor, out_idx) -> list[dict]:
    """One state sum per tree of f under the leaf labels out_idx: for each
    tree, every root label with a nonzero amplitude mapped to it."""

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

    amplitudes = []
    pos = 0
    for t in f.trees:
        segment = out_idx[pos : pos + t.leaf_count]
        pos += t.leaf_count
        amplitudes.append(fold_tree(t, [{label: 1} for label in segment], join))
    return amplitudes


def _boundary_value(amplitudes: list[dict], in_idx):
    """The product over the trees of their root label's amplitude."""
    total = 1
    for root, by_root in zip(in_idx, amplitudes):
        value = by_root.get(root, 0)
        if value == 0:
            return 0 * total
        total = total * value
    return total


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
    return _boundary_value(_root_amplitudes(f, R, out_idx), in_idx)


def forest_split_sequence(f: Forest) -> list[int]:
    """Global leaf positions whose successive splitting rebuilds the forest
    from its trivial shape, in order of application."""
    out: list[int] = []
    offset = 0
    for t in f.trees:
        out.extend(offset + i for i in split_sequence(t))
        offset += t.leaf_count
    return out


def operator_apply(f: Forest, R: RTensor, in_idx) -> dict:
    """The forest's operator on an input basis vector, composed the slow way
    from one-caret operators: each output boundary's nonzero coefficient."""
    in_idx = tuple(in_idx)
    if len(in_idx) != f.root_count:
        raise ValueError("operator_apply: one input index per root required")
    vec = {in_idx: 1}
    for pos in forest_split_sequence(f):
        new: dict = {}
        for key, val in vec.items():
            for (j, k), weight in R.column(key[pos - 1]):
                out_key = key[: pos - 1] + (j, k) + key[pos:]
                new[out_key] = new.get(out_key, 0) + weight * val
        vec = {k2: v for k2, v in new.items() if v != 0}
    return vec


def check_partition_operator_agreement(R: RTensor, max_leaves: int = 6) -> dict:
    """The state-sum route and the operator-composition route give the same
    coefficient for every forest and every boundary condition."""
    instances = 0
    violations = 0
    for m in range(1, max_leaves + 1):
        for f in enumerate_forests(m):
            tables = {
                in_idx: operator_apply(f, R, in_idx)
                for in_idx in itertools.product(R.indices, repeat=f.root_count)
            }
            for out_idx in itertools.product(R.indices, repeat=m):
                # one state sum per tree gives every root label's amplitude
                amplitudes = _root_amplitudes(f, R, out_idx)
                for in_idx, table in tables.items():
                    instances += 1
                    if _boundary_value(amplitudes, in_idx) != table.get(out_idx, 0):
                        violations += 1
    return {
        "check": "partition-operator-agreement",
        "bound": max_leaves,
        "instances": instances,
        "violations": violations,
    }


def check_vacuum_pairing(max_leaves: int = 5) -> dict:
    """phi_alpha agrees with pairing the two trees' vacuum expansions term by
    term through the leaf bijection, for every element with small trees.

    Each expansion applies the elementary operators of the interpolation
    tensor, windowed to every word shorter than max_leaves, to the vacuum.
    """
    words = ["".join(w) for n in range(max_leaves) for w in itertools.product("ab", repeat=n)]
    R = word_window_tensor(words)
    expansions = {
        t: operator_apply(Forest((t,)), R, ("",))
        for n in range(1, max_leaves + 1)
        for t in enumerate_trees(n)
    }
    instances = 0
    violations = 0
    seen: set[VElement] = set()
    for n in range(1, max_leaves + 1):
        trees = enumerate_trees(n)
        for t in trees:
            for s in trees:
                for images in itertools.permutations(range(1, n + 1)):
                    g = VElement(s, t, Perm(images))
                    if g in seen:
                        continue
                    seen.add(g)
                    instances += 1
                    range_terms = expansions[g.range]
                    paired = RingElem()
                    for labels, coeff in expansions[g.domain].items():
                        other = range_terms.get(g.perm.theta(labels))
                        if other is not None:
                            paired = paired + coeff * other
                    if paired != phi_alpha(g):
                        violations += 1
    return {
        "check": "vacuum-pairing",
        "bound": max_leaves,
        "instances": instances,
        "violations": violations,
    }
