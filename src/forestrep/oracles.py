"""Brute-force verification of combinatorial claims the engines rely on.

Every check enumerates (or samples with a fixed seed) independently of the
code path it validates and returns a JSON-friendly report dict with at least
the keys ``check``, ``instances`` and ``violations``.  ``refine`` and
``inflate`` build unreduced representatives as trees, apart from the leaf
cells the library computes on; the tests use them as references too.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

from .coefficients import RTensor, partition_function, phi_alpha, word_window_tensor
from .errors import ContractError
from .ring import RingElem
from .thompson import (
    Perm,
    VElement,
    family_gn,
    multiply,
    pl_maps_equal,
    standard_generators,
)
from .trees import (
    ENUM_LEAF_CAP,
    Forest,
    Tree,
    _prefixes,
    caret_positions,
    collapse_caret,
    enumerate_forests,
    enumerate_trees,
    graft,
    path_words,
    split_sequence,
)


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
# operator-composition route for the partition function

def forest_split_sequence(f: Forest) -> list[int]:
    """Global leaf positions whose successive splitting rebuilds the forest
    from its trivial shape, in order of application."""
    out: list[int] = []
    offset = 0
    for t in f.trees:
        out.extend(offset + i for i in split_sequence(t))
        offset += t.leaf_count
    return out


def operator_coefficient(f: Forest, R: RTensor, in_idx, out_idx):
    """Matrix coefficient of the forest computed the slow way: apply the
    elementary one-caret operators one after another to the input basis
    vector and read off the output component."""
    vec = dict(operator_apply(f, R, in_idx))
    return vec.get(tuple(out_idx), 0)


def operator_apply(f: Forest, R: RTensor, in_idx) -> dict:
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
            r = f.root_count
            for in_idx in itertools.product(R.indices, repeat=r):
                table = operator_apply(f, R, in_idx)
                for out_idx in itertools.product(R.indices, repeat=m):
                    instances += 1
                    lhs = partition_function(f, R, in_idx, out_idx)
                    rhs = table.get(out_idx, 0)
                    if lhs != rhs:
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
