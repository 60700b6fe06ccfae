"""Brute-force verification of combinatorial claims the engines rely on.

Every check enumerates (or samples with a fixed seed) independently of the
code path it validates and returns a JSON-friendly report dict with at least
the keys ``check``, ``instances`` and ``violations``.
"""

from __future__ import annotations

import itertools
import math
import random

from .coefficients import RTensor, _is_zero, partition_function, phi_alpha, word_window_tensor
from .errors import ContractError
from .ring import RingElem
from .thompson import (
    Perm,
    VElement,
    family_gn,
    multiply,
    pl_maps_equal,
    refine,
    standard_generators,
)
from .trees import (
    ENUM_LEAF_CAP,
    Forest,
    caret_positions,
    collapse_caret,
    enumerate_forests,
    enumerate_trees,
    graft,
    path_words,
    split_sequence,
    subrooted_trees,
)


def check_word_injectivity(max_leaves: int = 8) -> dict:
    """Path-word tuples separate trees: distinct trees with equal leaf count
    never share a word multiset, and within one tree all words differ, so no
    nontrivial permutation can match two tuples."""
    if max_leaves > ENUM_LEAF_CAP:  # refused before enumerating the smaller trees
        trees = sum(math.comb(2 * n - 2, n - 1) // n for n in range(1, max_leaves + 1))
        raise ContractError(
            f"word-injectivity: max_leaves {max_leaves} means {trees} trees,"
            f" past the enumeration cap of {ENUM_LEAF_CAP} leaves"
        )
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
    counts and trees equal up to the same cyclic shift of positions."""
    instances = 0
    matches = 0
    violations = 0
    for m in range(1, max_leaves + 1):
        forests = enumerate_forests(m)
        words = {f: path_words(f) for f in forests}
        for p in forests:
            wp = words[p]
            for q in forests:
                wq = words[q]
                for c in range(m):
                    instances += 1
                    rotated = wp[-c:] + wp[:-c] if c else wp
                    if rotated != wq:
                        continue
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


def check_term_parity(elements=None, max_leaves: int | None = None) -> dict:
    """Every matching prefix pair hides the same number of inner leaves on
    both sides, so matched coefficients carry an even combined beta power.

    With ``elements`` the pairs are matched through each element's own leaf
    bijection; with ``max_leaves`` the check runs over all tree pairs,
    matching prefix pairs whenever any bijection could pair them (equal word
    multisets).
    """
    if elements is None and max_leaves is None:
        max_leaves = 5
    elements = list(elements) if elements is not None else None
    nonzero_terms = 0
    violations = 0
    if elements is not None:
        for g in elements:
            lookup = {}
            for entry in subrooted_trees(g.domain):
                lookup[g.perm.theta(entry.words)] = entry.inner_leaves
            for entry in subrooted_trees(g.range):
                inner = lookup.get(entry.words)
                if inner is None:
                    continue
                nonzero_terms += 1
                if inner != entry.inner_leaves:
                    violations += 1
    if max_leaves is not None:
        for n in range(1, max_leaves + 1):
            trees = enumerate_trees(n)
            for t in trees:
                range_terms = [
                    (tuple(sorted(e.words)), e.inner_leaves) for e in subrooted_trees(t)
                ]
                for s in trees:
                    domain_index: dict[tuple, list[int]] = {}
                    for e in subrooted_trees(s):
                        domain_index.setdefault(tuple(sorted(e.words)), []).append(
                            e.inner_leaves
                        )
                    for key, inner_t in range_terms:
                        for inner_s in domain_index.get(key, ()):
                            nonzero_terms += 1
                            if inner_t != inner_s:
                                violations += 1
    return {
        "check": "term-parity",
        "bound": max_leaves,
        "elements": len(elements) if elements is not None else None,
        "instances": nonzero_terms,
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


def check_reduction_soundness(samples: int = 500, seed: int = 42) -> dict:
    """Canonical forms act like the representatives they come from, rebuilding
    from an inflated representative lands on the same canonical triple, and no
    single further cancellation yields a smaller pair with the same action."""
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
        vec = {k2: v for k2, v in new.items() if not _is_zero(v)}
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
