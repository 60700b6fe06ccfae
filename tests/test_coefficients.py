import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from forestrep import coefficients
from forestrep.coefficients import (
    GramResult,
    _class_sum,
    _cover_counts,
    _exact_alpha,
    farley_norm,
    farley_phi,
    gram_psd_check,
    phi_alpha,
    phi_alpha_eval,
    reduced_rotation_elements,
    vanishing_scan,
)
from forestrep.errors import ContractError
from forestrep.oracles import (
    RTensor,
    enumerate_forests,
    enumerated_phi,
    operator_apply,
    partition_function,
    random_elements,
    word_window_tensor,
)
from forestrep.ring import ALPHA, BETA, ONE, RingElem
from forestrep.thompson import (
    F,
    T_ONLY,
    V_ONLY,
    Perm,
    VElement,
    builtin,
    classify,
    family_gn,
    family_kn,
    inverse,
    multiply,
    named_tree,
)
from forestrep.trees import (
    LEAF,
    Forest,
    caret,
    complete_tree,
    enumerate_trees,
    parse_tree,
    subrooted_trees,
)


def remark_element() -> VElement:
    t = parse_tree("f3 f1 f1")
    return VElement(t, t, Perm((3, 2, 1, 4)))


def two_symbol_tensor() -> RTensor:
    return RTensor(
        (1, 2),
        {(1, 1, 1): Fraction(3, 5), (1, 2, 2): Fraction(4, 5), (2, 1, 2): Fraction(1)},
    )


# ---------------------------------------------------------------------------
# tensors and the partition function

def test_rtensor_isometry_check():
    two_symbol_tensor()
    with pytest.raises(ContractError):
        RTensor((1,), {(1, 1, 1): Fraction(1, 2)})
    with pytest.raises(ContractError):
        RTensor((1,), {(1, 1, 2): Fraction(1)})
    # symbolic check holds in the ring, hence for every parameter
    RTensor(
        ("", "x"),
        {("", "", ""): ALPHA, ("", "x", "x"): BETA, ("x", "x", ""): ONE},
        check_isometry=True,
    )


def test_partition_function_trivial_forest():
    R = two_symbol_tensor()
    f = Forest((LEAF, LEAF))
    assert partition_function(f, R, (1, 2), (1, 2)) == 1
    assert partition_function(f, R, (1, 2), (2, 1)) == 0


def test_partition_function_single_caret():
    R = RTensor((1,), {(1, 1, 1): Fraction(1)})
    f = Forest((caret(LEAF, LEAF),))
    assert partition_function(f, R, (1,), (1, 1)) == 1


def test_partition_function_boundary_validation():
    R = two_symbol_tensor()
    f = Forest((caret(LEAF, LEAF),))
    with pytest.raises(ContractError):
        partition_function(f, R, (1, 1), (1, 1))
    with pytest.raises(ContractError):
        partition_function(f, R, (1,), (1,))
    with pytest.raises(ContractError):
        partition_function(f, R, (3,), (1, 1))


def _table_reference(R):
    # reference: tabulate every leaf labelling of each (tree, root label), recursively
    tables = {}

    def table(t, i):
        if (t, i) not in tables:
            if t is LEAF:
                tables[t, i] = {(i,): 1}
            else:
                out = {}
                for (j, k), weight in R.column(i):
                    for kl, vl in table(t.left, j).items():
                        for kr, vr in table(t.right, k).items():
                            out[kl + kr] = out.get(kl + kr, 0) + weight * vl * vr
                tables[t, i] = {key: v for key, v in out.items() if v != 0}
        return tables[t, i]

    def partition(f, in_idx, out_idx):
        total, pos = 1, 0
        for root, t in zip(in_idx, f.trees):
            total *= table(t, root).get(out_idx[pos : pos + t.leaf_count], 0)
            pos += t.leaf_count
        return total

    return partition


def test_partition_function_matches_table_reference():
    R = two_symbol_tensor()
    reference = _table_reference(R)
    instances = 0
    for m in range(1, 7):
        for f in enumerate_forests(m):
            for in_idx in itertools.product(R.indices, repeat=f.root_count):
                for out_idx in itertools.product(R.indices, repeat=m):
                    value = partition_function(f, R, in_idx, out_idx)
                    assert value == reference(f, in_idx, out_idx)
                    instances += 1
    assert instances == 68_508


def test_partition_function_deep_comb():
    comb = LEAF
    for _ in range(2000):
        comb = caret(comb, LEAF)
    f = Forest((comb,))
    assert partition_function(f, RTensor((0,), {(0, 0, 0): 1}), (0,), (0,) * 2001) == 1
    # only (1, 1, 1) joins a left subtree to a right leaf labelled 1
    R = two_symbol_tensor()
    assert partition_function(f, R, (1,), (1,) * 2001) == Fraction(3, 5) ** 2000
    assert partition_function(f, R, (2,), (1,) * 2001) == 0


def test_partition_function_matches_operator_route_small():
    R = two_symbol_tensor()
    for m in range(1, 5):
        for f in enumerate_forests(m):
            for in_idx in itertools.product(R.indices, repeat=f.root_count):
                table = operator_apply(f, R, in_idx)
                for out_idx in itertools.product(R.indices, repeat=m):
                    assert partition_function(f, R, in_idx, out_idx) == table.get(out_idx, 0)


# ---------------------------------------------------------------------------
# the interpolation expansion: the prefix table phi_alpha pairs on V

def vacuum_expansion(t) -> list[tuple[RingElem, tuple[str, ...]]]:
    """The tree's action on the vacuum vector: one term per prefix z, with
    coefficient alpha^(leaves(z)-1) * beta^(inner leaves of z) attached to
    the residual path words."""
    return [
        (RingElem.term(entry.tree.leaf_count - 1, entry.inner_leaves), entry.words)
        for entry in subrooted_trees(t)
    ]


def test_phi_expansion_leaf():
    assert vacuum_expansion(LEAF) == [(ONE, ("",))]


def test_phi_expansion_full_tree():
    t = parse_tree("f3 f1 f1")
    terms = {words: coeff for coeff, words in vacuum_expansion(t)}
    a2b = ALPHA * ALPHA * BETA
    assert terms == {
        ("", "", "", ""): ALPHA**3,
        ("", "", "a", "b"): a2b,
        ("a", "b", "", ""): a2b,
        ("a", "b", "a", "b"): ALPHA * BETA * BETA,
        ("aa", "ba", "ab", "bb"): BETA,
    }


def test_phi_expansion_is_isometric_on_vacuum():
    for text in (".", "f1", "f3 f1 f1", "f3 f3 f1 f1", "f4 f3 f2 f1"):
        t = parse_tree(text)
        total = RingElem()
        for coeff, _ in vacuum_expansion(t):
            total = total + coeff * coeff
        assert total == ONE
        numeric = sum(
            (coeff * coeff for coeff, _ in vacuum_expansion(t)), RingElem()
        ).eval(Fraction(1, 2))
        assert numeric == 1


def test_window_tensor_agrees_with_expansion():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            terms = vacuum_expansion(t)
            R = word_window_tensor(w for _, words in terms for w in words)
            f = Forest((t,))
            for coeff, words in terms:
                assert partition_function(f, R, ("",), words) == coeff
            # a boundary outside the expansion support vanishes
            if n >= 2:
                bogus = ("a",) * n
                assert partition_function(f, R, ("",), bogus) == 0


# ---------------------------------------------------------------------------
# phi_alpha

def test_phi_alpha_identity():
    assert phi_alpha(VElement.identity()) == ONE


def test_phi_alpha_generator_is_fourth_power():
    g = VElement(parse_tree("f2 f1"), parse_tree("f1 f1"))
    assert phi_alpha(g) == RingElem.term(4, 0)


def test_phi_alpha_remark_element():
    poly = phi_alpha(remark_element())
    expected = RingElem.term(6, 0) + RingElem.term(2, 0) * (ONE - ALPHA * ALPHA) ** 2
    assert poly == expected
    assert poly != RingElem.term(6, 0)
    assert phi_alpha_eval(remark_element(), Fraction(1, 2)) == Fraction(10, 64)


def test_phi_alpha_limits():
    rng = random.Random(2)
    for g in random_elements(20, 6, seed=77, nonidentity=True):
        assert phi_alpha_eval(g, Fraction(0)) == 0
        assert phi_alpha_eval(g, Fraction(1)) == 1
        value = phi_alpha_eval(g, Fraction(rng.randint(0, 8), 8))
        assert 0 <= value <= 1
        assert phi_alpha(g) == phi_alpha(~g)


def test_phi_alpha_inverse_symmetric():
    # gram_psd_check mirrors each entry on this identity; its unit diagonal
    # rests on test_phi_alpha_identity
    elements = random_elements(40, 6, seed=13)
    assert {classify(g) for g in elements} == {F, T_ONLY, V_ONLY}
    for g in elements + [family_gn(3), family_kn(1)]:
        assert phi_alpha(inverse(g)) == phi_alpha(g)


def test_phi_alpha_eval_contract(monkeypatch):
    with pytest.raises(ContractError):
        phi_alpha_eval(VElement.identity(), Fraction(3, 2))
    with pytest.raises(ContractError):
        phi_alpha_eval(VElement.identity(), Fraction(-1, 2))
    # alpha is refused before any cover sum: g_10000 would spend its cover
    # sum first, and the comb pair over the closure cap would report the cap
    def no_cover_sum(g):
        raise AssertionError("phi_alpha_eval ran the cover sum before checking alpha")

    monkeypatch.setattr(coefficients, "_class_sum", no_cover_sum)
    for g in (family_gn(10000), _block_reversed_comb_pair(7000, 1750)):
        for alpha, message in ((Fraction(3, 2), r"alpha must lie in \[0, 1\]"), (0.5, "alpha is a float")):
            with pytest.raises(ContractError, match=f"^phi_alpha_eval: {message}"):
                phi_alpha_eval(g, alpha)
    with pytest.raises(AssertionError, match="before checking alpha"):
        phi_alpha_eval(family_gn(3), Fraction(1, 2))


def test_phi_alpha_beta_free_on_samples():
    for g in random_elements(15, 5, seed=99):
        assert phi_alpha(g).is_beta_free()


def test_phi_alpha_nonvanishing_family():
    lower = Fraction(9, 64)
    for n in range(2, 7):
        value = phi_alpha_eval(family_gn(n), Fraction(1, 2))
        assert value >= lower


def test_phi_alpha_gn_closed_form():
    # (1 + alpha^2) phi_alpha(g_N) = alpha^2 (1 - alpha^2) + 2 alpha^(4N): the
    # cover sum on a whole family, checked without listing prefixes
    a2 = ALPHA * ALPHA
    for n in [*range(2, 61), 200, 500, 2000, 10000]:
        assert (ONE + a2) * phi_alpha(family_gn(n)) == a2 * (ONE - a2) + 2 * RingElem.term(4 * n, 0), n


def test_phi_alpha_representative_independent():
    # same group element written with inflated trees gives the same polynomial
    from forestrep.oracles import _inflated_representative

    rng = random.Random(41)
    for g in random_elements(8, 4, seed=55):
        raw = _inflated_representative(g, rng)
        assert VElement(*raw) == g
        assert phi_alpha(VElement(*raw)) == phi_alpha(g)


def test_phi_alpha_matches_enumeration_on_small_rotation_pairs():
    elements = list(reduced_rotation_elements(6))
    assert len(elements) == 6964
    for g in elements:
        assert phi_alpha(g) == enumerated_phi(g)


def test_phi_alpha_eval_on_small_rotation_pairs():
    # alpha^(2n - 2) as Fraction powers, apart from the ring and its Horner
    elements = list(reduced_rotation_elements(6))
    assert len(elements) == 6964
    for alpha in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3)):
        for g in elements:
            assert phi_alpha_eval(g, alpha) == alpha ** (2 * len(g.perm.images) - 2)


def test_class_sum_gives_the_closed_form_on_rotation_pairs(monkeypatch):
    # the cover sum, called past the rotation fast path, knows nothing of the
    # cyclic-forest lemma: an independent check of it.  Its caret test
    # settles every reduced rotation element before any node table is built,
    # so the rotation branch of phi_alpha is a fast path of the general route
    def no_table(*args):
        raise AssertionError("a node table was built")

    monkeypatch.setattr(coefficients, "_viable_nodes", no_table)
    elements = list(reduced_rotation_elements(6))
    assert len(elements) == 6964
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(2, 299)
        shapes = [
            parse_tree(" ".join(reversed([f"f{rng.randint(1, k)}" for k in range(1, n)])) or ".")
            for _ in range(2)
        ]
        elements.append(VElement(*shapes, Perm.rotation(n, rng.randrange(n))))
    assert max(g.leaf_count for g in elements) > 200
    for g in elements:
        assert _class_sum(g) == RingElem.term(2 * g.leaf_count - 2, 0)


def test_phi_alpha_matches_enumeration_on_words():
    elements = random_elements(400, 8, seed=5)
    assert {classify(g) for g in elements} == {F, T_ONLY, V_ONLY}
    assert sum(classify(g) == V_ONLY for g in elements) > 100
    for g in elements:
        assert phi_alpha(g) == enumerated_phi(g)


def test_phi_alpha_matches_enumeration_on_families():
    for n in range(2, 41):
        assert phi_alpha(family_gn(n)) == enumerated_phi(family_gn(n))
    rng = random.Random(17)
    for level in (3, 4):
        t = complete_tree(level)
        for _ in range(20):
            images = list(range(1, 2**level + 1))
            rng.shuffle(images)
            g = VElement(t, t, Perm(images))
            assert phi_alpha(g) == enumerated_phi(g)
    # nested nodes with many partners each, which build node tables
    for n, block in ((12, 4), (40, 10)):
        g = _block_reversed_comb_pair(n, block)
        assert phi_alpha(g) == enumerated_phi(g)


def test_phi_alpha_matches_enumeration_on_all_small_v_only_elements():
    # every reduced V_only element with at most 5 leaves: the caret test that
    # settles most of them and the closures behind it, against prefix listing
    elements = []
    for n in range(1, 6):
        trees = enumerate_trees(n)
        for domain in trees:
            for range_ in trees:
                for images in itertools.permutations(range(1, n + 1)):
                    g = VElement(domain, range_, Perm(images))
                    if g.leaf_count == n and classify(g) == V_ONLY:
                        elements.append(g)
    assert len(elements) == 21052
    for g in elements:
        assert phi_alpha(g) == enumerated_phi(g)


def _right_comb(k: int):
    t = LEAF
    for _ in range(k - 1):
        t = caret(LEAF, t)
    return t


def _swapped_comb_pair(m: int) -> VElement:
    """Range: a right comb of m leaves beside one leaf; domain: a right comb
    of m + 1 leaves; the bijection swaps the last two leaves.  Every internal
    node of the range's comb can be cut, but the domain's one caret holds
    the strand of the range's last leaf, which cannot be cut."""
    n = m + 1
    return VElement(_right_comb(n), caret(_right_comb(m), LEAF), Perm((*range(1, n - 1), n, n - 1)))


def test_caret_test_settles_elements_past_the_visit_cap(monkeypatch):
    for m in range(2, 8):
        g = _swapped_comb_pair(m)
        assert classify(g) == V_ONLY and g.leaf_count == m + 1
        assert phi_alpha(g) == enumerated_phi(g) == RingElem.term(2 * m, 0)
    # the range comb's internal nodes hold m(m + 1)/2 - 1 leaves, but the
    # domain has no cuttable caret, so no node table is built
    tables = []
    viable_nodes = coefficients._viable_nodes
    monkeypatch.setattr(coefficients, "_viable_nodes", lambda *args: tables.append(args) or viable_nodes(*args))
    assert phi_alpha(_swapped_comb_pair(4500)) == RingElem.term(2 * 4500, 0)
    assert tables == []
    # the test does see a table when one is built
    assert phi_alpha(family_gn(3)) != RingElem.term(10, 0)
    assert len(tables) == 2


def _block_reversed_comb_pair(n: int, block: int) -> VElement:
    """Right combs of n leaves on both sides; the bijection reverses each run
    of block leaves among the first n - 1 and fixes the last.  A spine node
    sends its leaves to domain nodes at as many depths as the offsets within
    a block, so the partner entries grow quadratically."""
    images = []
    for start in range(1, n, block):
        images += reversed(range(start, min(start + block, n)))
    return VElement(_right_comb(n), _right_comb(n), Perm((*images, n)))


def _disjoint_subsets(classes) -> Counter:
    """Reference for _cover_counts: every subset of pairwise disjoint classes."""
    out: Counter = Counter()
    for r in range(len(classes) + 1):
        for chosen in itertools.combinations(classes, r):
            covered = 0
            for _, mask in chosen:
                if covered & mask:
                    break
                covered |= mask
            else:
                out[(bin(covered).count("1"), sum(nodes for nodes, _ in chosen))] += 1
    return out


def test_cover_counts_match_subset_enumeration():
    rng = random.Random(23)
    for most in (8, 10):
        for _ in range(300):
            n = rng.randint(1, 12)
            classes = [(rng.choice((4, 6, 8)), rng.randrange(1, 1 << n)) for _ in range(rng.randint(0, most))]
            assert _cover_counts(classes, n) == _disjoint_subsets(classes)


def test_cover_counts_share_states_across_independent_stretches():
    # 60 classes on disjoint pairs of leaves, crossing: 2^60 subsets, but
    # each stretch forgets the leaves no later class reaches
    m = 30
    classes = [(4, 1 << j | 1 << (2 * m - 1 - j)) for j in range(m)]
    classes += [(4, 3 << (2 * m + 2 * j)) for j in range(m)]
    counts = _cover_counts(classes, 4 * m)
    assert sum(counts.values()) == 2 ** (2 * m)
    assert counts[(4 * m, 8 * m)] == 1


def test_cover_counts_refuse_past_the_state_cap(monkeypatch):
    # X_j = {j, m + 2j} and Y_j = {m + 2j, m + 2j + 1}: the Y stretch must
    # remember which X classes were taken, 2^m states
    m = 12
    classes = [(4, 1 << j | 1 << (m + 2 * j)) for j in range(m)]
    classes += [(4, 3 << (m + 2 * j)) for j in range(m)]
    assert sum(_cover_counts(classes, 3 * m).values()) == 3**m
    monkeypatch.setattr(coefficients, "COVER_ENTRY_CAP", 2**m)
    with pytest.raises(ContractError, match="cap of 4096 polynomial entries"):
        _cover_counts(classes, 3 * m)
    # the threshold: the X stretch writes one entry per move, 2^(j + 1) at
    # X_j; before Y_j each of the 2^(m - j) states holds j + 1 entries, and
    # half of them can also take Y_j, so 3 (j + 1) 2^(m - j - 1) at Y_j;
    # 2^(m + 3) - 3m - 8 in all
    written = 2 ** (m + 3) - 3 * m - 8
    assert written == sum(2 ** (j + 1) + 3 * (j + 1) * 2 ** (m - j - 1) for j in range(m))
    monkeypatch.setattr(coefficients, "COVER_ENTRY_CAP", written)
    assert sum(_cover_counts(classes, 3 * m).values()) == 3**m
    monkeypatch.setattr(coefficients, "COVER_ENTRY_CAP", written - 1)
    with pytest.raises(ContractError, match=f"cap of {written - 1} polynomial entries"):
        _cover_counts(classes, 3 * m)


def test_cover_sum_refuses_an_exponential_element_early():
    # complete trees of 2^10 leaves; the bijection keeps each leaf's low 6
    # bits and shuffles its high 4 bits, one shuffle per low pattern.  It
    # reduces to 993 leaves and 96 classes, whose cover states multiply
    rng = random.Random(5)
    high = []
    for _ in range(64):
        order = list(range(16))
        rng.shuffle(order)
        high.append(order)
    t = complete_tree(10)
    g = VElement(t, t, Perm((high[i & 63][i >> 6] << 6 | i & 63) + 1 for i in range(1024)))
    assert g.leaf_count == 993
    message = (
        "phi_alpha: the cover sum of a 993-leaf element writes more than"
        f" the cap of {coefficients.COVER_ENTRY_CAP} polynomial entries"
    )
    start = time.perf_counter()
    with pytest.raises(ContractError) as refusal:
        phi_alpha(g)
    assert time.perf_counter() - start < 10
    assert str(refusal.value) == message
    tracemalloc.start()
    try:
        with pytest.raises(ContractError):
            phi_alpha(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_phi_alpha_kn_is_pure_power():
    # k_n is a reduced F element with 5 * 2^n leaves
    for n in range(1, 9):
        start = time.perf_counter()
        assert phi_alpha(family_kn(n)) == RingElem.term(10 * 2**n - 2, 0)
        assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# comparison family

def test_farley_norm_and_match():
    assert farley_norm(VElement.identity()) == 0
    value = farley_phi(VElement.identity(), Fraction(1, 2))
    assert value.exponent == 0 and value.as_float() == 1.0
    g = VElement(parse_tree("f2 f1"), parse_tree("f1 f1"))
    assert farley_norm(g) == 4
    assert phi_alpha(g) == RingElem.term(farley_norm(g), 0)
    swap = remark_element()
    assert phi_alpha(swap) != RingElem.term(farley_norm(swap), 0)
    with pytest.raises(ContractError):
        farley_phi(g, Fraction(-1))


def test_farley_decay_rate_must_be_exact():
    g = builtin("g")
    for beta in (0.1, "1/2", True):
        with pytest.raises(ContractError, match="decay rate is a"):
            farley_phi(g, beta)
    assert farley_phi(g, 2).beta == 2 and farley_phi(g, Fraction(1, 3)).beta == Fraction(1, 3)


def test_farley_matches_on_rotation_pairs():
    for g in reduced_rotation_elements(4):
        assert phi_alpha(g) == RingElem.term(farley_norm(g), 0)


# ---------------------------------------------------------------------------
# gram matrices

def test_gram_singleton_and_pair():
    assert gram_psd_check([VElement.identity()], Fraction(1, 2)).is_psd
    rot = VElement(caret(LEAF, LEAF), caret(LEAF, LEAF), Perm((2, 1)))
    result = gram_psd_check([VElement.identity(), rot], Fraction(1, 2))
    assert result.is_psd and result.witness is None


def test_gram_random_sets():
    for seed in (1, 2):
        elements = random_elements(6, 5, seed=seed)
        for alpha in (Fraction(1, 4), Fraction(3, 4)):
            assert gram_psd_check(elements, alpha).is_psd


def test_gram_duplicates_singular_but_psd():
    rot = VElement(caret(LEAF, LEAF), caret(LEAF, LEAF), Perm((2, 1)))
    result = gram_psd_check([rot, rot], Fraction(1, 2))
    assert result.is_psd


def test_psd_ldlt_witnesses():
    from forestrep.coefficients import psd_ldlt

    ok = psd_ldlt([[2, 1], [1, 2]])
    assert ok.is_psd and ok.witness is None
    bad = psd_ldlt([[1, 2], [2, 1]])
    assert not bad.is_psd
    assert bad.witness["kind"] == "negative_pivot"
    hollow = psd_ldlt([[0, 1], [1, 0]])
    assert not hollow.is_psd
    assert hollow.witness["kind"] == "zero_pivot_offdiagonal"
    # a negative diagonal entry beside a zero pivot is a negative pivot
    lopsided = psd_ldlt([[0, 0], [0, -1]])
    assert lopsided.witness == {"kind": "negative_pivot", "index": 1, "value": -1}
    assert psd_ldlt([[0, 0], [0, 0]]).is_psd
    assert psd_ldlt([]).is_psd
    for ragged in ([[1, 2]], [[1], [2, 3]], [[1, 2], [3]]):
        with pytest.raises(ContractError, match="not square"):
            psd_ldlt(ragged)
    # the kernel relies on symmetry: x = (2, -1) gives -2 on [[1, 2], [3, 4]]
    with pytest.raises(ContractError, match="not symmetric"):
        psd_ldlt([[1, 2], [3, 4]])


def test_psd_ldlt_entries_must_be_exact():
    from forestrep.coefficients import psd_ldlt

    # Fraction() would take each of these, the float by its binary value
    for bad in (0.5, "1/2", Decimal("0.5"), True, _FractionSubclass(1, 2)):
        with pytest.raises(ContractError, match=f"psd_ldlt: an entry is a {type(bad).__name__}, not an int"):
            psd_ldlt([[1, bad], [bad, 1]])
    half = Fraction(1, 2)
    assert psd_ldlt([[1, half], [half, 1]]) == GramResult(True, None)
    assert psd_ldlt([[half, 1], [1, half]]).witness == {"kind": "negative_pivot", "index": 1, "value": Fraction(-3, 2)}


def _psd_ldlt_reference(matrix):
    """The pivoted LDL^T in Fractions: the same pivot rule and witnesses as
    psd_ldlt, one rational update per residual entry."""
    work = [[Fraction(v) for v in row] for row in matrix]
    active = list(range(len(work)))
    while active:
        pivot = max(active, key=lambda i: (work[i][i], -i))
        value = work[pivot][pivot]
        if value < 0:
            return GramResult(False, {"kind": "negative_pivot", "index": pivot, "value": value})
        if value == 0:
            for i in active:
                for j in active:
                    if work[i][j] != 0 and i == j:
                        witness = {"kind": "negative_pivot", "index": i, "value": work[i][j]}
                        return GramResult(False, witness)
                    if work[i][j] != 0:
                        return GramResult(
                            False,
                            {"kind": "zero_pivot_offdiagonal", "row": i, "col": j, "value": work[i][j]},
                        )
            return GramResult(True, None)
        active.remove(pivot)
        col = {i: work[i][pivot] for i in active}
        for i in active:
            for j in active:
                work[i][j] -= col[i] * col[j] / value
    return GramResult(True, None)


def _random_symmetric(rng):
    """A small symmetric rational matrix and whether it is singular by
    construction.  Shape 0 is B^T B with B of k <= n rows (PSD, singular when
    k < n); shape 1 is symmetric with any diagonal; shape 2 has a diagonal
    in 0..3, which leaves zero pivots beside nonzero residual entries."""
    n = rng.randint(1, 6)
    values = [Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3, 9)]
    shape = rng.randrange(3)
    if shape == 0:
        k = rng.randint(1, n)
        b = [[rng.choice(values) for _ in range(n)] for _ in range(k)]
        return [[sum(b[r][i] * b[r][j] for r in range(k)) for j in range(n)] for i in range(n)], k < n
    diagonal = values if shape == 1 else [Fraction(k) for k in range(4)]
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.choice(diagonal if i == j else values)
    return m, False


def test_psd_ldlt_matches_fraction_reference():
    from forestrep.coefficients import psd_ldlt

    rng = random.Random(2024)
    kinds = {"psd": 0, "singular": 0, "negative_pivot": 0, "zero_pivot_offdiagonal": 0}
    for _ in range(6000):
        matrix, singular = _random_symmetric(rng)
        result = psd_ldlt(matrix)
        assert result == _psd_ldlt_reference(matrix)
        # the same matrix scaled to ints: taken as they are, with the
        # verdict, witness and a Fraction value of the Fraction route
        common = math.lcm(*(v.denominator for row in matrix for v in row))
        ints = [[int(v * common) for v in row] for row in matrix]
        scaled = psd_ldlt(ints)
        assert scaled == psd_ldlt([[Fraction(v) for v in row] for row in ints]) == _psd_ldlt_reference(ints)
        if result.witness is not None:
            assert type(scaled.witness["value"]) is Fraction
            assert scaled.witness == {**result.witness, "value": result.witness["value"] * common}
        else:
            assert scaled.is_psd
        kinds["singular" if singular else result.witness["kind"] if result.witness else "psd"] += 1
    assert min(kinds.values()) >= 100, kinds


def test_gram_witness_is_rational_after_integer_fill(monkeypatch):
    from forestrep.coefficients import psd_ldlt

    elements = random_elements(7, 6, seed=3)
    target = multiply(inverse(elements[1]), elements[4])
    real_phi = coefficients.phi_alpha

    def patched(g):
        # the entry between elements 1 and 4, both ways, becomes 2
        return RingElem((2,)) if g in (target, inverse(target)) else real_phi(g)

    monkeypatch.setattr(coefficients, "phi_alpha", patched)
    for alpha in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        full = [[phi_alpha_eval(multiply(inverse(gi), gj), alpha) for gj in elements] for gi in elements]
        assert full[1][4] == full[4][1] == 2
        result = gram_psd_check(elements, alpha)
        assert not result.is_psd
        assert result == psd_ldlt(full) == _psd_ldlt_reference(full)
        assert type(result.witness["value"]) is Fraction


def test_gram_degree_zero_and_alpha_ends():
    # no entry off the diagonal, or none of positive degree: den^0 = 1
    g = random_elements(1, 6, seed=3)[0]
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
        assert gram_psd_check([], alpha) == GramResult(True, None)
        assert gram_psd_check([g], alpha) == GramResult(True, None)
        assert gram_psd_check([g, g], alpha) == GramResult(True, None)
    # alpha = 0 gives the identity matrix, alpha = 1 the all-ones matrix
    elements = random_elements(6, 6, seed=4)
    for alpha in (0, 1, Fraction(0), Fraction(1)):
        assert gram_psd_check(elements, alpha) == GramResult(True, None)


def test_gram_matches_reference_on_full_matrix(monkeypatch):
    import forestrep.coefficients as coefficients

    products = []

    def counted(g, h):
        products.append((g, h))
        return multiply(g, h)

    monkeypatch.setattr(coefficients, "multiply", counted)
    for seed in (3, 4):
        elements = random_elements(7, 6, seed=seed)
        elements.append(elements[2])
        distinct = len(set(elements))
        assert distinct == 7
        for alpha in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            full = [
                [phi_alpha_eval(multiply(inverse(gi), gj), alpha) for gj in elements]
                for gi in elements
            ]
            products.clear()
            assert gram_psd_check(elements, alpha) == _psd_ldlt_reference(full)
            # one product per unordered pair of distinct elements
            assert len(products) == distinct * (distinct - 1) // 2


def test_gram_alpha_contract():
    with pytest.raises(ContractError):
        gram_psd_check([VElement.identity()], Fraction(2))


# ---------------------------------------------------------------------------
# vanishing scan

def test_vanishing_scan_small():
    rows = vanishing_scan(Fraction(1, 2), 4)
    assert [r.leaves for r in rows] == [1, 2, 3, 4]
    assert rows[0].count == 1 and rows[0].phi_value == 1
    assert rows[2].phi_value == Fraction(1, 16)
    for r in rows:
        assert r.max_deviation == 0
    assert rows[3].phi_value == Fraction(1, 64)


def test_reduced_rotation_elements_match_reduce_filter():
    def reduced_by_filter(max_leaves):
        for n in range(1, max_leaves + 1):
            trees = enumerate_trees(n)
            for range_tree in trees:
                for domain_tree in trees:
                    for c in range(n):
                        g = VElement(domain_tree, range_tree, Perm.rotation(n, c))
                        if g.leaf_count == n:
                            yield g

    for max_leaves in range(1, 7):
        assert list(reduced_rotation_elements(max_leaves)) == list(reduced_by_filter(max_leaves))


def test_vanishing_scan_contract():
    with pytest.raises(ContractError):
        vanishing_scan(Fraction(1, 2), 20)
    with pytest.raises(ContractError):
        vanishing_scan(Fraction(3, 2), 3)
    # the generator itself refuses past the cap at its first next(), before
    # it lists a single element
    for max_leaves, triples in ((8, 1_605_975), (13, 44_829_087_843), (10**9, 44_829_087_843)):
        start = time.perf_counter()
        elements = reduced_rotation_elements(max_leaves)
        with pytest.raises(ContractError, match=f"max_leaves {max_leaves} means screening at least {triples} triples"):
            next(elements)
        assert time.perf_counter() - start < 0.1


class _FractionSubclass(Fraction):
    pass


def test_alpha_must_be_exact():
    # Fraction() would take each of these, the float by its binary value
    checks = {
        "phi_alpha_eval": lambda a: phi_alpha_eval(builtin("g"), a),
        "gram_psd_check": lambda a: gram_psd_check([builtin("g"), builtin("h")], a),
        "vanishing_scan": lambda a: vanishing_scan(a, 3),
    }
    for where, check in checks.items():
        for alpha in (0.5, "1/2", Decimal("0.5"), True, _FractionSubclass(1, 2)):
            message = f"{where}: alpha is a {type(alpha).__name__}, not an int"
            with pytest.raises(ContractError, match=message):
                check(alpha)
        for alpha in (2, Fraction(-1, 3)):
            with pytest.raises(ContractError, match=rf"{where}: alpha must lie in \[0, 1\]"):
                check(alpha)
        for alpha in (0, 1, Fraction(1, 3)):
            check(alpha)
    assert phi_alpha_eval(builtin("g"), 1) == 1
    # a Fraction passes through unwrapped; an int becomes one
    third = Fraction(1, 3)
    assert _exact_alpha("phi_alpha_eval", third) is third
    assert type(_exact_alpha("phi_alpha_eval", 1)) is Fraction
