import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from forestrep.coefficients import reduced_rotation_elements, vanishing_scan
from forestrep.errors import ContractError
from forestrep.oracles import (
    check_cyclic_forest_lemma,
    check_reduction_soundness,
    check_term_parity,
    check_vacuum_pairing,
    check_word_injectivity,
    element_trees,
    path_words,
    random_elements,
    refine,
)
from forestrep.shiftrep import (
    SHIFT_LEVEL_CAP,
    Indicator,
    SparseVec,
    UnitVec,
    almost_invariance,
    almost_invariance_report,
    c_constant,
    invariance_bound,
    kn_coefficient,
    _split_lags,
    zeta,
)
from forestrep.thompson import (
    Perm,
    VElement,
    builtin,
    family_gn,
    family_kn,
    inflated_element,
    named_tree,
)
from forestrep.trees import (
    LEAF,
    Forest,
    caret,
    complete_tree,
    depths,
    enumerate_trees,
    left_run,
    merge_trees,
    parse_tree,
    residual_forest,
    tree_from_depths,
)


def x0() -> VElement:
    return VElement(parse_tree("f2 f1"), parse_tree("f1 f1"))


def rotation2() -> VElement:
    return VElement(caret(LEAF, LEAF), caret(LEAF, LEAF), Perm((2, 1)))


def random_unit(rng: random.Random) -> UnitVec:
    entries = {rng.randint(-4, 4): Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(3)}
    return UnitVec(SparseVec(entries))


def materialised_window(h: int) -> UnitVec:
    """The indicator of {1, ..., h} written out entry by entry."""
    return UnitVec(SparseVec({i: 1 for i in range(1, h + 1)}))


# ---------------------------------------------------------------------------
# vectors

def test_sparse_vec_basics():
    v = SparseVec({1: 1, 2: 0, 3: Fraction(1, 2)})
    assert 2 not in v.entries
    assert v.shift(2).entries == {3: 1, 5: Fraction(1, 2)}
    assert v.dot(v) == 1 + Fraction(1, 4)
    # values stay as given; dot and norm_sq return Fractions
    assert type(v.entries[1]) is int and type(v.entries[3]) is Fraction
    w = SparseVec({0: 2, 1: 3})
    assert type(w.dot(w.shift(1))) is Fraction and w.dot(w.shift(1)) == 6
    assert type(w.norm_sq()) is Fraction and w.norm_sq() == 13


def test_sparse_vec_refuses_inexact_values():
    for value in (0.1, 1.0, "1/3", True, False, None):
        with pytest.raises(ContractError, match="must be an int or a Fraction"):
            SparseVec({0: 1, 1: value})


def test_zeta_window():
    # zeta stores only its window length; its inner products are those of
    # the window written out as 2m*8^m ones
    for m in (1, 2, 3):
        z = zeta(m)
        assert z == Indicator(2 * m * 8**m) and z.h == 2 * m * 8**m
        window = materialised_window(z.h)
        for lag in range(-40, 41):
            assert z.inner_shifts(0, lag) == window.inner_shifts(0, lag)
            assert z.inner_shifts(lag, 3) == window.inner_shifts(lag, 3)
    assert zeta(1).inner_shifts(0, 0) == 1
    # equal by type and length, not as a tuple
    assert zeta(1) != zeta(2) and zeta(1) != (16,) and zeta(1) != 16
    assert zeta(SHIFT_LEVEL_CAP).h == 2 * SHIFT_LEVEL_CAP * 8**SHIFT_LEVEL_CAP
    for m in (0, -1, SHIFT_LEVEL_CAP + 1):
        with pytest.raises(ContractError):
            zeta(m)


def test_overlap_formula_against_direct_inner():
    for m in range(1, SHIFT_LEVEL_CAP + 1):
        z = zeta(m)
        h = 2 * m * 8**m
        for a in range(0, 2 * m + 2):
            for b in range(0, 2 * m + 2):
                expected = Fraction(max(h - abs(a - b), 0), h)
                assert z.inner_shifts(a, b) == expected
        assert z.inner_shifts(h + 1, 0) == 0


def test_inner_shifts_matches_two_shifted_copies():
    # inner_shifts pairs one copy shifted by the lag b - a; check it against
    # two shifted copies on vectors other than the flat window
    rng = random.Random(23)
    for _ in range(30):
        u = random_unit(rng)
        for a in range(-3, 4):
            for b in range(-3, 4):
                expected = u.vec.shift(a).dot(u.vec.shift(b)) / u.vec.norm_sq()
                assert u.inner_shifts(a, b) == expected


def test_lag_ratio_is_the_closed_form_of_inner_shifts():
    # each carrier keeps one closed form: inner_shifts is its lag_ratio as a Fraction
    rng = random.Random(29)
    for u in [zeta(1), zeta(2), Indicator(1), Indicator(5)] + [random_unit(rng) for _ in range(10)]:
        for a in range(-4, 5):
            for b in range(-20, 21):
                n, d = u.lag_ratio(b - a)
                assert type(n) is int and type(d) is int and d > 0
                assert u.inner_shifts(a, b) == Fraction(n, d)
    assert Indicator(16).lag_ratio(-3) == (13, 16) and Indicator(16).lag_ratio(40) == (0, 16)


def test_split_lags_count_the_left_runs():
    # a cell split k levels above the level tree: level cells r = 1..2^k - 1
    # carry lag -left_run(r, k); the closed form counts them without listing them
    for k in range(1, 13):
        assert _split_lags(k) == Counter(-left_run(r, k) for r in range(1, 1 << k))


def test_indicator_takes_only_an_int_length():
    # a bool, float or string length would reach the integer pairing unchecked
    for h in (True, False, 2.5, 16.0, "16", None, Fraction(16)):
        with pytest.raises(ContractError, match="window length is a .*, not an int$"):
            Indicator(h)
    assert Indicator(16) == zeta(1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: zeta(True), "zeta: level is a bool"),
        (lambda: invariance_bound(True), "invariance_bound: level is a bool"),
        (lambda: almost_invariance(x0(), 2.0), "almost_invariance: level is a float"),
        (lambda: kn_coefficient(True, [zeta(1)] * 2, zeta(1)), "kn_coefficient: level is a bool"),
        (lambda: family_kn(True), "inflated_element: level is a bool"),
        (lambda: inflated_element("g", 1.0), "inflated_element: level is a float"),
        (lambda: family_gn(3.0), "family_gn: n is a float"),
        (lambda: vanishing_scan(Fraction(1, 2), True), "vanishing_scan: max_leaves is a bool"),
        (lambda: enumerate_trees(2.0), "enumerate_trees: leaf count is a float"),
        (lambda: complete_tree(2.0), "complete_tree: level is a float"),
        (lambda: next(reduced_rotation_elements(True)), "reduced_rotation_elements: max_leaves is a bool"),
        (lambda: next(reduced_rotation_elements(2.0)), "reduced_rotation_elements: max_leaves is a float"),
        (lambda: check_word_injectivity(True), "word-injectivity: max_leaves is a bool"),
        (lambda: check_cyclic_forest_lemma(2.0), "cyclic-forest: max_leaves is a float"),
        (lambda: check_term_parity(True), "term-parity: max_leaves is a bool"),
        (lambda: check_vacuum_pairing(2.0), "vacuum-pairing: max_leaves is a float"),
        (lambda: check_reduction_soundness(True), "reduction-soundness: samples is a bool"),
    ],
)
def test_levels_and_counts_take_only_ints(call, message):
    # a bool would pass as 0 or 1 and a float would fail deep inside
    with pytest.raises(ContractError) as info:
        call()
    assert str(info.value) == f"{message}, not an int"


def test_zero_vector_and_empty_window_refused():
    # neither has a unit direction, so no overlap is formed with them
    with pytest.raises(ContractError, match="zero vector"):
        kn_coefficient(0, [SparseVec({})], zeta(1))
    with pytest.raises(ContractError, match="zero vector"):
        UnitVec(SparseVec({3: 0}))
    for h in (0, -1):
        with pytest.raises(ContractError, match=f"window length {h} is below 1"):
            Indicator(h)


def test_unit_vector_takes_its_norm_from_its_vector():
    # the squared norm is the vector's own: there is no second argument to
    # disagree with it, and a vector pairs alike bare or wrapped
    with pytest.raises(TypeError):
        UnitVec(SparseVec({1: 1}), Fraction(4))
    rng = random.Random(31)
    for v in [SparseVec({1: 1}), SparseVec({1: 2}), SparseVec({0: 1, 3: Fraction(-2, 3)})] + [
        random_unit(rng).vec for _ in range(10)
    ]:
        assert UnitVec(v) == UnitVec(SparseVec(dict(v.entries)))
        for n in (0, 1):
            bare = kn_coefficient(n, [v] * 2**n, zeta(1))
            assert kn_coefficient(n, [UnitVec(v)] * 2**n, zeta(1)) == bare
        assert UnitVec(v).inner_shifts(0, 0) == 1
    assert kn_coefficient(0, [UnitVec(SparseVec({1: 4}))], zeta(1)) == Fraction(1575, 2048)


def test_shift_overlap_strictly_inside_unit():
    for m in (1, 2, 3):
        z = zeta(m)
        value = z.inner_shifts(1, 0)
        assert 0 < value < 1


# ---------------------------------------------------------------------------
# the pairing constant

def test_c_constant_zeta():
    assert c_constant(zeta(1)) == Fraction(1575, 2048)
    for m in (1, 2, 3):
        z = zeta(m)
        assert c_constant(z) == kn_coefficient(0, [z], z)


def test_c_constant_point_mass():
    delta = UnitVec(SparseVec({1: 1}))
    assert c_constant(delta) == 0
    assert kn_coefficient(0, [delta], delta) == 0


def test_c_constant_below_one():
    rng = random.Random(7)
    for z in [zeta(1), zeta(2)] + [random_unit(rng) for _ in range(20)]:
        c = c_constant(z)
        assert abs(c) < 1
        assert c == kn_coefficient(0, [z], z)


# ---------------------------------------------------------------------------
# level coefficients

def test_kn_coefficient_powers():
    z = zeta(1)
    c = Fraction(1575, 2048)
    assert kn_coefficient(0, [z], z) == c
    assert kn_coefficient(1, [z, z], z) == c**2
    assert kn_coefficient(2, [z] * 4, z) == c**4


def test_kn_coefficient_random_unit_components():
    rng = random.Random(19)
    z = zeta(1)
    c = c_constant(z)
    for n in (0, 1, 2):
        components = [random_unit(rng) for _ in range(2**n)]
        norms = Fraction(1)
        for comp in components:
            norms *= comp.inner_shifts(0, 0)
        assert kn_coefficient(n, components, z) == c**(2**n) * norms


def test_kn_coefficient_pairs_equal_slots_once(monkeypatch):
    calls = []
    z = zeta(1)
    original = type(z).lag_ratio

    def counted(self, lag):
        calls.append(lag)
        return original(self, lag)

    monkeypatch.setattr(type(z), "lag_ratio", counted)
    counts = []
    for n in range(6):
        calls.clear()
        assert kn_coefficient(n, [z] * 2**n, z) == Fraction(1575, 2048) ** (2**n)
        counts.append(len(calls))
    assert counts[0] > 0 and len(set(counts)) == 1
    # no slot is paired: slots given as distinct objects cost nothing more
    calls.clear()
    assert kn_coefficient(2, [zeta(1) for _ in range(4)], z) == Fraction(1575, 2048) ** 4
    assert len(calls) == counts[0]


def test_kn_coefficient_slots_pair_to_one():
    # q and a hang the slot input under their first leaf, at one shift power:
    # that leaf pair has lag 0, so every unit slot vector pairs with itself to 1
    cell_q, cell_a = named_tree("q").cells()[0], named_tree("a").cells()[0]
    assert cell_q[0] == cell_a[0] == 0 and left_run(*cell_q) == left_run(*cell_a)
    rng = random.Random(23)
    z = zeta(1)
    c = c_constant(z)
    slots = [random_unit(rng), zeta(2), SparseVec({0: 3, 2: Fraction(-1, 2)}), Indicator(5)]
    assert kn_coefficient(2, slots, z) == c**4
    # 32,768 slots, each one pairing to 1
    assert kn_coefficient(15, [z] * 2**15, z) == c ** (2**15)


def test_kn_coefficient_arity():
    z = zeta(1)
    with pytest.raises(ContractError):
        kn_coefficient(1, [z], z)
    for n in (3, 10**6):
        with pytest.raises(ContractError, match=rf"^kn_coefficient: level {n} takes 2\^{n} slot vectors, got 2$"):
            kn_coefficient(n, [z, z], z)
    # refused from the slot count's bit length: 2^(10^7) alone would take 1.25 MB
    tracemalloc.start()
    try:
        with pytest.raises(ContractError, match=r"level 10000000 takes 2\^10000000 slot"):
            kn_coefficient(10**7, [z, z], z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


# ---------------------------------------------------------------------------
# almost invariance

def test_almost_invariance_identity():
    assert almost_invariance(VElement.identity(), 1) == 1
    assert almost_invariance(VElement.identity(), 2) == 1


def test_almost_invariance_generator_values():
    # frozen from the leaf-by-leaf overlap products
    assert almost_invariance(x0(), 1) == Fraction(225, 256)
    assert almost_invariance(x0(), 2) == Fraction(255, 256) ** 2
    assert almost_invariance(x0(), 2) > almost_invariance(x0(), 1)


def test_almost_invariance_rotation_saturates():
    assert almost_invariance(rotation2(), 1) == 1
    assert almost_invariance(rotation2(), 2) == 1


def test_almost_invariance_bound():
    assert invariance_bound(1) == Fraction(2401, 4096)
    for g in (x0(), rotation2()):
        for m in (1, 2):
            report = almost_invariance_report(g, m)
            assert report["coefficient"] >= report["bound"]
            assert report["satisfied"]


def test_almost_invariance_deep_combs():
    # right comb onto left comb with 2001 leaves: the first leaf carries shift
    # 0 on one side and 1999 on the other, outside the 16- and 256-slot windows
    left = parse_tree(" ".join(["f1"] * 2000))
    right = parse_tree(" ".join(f"f{i}" for i in range(2000, 0, -1)))
    g = VElement(right, left)
    for m in (1, 2):
        assert almost_invariance(g, m) == 0
        assert almost_invariance(~g, m) == 0


def test_almost_invariance_monotone_through_levels():
    values = [almost_invariance(x0(), m) for m in (1, 2, 3)]
    assert values[0] < values[1] < values[2]


def test_almost_invariance_level_contract():
    with pytest.raises(ContractError, match="outside 1..7$"):
        almost_invariance(x0(), 0)
    # a level past the cap is refused with the size of its exact bound
    for refuse in (almost_invariance_report, almost_invariance):
        with pytest.raises(ContractError, match="level 8 outside 1..7; .* two 1,572,864-bit integers"):
            refuse(x0(), 8)
    for m in (0, 8):
        with pytest.raises(ContractError):
            invariance_bound(m)
    with pytest.raises(ContractError, match=r"3\*1000000\*4\^1000000-bit"):
        zeta(10**6)


def test_almost_invariance_report_through_level_cap():
    # the overlap stays between the bound and 1 up to the cap; the depth condition
    # holds once the level tree is as deep as g's trees
    for name in ("g", "h", "k"):
        g = builtin(name)
        for m in range(1, SHIFT_LEVEL_CAP + 1):
            report = almost_invariance_report(g, m)
            assert report["satisfied"] and report["coefficient"] < 1
            if m >= 4:
                assert report["within_depth"]


def _leaf_powers(f: Forest, input_powers) -> list[int]:
    """Leaf shift powers of a forest whose root k gets the window vector
    shifted by input_powers[k]: each caret shifts its input down the left
    branch and emits the unshifted window on the right, so a leaf's power is
    the left turns that end its path, plus its root's input power when the
    path turns only left."""
    powers = []
    for t, shift in zip(f.trees, input_powers, strict=True):
        for word in path_words(t):
            # a path word lists the turn nearest the leaf first, 'a' for left
            powers.append(len(word) - len(word.lstrip("a")) + (0 if "b" in word else shift))
    return powers


def _merge(u, v):
    """The merge of two trees, as a tree."""
    return tree_from_depths(merge_trees(depths(u), depths(v)))


def _overlap_by_refinement(g: VElement, m: int, deep_level: int = 0):
    """Reference overlap through trees: the reference vector written over
    the merge of g's domain and the level tree, carried to the range side by
    refining g, and paired with the reference vector over the merge of that
    refined range tree, the level tree and the complete tree of deep_level.
    Returns the overlap and the refined range tree."""
    level = complete_tree(m)
    slots = 2**m
    domain, range_ = element_trees(g)
    w1 = _merge(domain, level)
    powers_w1 = _leaf_powers(residual_forest(w1, level), [0] * slots)
    range_tree, widened = refine(range_, g.perm, residual_forest(w1, domain))
    powers_range = widened.theta(powers_w1)
    w2 = _merge(_merge(range_tree, level), complete_tree(deep_level))
    left = _leaf_powers(residual_forest(w2, range_tree), powers_range)
    right = _leaf_powers(residual_forest(w2, level), [0] * slots)
    z = zeta(m)
    value = Fraction(1)
    for a, b in zip(left, right):
        value *= z.inner_shifts(a, b)
    return value, range_tree


def _depth(t) -> int:
    """Height of a tree, by walking its nodes."""
    height, stack = 0, [(t, 0)]
    while stack:
        node, d = stack.pop()
        if node is LEAF:
            height = max(height, d)
        else:
            stack += [(node.left, d + 1), (node.right, d + 1)]
    return height


def _random_v_element(rng: random.Random, n: int) -> VElement:
    def tree():
        return parse_tree(" ".join(reversed([f"f{rng.randint(1, k)}" for k in range(1, n)])) or ".")

    return VElement(tree(), tree(), Perm(rng.sample(range(1, n + 1), n)))


def test_overlap_matches_refinement_reference():
    # the leaf-cell overlap against the tree route: value and depth condition
    rng = random.Random(13)
    elements = random_elements(800, 8, seed=5)
    elements += [_random_v_element(rng, rng.randint(1, 30)) for _ in range(400)]
    cases = [(g, m) for g in elements for m in range(1, 6)]
    left = parse_tree(" ".join(["f1"] * 299))
    right = parse_tree(" ".join(f"f{i}" for i in range(299, 0, -1)))
    comb = VElement(right, left)
    for g in (comb, ~comb, family_gn(30), builtin("g"), builtin("h"), builtin("k")):
        cases += [(g, m) for m in range(1, SHIFT_LEVEL_CAP + 1)]
    assert len(cases) == 6042
    for g, m in cases:
        value, range_tree = _overlap_by_refinement(g, m)
        report = almost_invariance_report(g, m)
        assert report["coefficient"] == value, (g, m)
        domain_depth = _depth(element_trees(g)[0])
        assert report["within_depth"] == (domain_depth <= m and _depth(range_tree) <= 2 * m), (g, m)


def test_almost_invariance_refinement_independent():
    # pairing through a deeper complete tree than the least refinement
    for g in (x0(), rotation2()):
        for m in (1, 2):
            assert almost_invariance(g, m) == _overlap_by_refinement(g, m, 2 * m)[0]
    for m in (1, 2, 3):
        for g in random_elements(5, 6, seed=40 + m):
            assert almost_invariance(g, m) == _overlap_by_refinement(g, m, m + 1)[0]
