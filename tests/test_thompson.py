import itertools
import random
import sys
from fractions import Fraction

import pytest

from forestrep import trees
from forestrep.coefficients import gram_psd_check, phi_alpha
from forestrep.errors import ContractError, ParseError
from forestrep.oracles import element_trees, inflate, pl_maps_equal, pl_value, random_elements, refine
from forestrep.thompson import (
    FAMILY_GN_CAP,
    Perm,
    VElement,
    builtin,
    carry,
    classify,
    element_from_json,
    element_to_json,
    eval_pl,
    family_gn,
    family_kn,
    format_element_literal,
    inflated_element,
    inverse,
    multiply,
    named_tree,
    parse_dyadic,
    parse_element_literal,
    standard_generators,
    _reduce,
)
from forestrep.shiftrep import almost_invariance
from forestrep.trees import (
    LEAF,
    Forest,
    Tree,
    caret,
    caret_positions,
    collapse_caret,
    depths,
    enumerate_trees,
    graft,
    merge_trees,
    parse_tree,
    residual_forest,
    tree_from_depths,
)


def x0() -> VElement:
    return VElement(parse_tree("f2 f1"), parse_tree("f1 f1"))


def rotation2() -> VElement:
    return VElement(caret(LEAF, LEAF), caret(LEAF, LEAF), Perm((2, 1)))


def _reduced(domain, range_, perm):
    """The reduced triple, through the constructor's cell-level kernel."""
    g = VElement(domain, range_, perm)
    return g.domain, g.range, g.perm


def random_product(rng, length):
    gens = standard_generators()
    pool = gens + tuple(~g for g in gens)
    acc = VElement.identity()
    for _ in range(length):
        acc = acc * rng.choice(pool)
    return acc


# ---------------------------------------------------------------------------
# permutations

def test_perm_basics():
    p = Perm((2, 3, 1))
    assert p(1) == 2 and p.inv(2) == 1
    assert p.inverse() == Perm((3, 1, 2))
    assert p.theta(("x", "y", "z")) == ("z", "x", "y")
    assert Perm.rotation(3, 1) == p
    assert p.rotation_offset() == 1
    assert Perm((2, 1, 3)).rotation_offset() is None
    for n in range(1, 6):
        rotations = {Perm.rotation(n, c): c for c in range(n)}
        for images in itertools.permutations(range(1, n + 1)):
            assert Perm(images).rotation_offset() == rotations.get(Perm(images))
            assert Perm(images).is_identity() == all(v == k for k, v in enumerate(images, 1))
    with pytest.raises(ContractError):
        Perm((1, 1, 2))
    with pytest.raises(ContractError):
        Perm([1.0, 2])
    with pytest.raises(ContractError):
        Perm([True, 2])


def test_inflate_block_example():
    # two blocks of two strands crossing
    s = inflate(Perm((2, 1)), (2, 2))
    assert s.images == (3, 4, 1, 2)
    assert inflate(Perm.identity(3), (2, 1, 3)).is_identity()


# ---------------------------------------------------------------------------
# canonical forms

def test_full_cancellation():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert VElement(t, t).is_identity()


def test_known_reduced_elements_unchanged():
    g = x0()
    assert g.domain == named_tree("d") and g.range == named_tree("c")
    for n in range(2, 7):
        gn = family_gn(n)
        assert gn.leaf_count == 2 * n
    # builtin fractions stay put
    for name in ("g", "h", "k"):
        e = builtin(name)
        assert e.leaf_count == (5 if name != "h" else 3)


def test_family_gn_shape():
    g2 = family_gn(2)
    assert g2.perm.images == (3, 2, 1, 4)
    assert classify(g2) == "V_only"
    g3 = family_gn(3)
    assert g3.perm.images == (4, 2, 6, 1, 5, 3)
    for n in range(2, 7):
        assert classify(family_gn(n)) == "V_only"
    with pytest.raises(ContractError):
        family_gn(1)


def test_family_gn_refused_over_cap():
    assert family_gn(FAMILY_GN_CAP).leaf_count == 2 * FAMILY_GN_CAP
    for n in (FAMILY_GN_CAP + 1, 99999999999):
        message = f"g_{n} has {2 * n} leaves, over the cap of g_{FAMILY_GN_CAP}"
        with pytest.raises(ContractError, match=message):
            family_gn(n)
    with pytest.raises(ContractError, match="over the cap"):
        parse_element_literal("g_99999999999")


def test_reduction_confluent_under_random_order():
    rng = random.Random(5)
    pool = [t for n in (1, 2, 3) for t in enumerate_trees(n)]
    for _ in range(60):
        g = random_product(rng, 4)
        attach = Forest(tuple(rng.choice(pool) for _ in range(g.leaf_count)))
        domain, range_ = element_trees(g)
        rng_tree, perm = refine(range_, g.perm, attach)
        assert _reduced(graft(domain, attach), rng_tree, perm) == (g.domain, g.range, g.perm)


def _reduce_by_rescan(domain, range_, perm):
    """Reference reduction: rescan both trees for the leftmost cancellable
    caret after every cancellation.  Returns the leaf depths of the trees."""
    while True:
        rc = set(caret_positions(range_))
        hits = [
            i
            for i in caret_positions(domain)
            if perm(i + 1) == perm(i) + 1 and perm(i) in rc
        ]
        if not hits:
            return depths(domain), depths(range_), perm
        i = min(hits)
        j = perm(i)
        domain = collapse_caret(domain, i)
        range_ = collapse_caret(range_, j)
        perm = Perm(v - 1 if v > j else v for k, v in enumerate(perm.images, 1) if k != i + 1)


def _random_tree(rng, n):
    return parse_tree(" ".join(reversed([f"f{rng.randint(1, k)}" for k in range(1, n)])) or ".")


def test_reduction_matches_rescan_reference():
    triples = 0
    for n in range(1, 5):
        trees = enumerate_trees(n)
        for s in trees:
            for t in trees:
                for images in itertools.permutations(range(1, n + 1)):
                    perm = Perm(images)
                    assert _reduced(s, t, perm) == _reduce_by_rescan(s, t, perm)
                    triples += 1
    assert triples == 627

    rng = random.Random(11)
    pool = [t for n in (1, 2, 3) for t in enumerate_trees(n)]
    for _ in range(300):
        n = rng.randint(1, 20)
        kind = rng.choice(("identity", "rotation", "random"))
        if kind == "identity":
            perm = Perm.identity(n)
        elif kind == "rotation":
            perm = Perm.rotation(n, rng.randrange(n))
        else:
            perm = Perm(rng.sample(range(1, n + 1), n))
        s = _random_tree(rng, n)
        t = s if rng.random() < 0.3 else _random_tree(rng, n)
        assert _reduced(s, t, perm) == _reduce_by_rescan(s, t, perm)
        # graft up to three leaves under each domain leaf, carried through perm
        attach = Forest(tuple(rng.choice(pool) for _ in range(n)))
        raw_range, raw_perm = refine(t, perm, attach)
        raw = (graft(s, attach), raw_range, raw_perm)
        assert _reduced(*raw) == _reduce_by_rescan(*raw)


def _multiply_by_refinement(g, h):
    """Reference product: graft the residual forests of the merged tree under
    h's domain and g's range, carry them through the bijections, and reduce
    the refined triple.  Any common refinement gives the same reduced
    product, so the merge is only required to be one."""
    (g_domain, g_range), (h_domain, h_range) = element_trees(g), element_trees(h)
    w = tree_from_depths(merge_trees(g.domain, h.range))
    new_range, up = refine(g_range, g.perm, residual_forest(w, g_domain))
    new_domain, down = refine(h_domain, h.perm.inverse(), residual_forest(w, h_range))
    # down maps the refined range of h back to its domain, so the product
    # sends domain leaf k to up(down.inv(k))
    images = [up(down.inv(k)) for k in range(1, down.size + 1)]
    return VElement(new_domain, new_range, Perm(images))


def _random_element(rng, n, kind):
    images = list(range(1, n + 1))
    if kind == "T":
        c = rng.randrange(1, n)
        images = images[c:] + images[:c]
    elif kind == "V":
        rng.shuffle(images)
    return VElement(_random_tree(rng, n), _random_tree(rng, n), Perm(images))


def test_deep_inputs_reduce_without_recursion():
    comb = LEAF
    for _ in range(1499):
        comb = caret(comb, LEAF)
    assert VElement(comb, comb).is_identity()
    g = family_gn(1200)
    assert g.leaf_count == 2400
    assert multiply(g, g).is_identity()
    left = right = LEAF
    for _ in range(1999):
        left, right = caret(left, LEAF), caret(LEAF, right)
    g = VElement(left, right)
    assert g.leaf_count == 2000
    assert multiply(g, g) == _multiply_by_refinement(g, g)
    assert multiply(g, ~g).is_identity()


def test_group_axioms_random():
    rng = random.Random(13)
    ident = VElement.identity()
    for _ in range(25):
        g = random_product(rng, rng.randint(1, 5))
        h = random_product(rng, rng.randint(1, 5))
        w = random_product(rng, rng.randint(1, 5))
        assert (g * h) * w == g * (h * w)
        assert g * ~g == ident
        assert ~g * g == ident
        assert g * ident == g
        assert ident * g == g
        assert ~(~g) == g


def test_multiply_matches_refinement_on_words():
    gens = standard_generators()
    pool = gens + tuple(~g for g in gens)
    rng = random.Random(41)
    words = []
    for length in range(15):
        for _ in range(3):
            acc = VElement.identity()
            for _ in range(length):
                acc = _multiply_by_refinement(acc, rng.choice(pool))
            words.append(acc)
    for g in words:
        assert multiply(g, ~g).is_identity()
        for h in words:
            assert multiply(g, h) == _multiply_by_refinement(g, h)


def test_multiply_matches_refinement_on_large_elements():
    rng = random.Random(43)
    ident = VElement.identity()
    for i, n in enumerate((50, 100, 200, 400, 600)):
        g = _random_element(rng, n, "FTV"[i % 3])
        h = _random_element(rng, n, "FTV"[(i + 1) % 3])
        gh = multiply(g, h)
        assert gh == _multiply_by_refinement(g, h)
        assert multiply(h, g) == _multiply_by_refinement(h, g)
        assert multiply(gh, ~h) == _multiply_by_refinement(gh, ~h) == g
        assert multiply(g, ~g) == _multiply_by_refinement(g, ~g) == ident
    # the exchange combs are involutions
    for n in (50, 100, 200):
        c = family_gn(n)
        assert multiply(c, c) == _multiply_by_refinement(c, c) == ident


def test_carry_matches_tree_refinement():
    # carried under g's range, the leaves of a refined domain are the leaves
    # of the range refined by the tree route, each from the domain leaf that
    # the widened bijection sends there
    rng = random.Random(11)
    pool = [t for n in (1, 2, 3) for t in enumerate_trees(n)]
    for g in random_elements(300, 10, seed=11):
        domain, range_ = element_trees(g)
        f = Forest(rng.choice(pool) for _ in range(g.leaf_count))
        w = depths(graft(domain, f))
        moved, source = carry(w, g)
        refined, widened = refine(range_, g.perm, f)
        assert moved == depths(refined)
        assert source == [widened.inv(j) - 1 for j in range(1, len(w) + 1)]


def test_inverse_is_already_reduced():
    # inverse takes the swapped triple as it is; reducing it again returns
    # that triple unchanged
    rng = random.Random(29)
    for _ in range(200):
        g = random_product(rng, rng.randint(1, 8))
        perm = g.perm.inverse()
        assert _reduce(g.range, g.domain, perm.images) == (g.range, g.domain, perm)
        assert ~g == VElement(*element_trees(g)[::-1], perm)


def test_commutator_identity():
    g, h, k = builtin("g"), builtin("h"), builtin("k")
    assert g * h * ~g * ~h == k
    assert k.range == named_tree("a")
    assert k.domain == named_tree("q")
    assert k.perm.is_identity()


def test_family_kn():
    assert family_kn(0) == builtin("k")
    for n in (0, 1, 2, 3):
        kn = family_kn(n)
        assert classify(kn) == "F"
        gn = inflated_element("g", n)
        hn = inflated_element("h", n)
        assert gn * hn * ~gn * ~hn == kn
    with pytest.raises(ContractError):
        family_kn(9)


def test_classify():
    assert classify(VElement.identity()) == "F"
    assert classify(rotation2()) == "T_only"
    t = parse_tree("f3 f1 f1")
    assert classify(VElement(t, t, Perm((3, 2, 1, 4)))) == "V_only"


def test_classify_closed_under_products():
    rng = random.Random(3)
    x1 = standard_generators()[1]
    f_pool = [x0(), x1, ~x0(), ~x1]
    for _ in range(20):
        g = rng.choice(f_pool) * rng.choice(f_pool)
        assert classify(g) == "F"
    t_pool = f_pool + [rotation2(), ~rotation2()]
    for _ in range(20):
        g = rng.choice(t_pool) * rng.choice(t_pool)
        assert classify(g) in ("F", "T_only")


# ---------------------------------------------------------------------------
# dyadics and the interval action

def test_dyadic_arithmetic():
    x = Fraction(3, 8)
    assert parse_dyadic("3/8") == x
    assert parse_dyadic("3/2^3") == x
    assert parse_dyadic("1") == Fraction(1)
    with pytest.raises(ParseError):
        parse_dyadic("1/3")
    with pytest.raises(ParseError):
        parse_dyadic("1/0")


class _FractionSubclass(Fraction):
    pass


def test_eval_pl_examples():
    ident = VElement.identity()
    for k in range(8):
        x = Fraction(k, 8)
        assert eval_pl(ident, x) == x
    assert eval_pl(x0(), Fraction(1, 2)) == Fraction(1, 4)
    assert eval_pl(x0(), Fraction(3, 4)) == Fraction(1, 2)
    assert eval_pl(rotation2(), Fraction(0)) == Fraction(1, 2)
    assert eval_pl(rotation2(), 0) == Fraction(1, 2)
    # one line each, under the eval_pl: prefix; Fraction() would take the
    # bool, the float and the Fraction subclass, eval_pl refuses them
    for x, reason in (
        (Fraction(5, 4), "must lie in"),
        (Fraction(1, 3), "is not a dyadic"),
        (Fraction(1, 3**9000), "is not a dyadic"),
        (False, "x is a bool, not an int or a Fraction"),
        (0.5, "x is a float, not an int or a Fraction"),
        (_FractionSubclass(1, 2), "x is a _FractionSubclass, not an int or a Fraction"),
    ):
        with pytest.raises(ContractError, match=f"^eval_pl: .*{reason}[^\n]*$"):
            eval_pl(x0(), x)


def test_eval_pl_matches_tree_descent():
    # the depth route against the tree descent, on every cell start and
    # midpoint and on random points, down to points finer than any cell
    rng = random.Random(19)
    elements = [random_product(rng, rng.randint(1, 8)) for _ in range(40)]
    elements += [_random_element(rng, n, kind) for n in (50, 200, 600) for kind in "FTV"]
    left = parse_tree(" ".join(["f1"] * 399))
    right = parse_tree(" ".join(f"f{i}" for i in range(399, 0, -1)))
    elements += [VElement(left, right), VElement(right, left), family_gn(100), VElement.identity()]
    for g in elements:
        domain, range_ = element_trees(g)
        points = [Fraction(i, 1 << d) for i, d in g.domain.cells()]
        points += [x + Fraction(1, 1 << (d + 1)) for x, (_, d) in zip(points, g.domain.cells())]
        points += [Fraction(rng.randrange(1 << bits), 1 << bits) for bits in (1, 5, 30, 700) for _ in range(5)]
        points += [Fraction(3, 1 << 3000), 1 - Fraction(1, 1 << 3000)]
        for x in points:
            assert eval_pl(g, x) == pl_value(domain, range_, g.perm, x), (g, x)


def test_eval_pl_composition():
    rng = random.Random(17)
    for _ in range(15):
        g = random_product(rng, 4)
        h = random_product(rng, 4)
        gh = g * h
        for k in range(0, 64, 7):
            x = Fraction(k, 64)
            assert eval_pl(gh, x) == eval_pl(g, eval_pl(h, x))


def test_eval_pl_bijective_and_monotone_on_cells():
    rng = random.Random(23)
    for _ in range(8):
        g = random_product(rng, 4)
        outputs = [eval_pl(g, Fraction(k, 256)) for k in range(256)]
        assert len(set(outputs)) == 256
        # monotone within each domain cell
        for index, depth in g.domain.cells():
            step = Fraction(1, 2 ** (depth + 3))
            points = [Fraction(index, 2**depth) + i * step for i in range(8)]
            values = [eval_pl(g, p) for p in points]
            assert values == sorted(values)


def test_canonical_equality_matches_interval_action():
    rng = random.Random(31)
    elements = [random_product(rng, rng.randint(1, 8)) for _ in range(12)]
    grid = [Fraction(k, 1024) for k in range(1024)]
    for i, g in enumerate(elements):
        for h in elements[i + 1 :]:
            same_action = True
            for x in grid:
                if eval_pl(g, x) != eval_pl(h, x):
                    same_action = False
                    break
            assert (g == h) == same_action


def test_pl_maps_equal_helper():
    g = x0()
    domain, range_ = element_trees(g)
    attach = Forest((caret(LEAF, LEAF), LEAF, LEAF))
    raw = (graft(domain, attach), *refine(range_, g.perm, attach))
    assert pl_maps_equal(raw, (domain, range_, g.perm))
    assert not pl_maps_equal(
        (domain, range_, g.perm),
        (range_, domain, g.perm.inverse()),
    )


# ---------------------------------------------------------------------------
# literals and JSON

def test_literal_round_trip():
    t = parse_tree("f3 f1 f1")
    g = VElement(t, t, Perm((3, 2, 1, 4)))
    lit = format_element_literal(g)
    assert lit == "(f3 f1 f1)/(f3 f1 f1)~[3, 2, 1, 4]"
    assert parse_element_literal(lit) == g
    assert parse_element_literal("(f1 f1)/(f2 f1)") == x0()
    assert parse_element_literal("a/b") == builtin("g")
    assert parse_element_literal("k") == builtin("k")
    assert parse_element_literal("k_2") == family_kn(2)
    assert parse_element_literal("g_3") == family_gn(3)
    with pytest.raises(ParseError):
        parse_element_literal("f1 f1")
    with pytest.raises(ParseError):
        parse_element_literal("(f1 f1)/(f2 f1)~[1,2")


def test_json_round_trip():
    g = family_gn(2)
    data = element_to_json(g)
    assert set(data) == {"domain", "range", "perm"}
    assert element_from_json(data) == g
    assert element_from_json({"domain": "f1", "range": "f1"}) == rotation2() * rotation2()
    for bad in ("f1", ["f1", "f1"], {"domain": 1, "range": "f1"}, {"domain": "f1", "range": "f1", "perm": "21"}):
        with pytest.raises(ParseError):
            element_from_json(bad)


def test_uninterned_literals_give_equal_elements():
    # Tree(left, right) is the interned caret, so either spelling gives one
    # tree and one element
    assert Tree(LEAF, LEAF) is caret(LEAF, LEAF)
    built = VElement(Tree(LEAF, LEAF), Tree(LEAF, LEAF), Perm((2, 1)))
    interned = VElement(caret(LEAF, LEAF), caret(LEAF, LEAF), Perm((2, 1)))
    assert format_element_literal(built) == format_element_literal(interned) == "f1/f1~[2, 1]"
    assert built == interned and hash(built) == hash(interned) and len({built, interned}) == 1
    x1 = VElement(Tree(LEAF, Tree(LEAF, Tree(LEAF, LEAF))), Tree(LEAF, Tree(Tree(LEAF, LEAF), LEAF)))
    assert x1 == standard_generators()[1] and hash(x1) == hash(standard_generators()[1])


def test_production_routes_build_no_tree(monkeypatch):
    rng = random.Random(47)
    elements = [random_product(rng, rng.randint(1, 8)) for _ in range(12)]
    elements += [_random_element(rng, n, kind) for n in (40, 200) for kind in "FTV"]
    elements += [family_gn(30), family_kn(2)]
    points = [Fraction(rng.randrange(1 << 20), 1 << 20) for _ in range(8)]
    calls = {"caret": 0, "tree_from_depths": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # every module's binding, so that no route reaches the originals
    originals = {"caret": trees.caret, "tree_from_depths": trees.tree_from_depths}
    for module in [m for name, m in sys.modules.items() if name.startswith("forestrep")]:
        for name, fn in originals.items():
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    for g in elements:
        for h in elements[:6]:
            gh = multiply(g, h)
            assert multiply(gh, inverse(h)) == g
        phi_alpha(g)
        for x in points:
            eval_pl(g, x)
        almost_invariance(g, 2)
    assert gram_psd_check(elements[:8], Fraction(1, 2)).is_psd
    # text is written from the leaf depths too
    texts = [format_element_literal(g) for g in elements] + [element_to_json(g) for g in elements]
    assert calls == {"caret": 0, "tree_from_depths": 0}
    # parsing and the named families write leaf depths too
    assert [parse_element_literal(text) for text in texts[: len(elements)]] == elements
    assert [element_from_json(data) for data in texts[len(elements) :]] == elements
    assert parse_element_literal("a/q") == builtin("k")
    built = [builtin(name) for name in "ghk"] + [family_kn(2), family_gn(30), inflated_element("h", 3)]
    built += [*standard_generators(), VElement.identity()]
    assert calls == {"caret": 0, "tree_from_depths": 0}
    # the same elements as the public constructor builds from their trees
    assert built == [VElement(*element_trees(g), g.perm) for g in built]


def test_parsing_adds_no_interned_caret():
    # literals of fresh random shapes leave the caret table as it was
    rng = random.Random(53)
    triples = []
    for n in (50, 200, 400):
        range_, domain = (" ".join([f"f{rng.randint(1, k)}" for k in range(1, n)][::-1]) for _ in range(2))
        triples.append((range_, domain, rng.sample(range(1, n + 1), n)))
    before = len(trees._CARETS)
    parsed = [parse_element_literal(f"({r})/({d})~{images}") for r, d, images in triples]
    parsed += [element_from_json({"domain": d, "range": r, "perm": images}) for r, d, images in triples]
    assert len(trees._CARETS) == before
    built = [VElement(parse_tree(d), parse_tree(r), images) for r, d, images in triples]
    assert parsed == built * 2 and len(trees._CARETS) > before


def test_make_element_validation():
    with pytest.raises(ContractError):
        VElement(parse_tree("f1"), parse_tree("f1 f1"))
    with pytest.raises(ContractError):
        VElement(parse_tree("f1"), parse_tree("f1"), Perm((1, 2, 3)))
