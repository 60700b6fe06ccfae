import ast
import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

import pytest

import forestrep
from forestrep.errors import ContractError, ParseError
from forestrep.oracles import enumerate_forests, path_words
from forestrep.trees import (
    LEAF,
    PREFIX_TABLE_CAP,
    Depths,
    Forest,
    Tree,
    _assemble,
    _co_walk,
    _prefix_table_size,
    caret,
    caret_positions,
    collapse_caret,
    complete_tree,
    compose,
    depths,
    enumerate_depths,
    enumerate_trees,
    format_tree,
    graft,
    merge_trees,
    parse_tree,
    residual_forest,
    split_sequence,
    subrooted_trees,
    tree_from_depths,
)


def catalan(n: int) -> int:
    # independent oracle: the convolution recurrence
    table = [1]
    for m in range(1, n + 1):
        table.append(sum(table[k] * table[m - 1 - k] for k in range(m)))
    return table[n]


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


def _trivial(n: int) -> Forest:
    return Forest((LEAF,) * n)


def _elementary(i: int, n: int) -> Forest:
    """n roots, all of them leaves but the i-th, a single caret."""
    trees = [LEAF] * n
    trees[i - 1] = caret(LEAF, LEAF)
    return Forest(trees)


# ---------------------------------------------------------------------------
# parsing and construction

def test_parse_leaf_and_caret():
    assert parse_tree(".") is LEAF
    assert parse_tree("f1") == caret(LEAF, LEAF)
    assert parse_tree("(. .)") == caret(LEAF, LEAF)


def test_parse_full_tree_with_four_leaves():
    t = parse_tree("f3 f1 f1")
    assert t.leaf_count == 4
    assert _depth(t) == 2
    assert t == caret(caret(LEAF, LEAF), caret(LEAF, LEAF))


def test_parse_tree_a():
    a = parse_tree("f3 f3 f1 f1")
    assert a.leaf_count == 5
    assert a == caret(caret(LEAF, LEAF), caret(caret(LEAF, LEAF), LEAF))


def test_parse_round_trip_both_styles():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert parse_tree(format_tree(t, "product")) == t
            assert parse_tree(format_tree(t, "parens")) == t


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_tree("f0")
    with pytest.raises(ParseError):
        parse_tree("f2")  # splits leaf 2 of a single leaf
    with pytest.raises(ParseError):
        parse_tree("(. ")
    with pytest.raises(ParseError):
        parse_tree("")


@pytest.mark.parametrize(
    "text, message",
    [
        ("f0", "split index 0 exceeds current leaf count 1"),
        ("f2", "split index 2 exceeds current leaf count 1"),
        ("f1 f3", "split index 3 exceeds current leaf count 1"),
        ("(f1 f0)", "split index 0 exceeds current leaf count 1"),
        ("(. ", "unexpected end of tree text at position 2"),
        ("", "empty tree text"),
        ("   ", "empty tree text"),
        ("(. x)", "bad product token '.'"),
        ("((. .)", "bad product token '(.'"),
        ("(f3 f1", "unexpected character 'f' at position 1"),
        (")(", "bad product token ')('"),
        ("()", "unexpected character ')' at position 1"),
        ("(. .", "expected ')' at position 4"),
        ("(. .))", "bad product token '.'"),
        ("(. .) .", "trailing text at position 6"),
        ("(.)", "bad product token '.'"),
        ("(( . . ) )", "bad product token '('"),
        ("(f1) (f1)", "bad product token 'f1)'"),
        (". .", "bad product token '.'"),
        ("f1 g2", "bad product token 'g2'"),
        ("f1.5", "bad product token 'f1.5'"),
        # digits int() refuses, which used to escape as a ValueError
        ("f\u00b2", "bad product token 'f\u00b2'"),
        pytest.param("f" + "9" * 5000, f"bad product token 'f{'9' * 39}...'", id="f9x5000"),
    ],
)
def test_parse_refusals(text, message):
    # a bracketed text that is not a tree is refused as the product inside
    with pytest.raises(ParseError) as info:
        parse_tree(text)
    assert str(info.value) == message


def test_parse_spellings():
    # brackets and spaces that a tree text may carry
    for text, leaves in (("( f1 )", (1, 1)), ("(..)", (1, 1)), ("( (. .) . )", (2, 2, 1)), (" . ", (0,))):
        assert depths(parse_tree(text)) == leaves
    # a split index in other decimal digits is read as int() reads it
    assert parse_tree("f\u0661 f01") == parse_tree("f1 f1")


def test_compose_examples():
    t = compose(_elementary(1, 2), _elementary(1, 1))
    assert t.trees[0] == parse_tree("f1 f1")
    t = compose(_elementary(3, 3), compose(_elementary(1, 2), _elementary(1, 1)))
    assert t.trees[0] == parse_tree("f3 f1 f1")
    q = Forest(map(parse_tree, ("f1", ".", "f1 f1")))
    assert compose(_trivial(q.leaf_count), q) == q
    assert repr(q) == "Forest('f1;.;f1 f1')"
    with pytest.raises(ContractError):
        compose(_elementary(1, 3), _elementary(1, 1))


def test_compose_counts():
    rng = random.Random(7)
    pool = [t for n in range(1, 5) for t in enumerate_trees(n)]
    for _ in range(50):
        q = Forest([rng.choice(pool) for _ in range(rng.randint(1, 3))])
        p = Forest([rng.choice(pool) for _ in range(q.leaf_count)])
        c = compose(p, q)
        assert c.leaf_count == p.leaf_count
        assert c.root_count == q.root_count


def test_compose_associative_exhaustive_small():
    by_roots = {}
    for m in range(1, 5):
        for f in enumerate_forests(m):
            by_roots.setdefault(f.root_count, []).append(f)
    checked = 0
    for r in by_roots.values():
        for q in r:
            for p in by_roots.get(q.leaf_count, []):
                for o in by_roots.get(p.leaf_count, []):
                    assert compose(o, compose(p, q)) == compose(compose(o, p), q)
                    checked += 1
    assert checked > 100


def test_compose_associative_random_large():
    rng = random.Random(11)
    pool = [t for n in range(1, 5) for t in enumerate_trees(n)]
    for _ in range(30):
        q = Forest([rng.choice(pool) for _ in range(rng.randint(1, 3))])
        p = Forest([rng.choice(pool) for _ in range(q.leaf_count)])
        o = Forest([rng.choice(pool) for _ in range(p.leaf_count)])
        assert compose(o, compose(p, q)) == compose(compose(o, p), q)


def test_complete_tree():
    assert complete_tree(0) is LEAF
    assert complete_tree(1) == caret(LEAF, LEAF)
    assert complete_tree(2) == parse_tree("f3 f1 f1")
    t = complete_tree(4)
    assert t.leaf_count == 16 and _depth(t) == 4


def test_decompose_recompose_round_trip():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert parse_tree(" ".join(f"f{i}" for i in reversed(split_sequence(t))) or ".") == t
            # same thing through forest composition
            f = _trivial(1)
            for i in split_sequence(t):
                f = compose(_elementary(i, f.leaf_count), f)
            assert f.trees[0] == t
    with pytest.raises(ParseError, match="^split index 3 exceeds current leaf count 2$"):
        parse_tree("f3 f1")


def test_leaf_cells_tile_and_rebuild():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            cells = depths(t).cells()
            assert len(cells) == n
            # each cell starts where the previous one ends; the last ends at 1
            end = Fraction(0)
            for index, depth in cells:
                assert Fraction(index, 2**depth) == end
                end = Fraction(index + 1, 2**depth)
            assert end == 1
            assert tree_from_depths([d for _, d in cells]) == t
    assert depths(parse_tree("f1 f1")).cells() == [(0, 2), (1, 2), (1, 1)]
    for bad in ([], [1], [0, 0], [1, 1, 1], [2, 1, 2], [1, 2]):
        with pytest.raises(ContractError):
            tree_from_depths(bad)


def test_deep_product_parses_without_recursion():
    t = parse_tree(" ".join(["f1"] * 2000))
    assert t.leaf_count == 2001 and _depth(t) == 2000


def test_deep_trees_format_and_parse_without_recursion():
    left = " ".join(["f1"] * 2000)
    right = " ".join(f"f{i}" for i in range(2000, 0, -1))
    for text in (left, right):
        t = parse_tree(text)
        assert _depth(t) == 2000
        assert format_tree(t) == text
        assert parse_tree(format_tree(t, "parens")) == t
    deep = "(" * 1200 + ". .)" + " .)" * 1199
    t = parse_tree(deep)
    assert _depth(t) == 1200 and t.leaf_count == 1201
    assert format_tree(t, "parens") == deep
    assert parse_tree(format_tree(t)) == t


def test_equal_trees_compare_by_leaf_depths():
    # trees are plain values: equality and hashing read the leaf depths
    assert "__eq__" in vars(Tree) and "__hash__" in vars(Tree)
    assert Tree.__slots__ == ("left", "right", "leaf_count")
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert parse_tree(format_tree(t, "product")) == t
            assert parse_tree(format_tree(t, "parens")) == t
            rebuilt = tree_from_depths([d for _, d in depths(t).cells()])
            assert rebuilt == t and hash(rebuilt) == hash(t)
            for entry in subrooted_trees(t):
                assert graft(entry.tree, residual_forest(t, entry.tree)) == t
                assert merge_trees(depths(entry.tree), depths(t)) == depths(t)
                assert merge_trees(depths(t), depths(entry.tree)) == depths(t)
            if t is not LEAF:
                left, right = residual_forest(t, caret(LEAF, LEAF)).trees
                assert left == t.left and right == t.right
                # a separately built caret of the same shape is a new node
                # that compares and hashes equal
                built = Tree(left, right)
                assert built is not t and built == t and hash(built) == hash(t) and {built: n}[t] == n
        # trees of different shapes differ
        assert len(set(enumerate_trees(n))) == catalan(n - 1)
    # deep combs built by different routes compare and hash without recursion
    comb = LEAF
    for _ in range(3000):
        comb = caret(comb, LEAF)
    assert parse_tree(" ".join(["f1"] * 3000)) == comb
    assert {comb: 1}[tree_from_depths([3000] + list(range(3000, 0, -1)))] == 1
    assert parse_tree(" ".join(f"f{i}" for i in range(3000, 0, -1))) == parse_tree("(. " * 3000 + "." + ")" * 3000)


# ---------------------------------------------------------------------------
# path words

def test_path_words_examples():
    f = compose(_elementary(1, 4), compose(_elementary(3, 3), _elementary(1, 2)))
    assert path_words(f) == ("aa", "ba", "b", "a", "b")
    assert path_words(caret(LEAF, LEAF)) == ("a", "b")
    assert path_words(_trivial(4)) == ("", "", "", "")


def test_path_words_pairwise_distinct():
    for n in range(1, 11):
        for t in enumerate_trees(n):
            words = path_words(t)
            assert len(set(words)) == n


# ---------------------------------------------------------------------------
# prefixes

def test_subrooted_trivial():
    entries = subrooted_trees(LEAF)
    assert len(entries) == 1
    assert entries[0].tree is LEAF
    assert entries[0].inner_leaves == 0
    assert entries[0].words == ("",)


def test_subrooted_caret():
    entries = subrooted_trees(caret(LEAF, LEAF))
    assert [(e.tree.leaf_count, e.inner_leaves, e.words) for e in entries] == [
        (1, 1, ("a", "b")),
        (2, 0, ("", "")),
    ]


def test_subrooted_full_tree():
    t = parse_tree("f3 f1 f1")
    entries = subrooted_trees(t)
    assert [e.tree.leaf_count for e in entries] == [1, 2, 3, 3, 4]
    data = {e.words: e.inner_leaves for e in entries}
    assert data == {
        ("aa", "ba", "ab", "bb"): 1,
        ("a", "b", "a", "b"): 2,
        ("a", "b", "", ""): 1,
        ("", "", "a", "b"): 1,
        ("", "", "", ""): 0,
    }


def test_subrooted_residual_properties():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            for entry in subrooted_trees(t):
                f = residual_forest(t, entry.tree)
                assert compose(f, Forest((entry.tree,))).trees[0] == t
                assert entry.inner_leaves == sum(1 for u in f.trees if u is not LEAF)
                pure_a = [w for w in entry.words if w and set(w) == {"a"}]
                assert len(pure_a) == entry.inner_leaves


# recursive reference walks, one call per tree node, for the leaf-cell versions

def _words_by_recursion(t):
    if t is LEAF:
        return ("",)
    return tuple(w + "a" for w in _words_by_recursion(t.left)) + tuple(
        w + "b" for w in _words_by_recursion(t.right)
    )


def _prefixes_by_recursion(t):
    items = [(LEAF, (t,))]
    if t is not LEAF:
        for zl, rl in _prefixes_by_recursion(t.left):
            for zr, rr in _prefixes_by_recursion(t.right):
                items.append((caret(zl, zr), rl + rr))
    return items


def _subrooted_by_recursion(t):
    out = []
    for z, residual in sorted(_prefixes_by_recursion(t), key=lambda zr: zr[0].leaf_count):
        words = tuple(w for tree in residual for w in _words_by_recursion(tree))
        out.append((z, sum(1 for tree in residual if tree is not LEAF), words))
    return out


def _caret_positions_by_recursion(t):
    out = []

    def go(node, off):
        if node is LEAF:
            return 1
        nl = go(node.left, off)
        nr = go(node.right, off + nl)
        if node.left is LEAF and node.right is LEAF:
            out.append(off + 1)
        return nl + nr

    go(t, 0)
    return tuple(out)


def _collapse_by_recursion(t, i):
    def go(node, k):
        if node is LEAF:
            raise ContractError(f"collapse_caret: leaves {i},{i + 1} are not siblings")
        nl = node.left.leaf_count
        if node.left is LEAF and node.right is LEAF and k == 1:
            return LEAF
        if k + 1 <= nl:
            return caret(go(node.left, k), node.right)
        if k > nl:
            return caret(node.left, go(node.right, k - nl))
        raise ContractError(f"collapse_caret: leaves {i},{i + 1} are not siblings")

    if not 1 <= i < t.leaf_count:
        raise ContractError(f"collapse_caret: leaf {i} out of range")
    return go(t, i)


def _outcome(f, *args):
    try:
        return f(*args)
    except ContractError as exc:
        return str(exc)


def test_leaf_cell_walks_match_recursive_references():
    checked = 0
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert path_words(t) == _words_by_recursion(t)
            assert caret_positions(t) == _caret_positions_by_recursion(t)
            for i in range(0, n + 1):
                assert _outcome(collapse_caret, t, i) == _outcome(_collapse_by_recursion, t, i)
            entries = subrooted_trees(t)
            reference = _subrooted_by_recursion(t)
            assert len(entries) == len(reference)
            for entry, (z, inner, words) in zip(entries, reference):
                assert entry.tree == z and entry.inner_leaves == inner and entry.words == words
            assert _prefix_table_size(t) == sum(len(e.words) + sum(map(len, e.words)) for e in entries)
            checked += 1
    assert checked == sum(catalan(n - 1) for n in range(1, 9))
    forests = [f for m in range(1, 6) for f in enumerate_forests(m)]
    for f in forests:
        assert path_words(f) == tuple(w for t in f.trees for w in _words_by_recursion(t))


def test_deep_comb_walks_without_recursion():
    left = right = LEAF
    for _ in range(2000):
        left, right = caret(left, LEAF), caret(LEAF, right)
    assert path_words(left) == ("a" * 2000,) + tuple("b" + "a" * k for k in range(1999, -1, -1))
    assert path_words(right) == tuple("a" + "b" * k for k in range(2000)) + ("b" * 2000,)
    assert caret_positions(left) == (1,) and caret_positions(right) == (2000,)
    assert collapse_caret(left, 1) == left.left and collapse_caret(right, 2000) == right.right
    with pytest.raises(ContractError, match="not siblings"):
        collapse_caret(left, 2)
    # equality and hashing read the leaf depths by the one iterative walk
    comb = LEAF
    for _ in range(99_999):
        comb = caret(comb, LEAF)
    other = tree_from_depths([99_999] + list(range(99_999, 0, -1)))
    assert comb is not other and comb == other and hash(comb) == hash(other)
    assert comb != tree_from_depths(list(range(1, 100_000)) + [99_999])


def test_prefix_table_refused_by_size():
    from forestrep.thompson import family_gn, family_kn

    assert _prefix_table_size(tree_from_depths(family_kn(1).range)) == 982
    assert _prefix_table_size(tree_from_depths(family_kn(2).domain)) == 98_308
    g_100 = tree_from_depths(family_gn(100).range)
    assert _prefix_table_size(g_100) == PREFIX_TABLE_CAP
    assert len(subrooted_trees.__wrapped__(g_100)) == 10_001  # at the cap: built, not cached
    comb = LEAF
    for _ in range(2000):
        comb = caret(comb, LEAF)
    for t, size in ((tree_from_depths(family_kn(3).range), 491_736_872), (comb, 1_341_339_001)):
        with pytest.raises(ContractError, match=f"table of {size} entries, over the cap"):
            subrooted_trees(t)


def _merge_by_co_walk(u: Tree, v: Tree) -> Tree:
    """Reference merge on trees: walk both trees together and, where one has a
    leaf, take the other's subtree there."""
    return _assemble(((b if a is LEAF else a, d) for a, b, d in _co_walk(u, v)), caret)


def _split_tree(rng, n: int) -> Tree:
    return parse_tree(" ".join(reversed([f"f{rng.randint(1, k)}" for k in range(1, n)])) or ".")


def test_merge_trees_matches_tree_merge():
    trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
    for u in trees:
        for v in trees:
            merged = merge_trees(depths(u), depths(v))
            assert type(merged) is Depths and merged == depths(_merge_by_co_walk(u, v))
    rng = random.Random(7)
    for n in (50, 100, 200, 400, 600):
        for _ in range(4):
            u, v = _split_tree(rng, n), _split_tree(rng, rng.randint(50, 600))
            assert merge_trees(depths(u), depths(v)) == depths(_merge_by_co_walk(u, v))
    # 2,000-leaf combs, against each other and against a seeded tree
    left = parse_tree(" ".join(["f1"] * 1999))
    right = parse_tree(" ".join(f"f{i}" for i in range(1999, 0, -1)))
    seeded = _split_tree(rng, 2000)
    for u in (left, right, seeded):
        for v in (left, right, seeded):
            assert merge_trees(depths(u), depths(v)) == depths(_merge_by_co_walk(u, v))


def _cells_by_walk(t) -> list[tuple[int, int]]:
    """(index, depth) of each leaf cell, by walking the nodes: a caret's
    children halve its cell."""
    out, stack = [], [(t, 0, 0)]
    while stack:
        node, index, depth = stack.pop()
        if node is LEAF:
            out.append((index, depth))
        else:
            stack += [(node.right, 2 * index + 1, depth + 1), (node.left, 2 * index, depth + 1)]
    return out


def test_depths_cells_match_leaf_cells():
    trees = [t for n in range(1, 9) for t in enumerate_trees(n)]
    rng = random.Random(9)
    trees += [_split_tree(rng, n) for n in (50, 200, 600)]
    trees += [parse_tree(" ".join(["f1"] * 1999)), parse_tree(" ".join(f"f{i}" for i in range(1999, 0, -1)))]
    for t in trees:
        d = depths(t)
        assert d.leaf_count == t.leaf_count and tree_from_depths(d) == t
        assert d.cells() == _cells_by_walk(t)


def test_merge_and_residual():
    u = parse_tree("f1 f1")
    v = parse_tree("f2 f1")
    w = tree_from_depths(merge_trees(depths(u), depths(v)))
    assert w == parse_tree("f3 f1 f1")
    assert graft(u, residual_forest(w, u)) == w
    assert graft(v, residual_forest(w, v)) == w
    with pytest.raises(ContractError):
        residual_forest(u, v)


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_trees_counts():
    for n in range(1, 9):
        assert len(enumerate_trees(n)) == catalan(n - 1)
    assert enumerate_trees(1) == (LEAF,)
    assert len(enumerate_trees(3)) == 2
    assert len(enumerate_trees(6)) == 42


def test_enumerate_trees_bound():
    with pytest.raises(ContractError):
        enumerate_trees(13)
    with pytest.raises(ContractError, match="^enumerate_depths: leaf count 13 exceeds bound 12$"):
        enumerate_depths(13)


# recursive references for the enumeration, in the order the loops must keep

def _trees_by_recursion(n):
    if n == 1:
        return (LEAF,)
    return tuple(
        caret(left, right)
        for k in range(1, n)
        for left in _trees_by_recursion(k)
        for right in _trees_by_recursion(n - k)
    )


def _forest_shapes_by_recursion(m):
    out = []
    for k in range(1, m + 1):
        for first in _trees_by_recursion(k):
            if k == m:
                out.append((first,))
            else:
                out.extend((first,) + rest for rest in _forest_shapes_by_recursion(m - k))
    return out


def test_enumeration_matches_recursive_order():
    for n in range(1, 12):
        expected = _trees_by_recursion(n)
        got = enumerate_trees(n)
        assert len(got) == len(expected)
        assert list(got) == list(expected)
        # the same enumeration joins leaf depths in the same order
        assert list(enumerate_depths(n)) == [depths(t) for t in got]
    for m in range(1, 10):
        expected = _forest_shapes_by_recursion(m)
        got = enumerate_forests(m)
        assert len(got) == len(expected)
        assert all(
            len(f.trees) == len(shape) and all(a == b for a, b in zip(f.trees, shape))
            for f, shape in zip(got, expected)
        )


def test_tree_modules_do_not_recurse():
    names = [info.name for info in pkgutil.iter_modules(forestrep.__path__)]
    assert {"trees", "ring", "coefficients", "shiftrep", "oracles", "cli"} <= set(names)
    for module in [forestrep] + [importlib.import_module(f"forestrep.{name}") for name in names]:
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.FunctionDef):
                called = {
                    call.func.id
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                }
                assert node.name not in called, f"{module.__name__}.{node.name} recurses"


def test_enumerate_forests_counts():
    # forests with m leaves are counted by the next Catalan number
    for m in range(1, 7):
        assert len(enumerate_forests(m)) == catalan(m)
        for f in enumerate_forests(m):
            assert f.leaf_count == m
