"""Binary planar trees and forests.

A tree is either the single leaf ``LEAF`` or a caret joining two subtrees,
a plain value held by no table: trees are equal when their leaf depths are.
Group elements hold a tree as its leaf depths, left to right (``Depths``,
read off a tree by the one walk ``depths``), from which the leaf cells
(``Depths.cells``) and the merge of two trees are computed.
A forest is an ordered sequence of trees; its roots are counted left to
right and its leaves are numbered globally 1..m across the trees.  Forests
compose by vertical stacking: in ``compose(p, q)`` the i-th root of ``p`` is
attached to the i-th leaf of ``q``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import ContractError, ParseError, _echo, _integer

ENUM_LEAF_CAP = 12
# the prefix table of either tree of g_100 (200 leaves): the reference
# oracles.enumerated_phi(g_100) takes about 0.5 s and a 51 MiB peak on a
# shared 2-vCPU VM; phi_alpha itself lists no prefixes
PREFIX_TABLE_CAP = 36_330_498


class Tree:
    """Immutable rooted binary tree node, compared by value: two trees are
    equal, and hash alike, exactly when their leaf depths are equal.  A node
    is a leaf exactly when it is ``LEAF``."""

    __slots__ = ("left", "right", "leaf_count")

    def __init__(self, left: "Tree", right: "Tree"):
        self.left, self.right = left, right
        self.leaf_count = left.leaf_count + right.leaf_count

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self is other or (self.leaf_count == other.leaf_count and depths(self) == depths(other))

    def __hash__(self):
        return hash(depths(self))

    def __repr__(self):
        return f"Tree({format_tree(self)!r})"


# the one leaf: a caret has two children, so no other leaf exists
LEAF = object.__new__(Tree)
LEAF.left = LEAF.right = None
LEAF.leaf_count = 1

caret = Tree  # the builder's name for a caret joining two subtrees


class Depths(tuple):
    """The leaf depths of a tree, left to right: the form in which group
    elements hold their trees.  Equal trees have equal depth tuples."""

    __slots__ = ()

    @property
    def leaf_count(self) -> int:
        return len(self)

    def cells(self) -> list[tuple[int, int]]:
        """(i, d) of each leaf's dyadic cell [i / 2^d, (i + 1) / 2^d), in leaf
        order: the cells tile [0, 1), each starting where the last one ends."""
        out = []
        end = prev = 0  # where the last cell ends, as an index at depth prev
        for d in self:
            start = end << (d - prev) if d >= prev else end >> (prev - d)
            out.append((start, d))
            end, prev = start + 1, d
        return out


def depths(t: Tree) -> Depths:
    """The leaf depths of t, left to right, without recursion."""
    out: list[int] = []
    stack = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        # walk down the left spine, leaving each right child for later
        while node is not LEAF:
            depth += 1
            stack.append((node.right, depth))
            node = node.left
        out.append(depth)
    return Depths(out)


class Forest:
    """Ordered sequence of trees; a morphism from its roots to its leaves."""

    __slots__ = ("trees", "leaf_count")

    def __init__(self, trees):
        trees = tuple(trees)
        if not trees:
            raise ContractError("a forest needs at least one root")
        self.trees = trees
        self.leaf_count = sum(t.leaf_count for t in trees)

    @property
    def root_count(self) -> int:
        return len(self.trees)

    def __eq__(self, other):
        if not isinstance(other, Forest):
            return NotImplemented
        return self.trees == other.trees

    def __hash__(self):
        return hash(self.trees)

    def __repr__(self):
        return f"Forest({';'.join(map(format_tree, self.trees))!r})"


def compose(p: Forest, q: Forest) -> Forest:
    """Stack p on top of q: root i of p is attached to leaf i of q."""
    if p.root_count != q.leaf_count:
        raise ContractError(
            f"compose: {p.root_count} roots on top cannot attach to {q.leaf_count} leaves"
        )
    out, start = [], 0
    for t in q.trees:
        out.append(fold_tree(t, p.trees[start : start + t.leaf_count], caret))
        start += t.leaf_count
    return Forest(out)


def graft(t: Tree, f: Forest) -> Tree:
    """Attach the trees of f at the leaves of t, left to right."""
    return compose(f, Forest((t,))).trees[0]


def complete_tree(n: int) -> Tree:
    """The balanced tree with 2^n leaves, all at depth n."""
    if _integer("complete_tree", "level", n) < 0:
        raise ContractError("complete_tree: level must be >= 0")
    t = LEAF
    for _ in range(n):
        t = caret(t, t)
    return t


def caret_positions(t: Tree | Depths) -> tuple[int, ...]:
    """Leaf indices i such that leaves i and i+1 of a Tree or leaf depths are
    one caret's children: their cells have one depth, the first an even index."""
    cells = (t if isinstance(t, Depths) else depths(t)).cells()
    return tuple(
        k for k, ((index, depth), (_, other)) in enumerate(zip(cells, cells[1:]), 1)
        if depth == other and index % 2 == 0
    )


def collapse_caret(t: Tree, i: int) -> Tree:
    """Replace the caret whose leaves are (i, i+1) by a single leaf."""
    if not 1 <= i < t.leaf_count:
        raise ContractError(f"collapse_caret: leaf {i} out of range")
    if i not in caret_positions(t):
        raise ContractError(f"collapse_caret: leaves {i},{i + 1} are not siblings")
    leaves = list(depths(t))
    leaves[i - 1 : i + 1] = [leaves[i] - 1]
    return tree_from_depths(leaves)


def split_sequence(t: Tree) -> tuple[int, ...]:
    """Leaf indices that rebuild t from a single leaf, in order of application.

    In preorder the carets come sorted by their leftmost leaf, and leaf k is
    the leftmost leaf of the carets on its final run of left turns.
    """
    return _splits(depths(t).cells())


def _splits(cells) -> tuple[int, ...]:
    out: list[int] = []
    for k, (index, depth) in enumerate(cells, 1):
        out.extend([k] * left_run(index, depth))
    return tuple(out)


def left_run(index: int, depth: int) -> int:
    """Number of left turns that end the path to leaf cell (index, depth):
    the trailing zero bits of index, or the whole depth when index is 0."""
    return (index & -index).bit_length() - 1 if index else depth


def tree_from_depths(depths) -> Tree:
    """The tree whose leaves, left to right, sit at the given depths."""
    return _assemble(((LEAF, d) for d in depths), caret)


def fold_tree(t: Tree, leaves, join):
    """Fold t bottom-up without recursion: leaf k, left to right, holds
    leaves[k] and each caret holds join(left value, right value).  With
    join=caret this hangs the given trees under the leaves of t."""
    return _assemble(zip(leaves, depths(t)), join)


def _assemble(items, join):
    """The tree whose subtrees at the given depths cover its leaves left to
    right, from (subtree, depth) pieces; another join folds values instead.

    Shift-reduce: two finished subtrees on top of the stack with equal root
    depth are siblings, because the subtrees on the stack cover a prefix of
    [0, 1) by dyadic cells of strictly decreasing size.
    """
    stack: list[tuple] = []
    for node, d in items:
        while stack and stack[-1][1] == d:
            node = join(stack.pop()[0], node)
            d -= 1
        stack.append((node, d))
    if len(stack) != 1 or stack[0][1] != 0:
        raise ContractError("tree_from_depths: not the leaf depths of a tree")
    return stack[0][0]


def _co_walk(u: Tree, v: Tree) -> list[tuple[Tree, Tree, int]]:
    """(u node, v node, depth), left to right, at each position where either
    tree has a leaf, below carets of both trees."""
    out = []
    stack = [(u, v, 0)]
    while stack:
        a, b, d = stack.pop()
        while not (a is LEAF or b is LEAF):
            d += 1
            stack.append((a.right, b.right, d))
            a, b = a.left, b.left
        out.append((a, b, d))
    return out


# ---------------------------------------------------------------------------
# text format
#
# Two interchangeable forms, both round-tripping exactly:
#   "."           single leaf
#   "(L R)"       caret with subtree texts L and R
#   "f3 f1 f1"    product form, read right to left; each fI splits the
#                 current I-th leaf, starting from a single leaf.

def parse_tree(text: str) -> Tree:
    return tree_from_depths(parse_depths(text))


def parse_depths(text: str) -> Depths:
    """The leaf depths of a tree text in either form; a bracketed product
    such as "(f3 f1 f1)" is told from the parens form by its first token."""
    text = text.strip()
    if not text:
        raise ParseError("empty tree text")
    if text == ".":
        return Depths((0,))
    if not text.startswith("("):
        return _product_depths(text)
    inner = text[1:-1].strip() if text.endswith(")") else ""
    if inner and inner[0] not in "(.":
        return _product_depths(inner)
    try:
        return _parens_depths(text)
    except ParseError:
        if not inner:
            raise
    # refused as a product: its first token is no split
    return _product_depths(inner)


def _parens_depths(text: str) -> Depths:
    # a leaf's depth is the number of '(' still open around it
    tokens = iter([(i, ch) for i, ch in enumerate(text) if not ch.isspace()] + [(len(text), "")])
    out: list[int] = []
    pending: list[bool] = []  # per unclosed '(', whether its left child is parsed
    while True:
        pos, ch = next(tokens)
        if ch == "(":
            pending.append(False)
            continue
        if not ch:
            raise ParseError(f"unexpected end of tree text at position {pos}")
        if ch != ".":
            raise ParseError(f"unexpected character {ch!r} at position {pos}")
        out.append(len(pending))
        while pending and pending[-1]:
            pos, ch = next(tokens)
            if ch != ")":
                raise ParseError(f"expected ')' at position {pos}")
            pending.pop()
        if not pending:
            break
        pending[-1] = True
    pos, ch = next(tokens)
    if ch:
        raise ParseError(f"trailing text at position {pos}")
    return Depths(out)


def _product_depths(text: str) -> Depths:
    indices = [_split_index(tok) for tok in text.split()]
    out = [0]
    for i in reversed(indices):
        if not 1 <= i <= len(out):
            raise ParseError(f"split index {i} exceeds current leaf count {len(out)}")
        d = out[i - 1] + 1
        out[i - 1 : i] = [d, d]
    return Depths(out)


def _split_index(tok: str) -> int:
    try:
        if tok[0] == "f" and tok[1:].isdecimal():
            return int(tok[1:])
    except ValueError:  # int() takes at most 4,300 digits
        pass
    raise ParseError(f"bad product token {_echo(tok)}")


def format_tree(t: Tree | Depths, style: str = "product") -> str:
    """The text of a tree, given as a Tree or as its leaf depths."""
    cells = (t if isinstance(t, Depths) else depths(t)).cells()
    if style == "product":
        seq = _splits(cells)
        if not seq:
            return "."
        return " ".join(f"f{i}" for i in reversed(seq))
    if style == "parens":
        # a leaf opens one '(' per caret it is the leftmost leaf of and
        # closes one ')' per caret it is the rightmost leaf of
        return " ".join(
            "(" * left_run(index, depth) + "." + ")" * left_run(index + 1, depth)
            for index, depth in cells
        )
    raise ValueError(f"unknown style {style!r}")


# ---------------------------------------------------------------------------
# prefixes (subrooted trees)

class Subrooted(NamedTuple):
    """A prefix z of a tree t together with its residual data.

    ``inner_leaves`` counts the leaves of z that are internal nodes of t,
    i.e. the nontrivial trees of the forest f with compose(f, z) = t.
    ``words`` holds, for each leaf of t, the path word inside that residual
    forest (empty when the leaf already belongs to z).
    """

    tree: Tree
    inner_leaves: int
    words: tuple[str, ...]


@lru_cache(maxsize=None)
def subrooted_trees(t: Tree) -> tuple[Subrooted, ...]:
    """All prefixes of t (subtrees sharing its root), trivial prefix first,
    then by increasing leaf count with ties broken by the left subtree.  A
    table of more than PREFIX_TABLE_CAP entries is refused before it is built."""
    size = _prefix_table_size(t)
    if size > PREFIX_TABLE_CAP:
        raise ContractError(
            f"subrooted_trees: the prefixes of a {t.leaf_count}-leaf tree make a table"
            f" of {size} entries, over the cap of {PREFIX_TABLE_CAP}"
        )
    raw = sorted(_prefixes(t), key=lambda entry: entry[0].leaf_count)
    return tuple(Subrooted(*entry) for entry in raw)


def _prefixes(t: Tree) -> list[tuple[Tree, int, tuple[str, ...]]]:
    """(prefix, inner leaves, residual words) for every prefix of t: the
    trivial prefix, then caret(zl, zr) with zl the outer loop."""
    return fold_tree(t, [[(LEAF, 0, ("",))]] * t.leaf_count, _join_prefixes)


def _join_prefixes(left, right):
    # below the trivial prefix every word gains the turn taken at this caret
    words = tuple(w + "a" for w in left[0][2]) + tuple(w + "b" for w in right[0][2])
    return [(LEAF, 1, words)] + [
        (caret(zl, zr), il + ir, wl + wr) for zl, il, wl in left for zr, ir, wr in right
    ]


def _prefix_table_size(t: Tree) -> int:
    """Entries of subrooted_trees(t), a word per leaf per prefix plus their
    letters, from a fold of (prefixes, entries, leaves, leaf depth sum): the
    trivial prefix holds the full paths, and caret(zl, zr) pairs each prefix
    of one side with every prefix of the other."""

    def join(left, right):
        (pl, sl, nl, dl), (pr, sr, nr, dr) = left, right
        leaves = nl + nr
        depths = dl + dr + leaves
        return 1 + pl * pr, leaves + depths + sl * pr + sr * pl, leaves, depths

    return fold_tree(t, [(1, 1, 1, 0)] * t.leaf_count, join)[1]


def residual_forest(w: Tree, z: Tree) -> Forest:
    """The forest f with compose(f, z) = w; z must be a prefix of w."""
    pairs = _co_walk(w, z)
    if any(b is not LEAF for _, b, _ in pairs):
        raise ContractError("residual_forest: second tree is not a prefix of the first")
    return Forest(a for a, _, _ in pairs)


def merge_trees(u: Depths, v: Depths) -> Depths:
    """Least common refinement: the leaf depths of the smallest tree with both
    trees as prefixes.

    The two leaf sequences are read side by side, each next leaf starting
    where the last leaf of the merge ends.  Two such leaves at one depth are
    one leaf of the merge.  Otherwise the shallower leaf is a node of the
    other tree, whose leaves below that node go to the merge.
    """
    out: list[int] = []
    i = j = 0
    while i < len(u):
        a, b = u[i], v[j]
        if a == b:
            out.append(a)
            i += 1
            j += 1
        elif a > b:
            k = _subtree_end(u, i, b)
            out += u[i:k]
            i, j = k, j + 1
        else:
            k = _subtree_end(v, j, a)
            out += v[j:k]
            i, j = i + 1, k
    return Depths(out)


def leaves_below(w: Depths, prefix: Depths) -> list[int]:
    """For each leaf of a prefix of the tree with leaf depths w, left to
    right, the end in w of the consecutive leaves below it."""
    ends = []
    k = 0
    for e in prefix:
        k = k + 1 if w[k] == e else _subtree_end(w, k, e)
        ends.append(k)
    return ends


def _subtree_end(leaves, k: int, depth: int) -> int:
    """The end of the leaves, from index k, below the node at the given depth
    where leaf k starts: ``need`` counts the cells of the current depth
    still to fill."""
    need = 1
    while need:
        d = leaves[k]
        k += 1
        if d > depth:
            need = (need << (d - depth)) - 1
            depth = d
        else:
            need -= 1 << (depth - d)
    return k


# ---------------------------------------------------------------------------
# enumeration

def enumerate_trees(n: int) -> tuple[Tree, ...]:
    """All trees with n leaves in a fixed deterministic order."""
    return _trees_by_size("enumerate_trees", n, LEAF, caret)[n]


def enumerate_depths(n: int) -> tuple[Depths, ...]:
    """The leaf depths of enumerate_trees(n), in order, with no tree built."""
    return _trees_by_size("enumerate_depths", n, Depths((0,)), lambda u, v: Depths(map((1).__add__, u + v)))[n]


def _trees_by_size(caller: str, n: int, leaf, join) -> list[tuple]:
    """The trees with k leaves for k = 0..n, none for k = 0, built from leaf by
    join(left, right), ordered by the left leaf count, then left, then right."""
    if _integer(caller, "leaf count", n) < 1:
        raise ContractError(f"{caller}: leaf count must be >= 1")
    if n > ENUM_LEAF_CAP:
        raise ContractError(f"{caller}: leaf count {n} exceeds bound {ENUM_LEAF_CAP}")
    out: list[tuple] = [(), (leaf,)]
    for size in range(2, n + 1):
        out.append(
            tuple(
                join(left, right)
                for k in range(1, size)
                for left in out[k]
                for right in out[size - k]
            )
        )
    return out
