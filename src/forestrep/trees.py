"""Binary planar trees and forests.

A tree is either the single leaf ``LEAF`` or a caret joining two subtrees.
A forest is an ordered sequence of trees; its roots are counted left to
right and its leaves are numbered globally 1..m across the trees.  Forests
compose by vertical stacking: in ``compose(p, q)`` the i-th root of ``p`` is
attached to the i-th leaf of ``q``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import ContractError, ParseError

ENUM_LEAF_CAP = 12
# the prefix table of either tree of g_100 (200 leaves): the reference
# oracles.enumerated_phi(g_100) takes about 0.5 s and a 51 MiB peak on a
# shared 2-vCPU VM; phi_alpha itself lists no prefixes
PREFIX_TABLE_CAP = 36_330_498


class Tree:
    """Immutable rooted binary tree node.

    Build trees only from the module-level ``LEAF`` constant and ``caret``,
    which interns every caret: equal trees are the same object, so equality
    and hashing are by identity, and a node is a leaf exactly when it is
    ``LEAF``.
    """

    __slots__ = ("left", "right", "leaf_count")

    def __init__(self, left: "Tree", right: "Tree"):
        self.left = left
        self.right = right
        self.leaf_count = left.leaf_count + right.leaf_count

    def __repr__(self):
        return f"Tree({format_tree(self)!r})"


# the one leaf: a Tree is built with two children, so no other leaf exists
LEAF = object.__new__(Tree)
LEAF.left = LEAF.right = None
LEAF.leaf_count = 1

_CARETS: dict[tuple[Tree, Tree], Tree] = {}


def caret(left: Tree, right: Tree) -> Tree:
    node = _CARETS.get((left, right))
    if node is None:
        # setdefault is atomic, so racing threads still get one node per key
        node = _CARETS.setdefault((left, right), Tree(left, right))
    return node


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
    if n < 0:
        raise ContractError("complete_tree: level must be >= 0")
    t = LEAF
    for _ in range(n):
        t = caret(t, t)
    return t


def caret_positions(t: Tree) -> tuple[int, ...]:
    """Leaf indices i such that leaves i and i+1 are the children of one caret:
    their cells have one depth and the first has an even index."""
    cells = leaf_cells(t)
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
    depths = [d for _, d in leaf_cells(t)]
    depths[i - 1 : i + 1] = [depths[i] - 1]
    return tree_from_depths(depths)


def split_sequence(t: Tree) -> tuple[int, ...]:
    """Leaf indices that rebuild t from a single leaf, in order of application.

    In preorder the carets come sorted by their leftmost leaf, and leaf k is
    the leftmost leaf of the carets on its final run of left turns.
    """
    out: list[int] = []
    for k, (index, depth) in enumerate(leaf_cells(t), 1):
        out.extend([k] * left_run(index, depth))
    return tuple(out)


def tree_from_splits(indices) -> Tree:
    """Rebuild a tree by splitting leaves in the given order."""
    depths = [0]
    for i in indices:
        if not 1 <= i <= len(depths):
            raise ContractError(f"tree_from_splits: leaf {i} out of range 1..{len(depths)}")
        d = depths[i - 1] + 1
        depths[i - 1 : i] = [d, d]
    return tree_from_depths(depths)


def leaf_cells(t: Tree) -> list[tuple[int, int]]:
    """(index, depth) of each leaf's standard dyadic cell, in leaf order; cell
    (i, d) is [i / 2^d, (i + 1) / 2^d) and the cells tile [0, 1)."""
    out: list[tuple[int, int]] = []
    stack = [(t, 0, 0)]
    while stack:
        node, index, depth = stack.pop()
        # walk down the left spine, leaving each right child for later
        while node is not LEAF:
            index, depth = 2 * index, depth + 1
            stack.append((node.right, index + 1, depth))
            node = node.left
        out.append((index, depth))
    return out


def left_run(index: int, depth: int) -> int:
    """Number of left turns that end the path to leaf cell (index, depth):
    the trailing zero bits of index, or the whole depth when index is 0."""
    return (index & -index).bit_length() - 1 if index else depth


def moved_below(w_cells, cells, onto):
    """For each cell (c, e) of a prefix of the tree whose leaf cells are
    w_cells, the leaf cells below it moved into the cell onto[k] = (c2, e2):
    leaf cell (i, d) at offset i - c * 2^(d-e) inside (c, e) goes to the same
    offset inside (c2, e2)."""
    out = []
    below = iter(w_cells)
    for (c, e), (c2, e2) in zip(cells, onto):
        group = []
        shift, lift, end = c2 - c, e2 - e, c + 1
        for i, d in below:
            r = d - e
            group.append((i + (shift << r), d + lift))
            # the last leaf below (c, e) ends where it ends
            if i + 1 == end << r:
                break
        out.append(group)
    return out


def tree_from_depths(depths) -> Tree:
    """The tree whose leaves, left to right, sit at the given depths."""
    return _assemble((LEAF, d) for d in depths)


def fold_tree(t: Tree, leaves, join):
    """Fold t bottom-up without recursion: leaf k, left to right, holds
    leaves[k] and each caret holds join(left value, right value).  With
    join=caret this hangs the given trees under the leaves of t."""
    return _assemble(zip(leaves, [d for _, d in leaf_cells(t)]), join)


def _assemble(items, join=caret):
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
    """(u node, v node, depth), left to right, at each position where u and v
    share a subtree or either has a leaf, below carets of both trees."""
    out = []
    stack = [(u, v, 0)]
    while stack:
        a, b, d = stack.pop()
        while not (a is LEAF or b is LEAF or a is b):
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
    text = text.strip()
    if not text:
        raise ParseError("empty tree text")
    if text == ".":
        return LEAF
    if text.startswith("("):
        try:
            return _parse_parens(text)
        except ParseError:
            inner = text[1:-1].strip() if text.endswith(")") else None
            if inner:
                return _parse_product(inner)
            raise
    return _parse_product(text)


def _parse_parens(text: str) -> Tree:
    tokens = iter([(i, ch) for i, ch in enumerate(text) if not ch.isspace()] + [(len(text), "")])
    pending: list[Tree | None] = []  # per unclosed '(' its left child, once parsed
    while True:
        pos, ch = next(tokens)
        if ch == "(":
            pending.append(None)
            continue
        if not ch:
            raise ParseError(f"unexpected end of tree text at position {pos}")
        if ch != ".":
            raise ParseError(f"unexpected character {ch!r} at position {pos}")
        node = LEAF
        while pending and pending[-1] is not None:
            pos, ch = next(tokens)
            if ch != ")":
                raise ParseError(f"expected ')' at position {pos}")
            node = caret(pending.pop(), node)
        if not pending:
            break
        pending[-1] = node
    pos, ch = next(tokens)
    if ch:
        raise ParseError(f"trailing text at position {pos}")
    return node


def _parse_product(text: str) -> Tree:
    tokens = text.split()
    indices = []
    for tok in tokens:
        if not tok.startswith("f") or not tok[1:].isdigit():
            raise ParseError(f"bad product token {tok!r}")
        indices.append(int(tok[1:]))
    count = 1
    for i in reversed(indices):
        if not 1 <= i <= count:
            raise ParseError(f"split index {i} exceeds current leaf count {count}")
        count += 1
    return tree_from_splits(reversed(indices))


def format_tree(t: Tree, style: str = "product") -> str:
    if style == "product":
        seq = split_sequence(t)
        if not seq:
            return "."
        return " ".join(f"f{i}" for i in reversed(seq))
    if style == "parens":
        # a leaf opens one '(' per caret it is the leftmost leaf of and
        # closes one ')' per caret it is the rightmost leaf of
        return " ".join(
            "(" * left_run(index, depth) + "." + ")" * left_run(index + 1, depth)
            for index, depth in leaf_cells(t)
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
    out: list[Tree] = []
    for a, b, _ in _co_walk(w, z):
        if not (b is LEAF or a is b):
            raise ContractError("residual_forest: second tree is not a prefix of the first")
        out += [a] if b is LEAF else [LEAF] * a.leaf_count
    return Forest(out)


def merge_trees(u: Tree, v: Tree) -> Tree:
    """Least common refinement: the smallest tree with both u and v as prefixes."""
    return _assemble((b if a is LEAF else a, d) for a, b, d in _co_walk(u, v))


# ---------------------------------------------------------------------------
# enumeration

def enumerate_trees(n: int) -> tuple[Tree, ...]:
    """All trees with n leaves in a fixed deterministic order."""
    return _trees_by_size("enumerate_trees", n)[n]


def _trees_by_size(caller: str, n: int) -> list[tuple[Tree, ...]]:
    """The trees with k leaves for k = 0..n, none for k = 0; caret(left, right)
    ordered by the left leaf count, then the left tree, then the right."""
    if n < 1:
        raise ContractError(f"{caller}: leaf count must be >= 1")
    if n > ENUM_LEAF_CAP:
        raise ContractError(f"{caller}: leaf count {n} exceeds bound {ENUM_LEAF_CAP}")
    out: list[tuple[Tree, ...]] = [(), (LEAF,)]
    for size in range(2, n + 1):
        out.append(
            tuple(
                caret(left, right)
                for k in range(1, size)
                for left in out[k]
                for right in out[size - k]
            )
        )
    return out
