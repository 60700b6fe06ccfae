"""Thompson's groups F, T, V as fraction groups of tree pairs.

An element is stored as a canonical reduced triple (domain tree, range tree,
leaf bijection): leaf k of the domain partition is sent affinely onto leaf
``perm(k)`` of the range partition.  Each tree is held as its leaf depths,
``trees.Depths``.  Reduction cancels matched carets, which is confluent, so
equality of elements is equality of the depth tuples and the bijection.

A product is written leaf by leaf from the depths of the merge of the two
inner trees and never builds a tree; ``carry`` moves a refinement's leaves
under an element's range, for ``multiply`` and for the shift overlap.  The
constructor and ``multiply`` reduce on leaf cells, the (index, depth) of
each leaf's dyadic interval, with one kernel, ``_reduce``.  The parsers
and the named families write leaf depths directly; a tree is read into
depths only by the public constructor, ``VElement(domain, range_, perm)``.
Text is written from the leaf depths.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .errors import ContractError, ParseError, _echo, _exact, _integer
from .trees import Depths, depths, format_tree, leaves_below, merge_trees, parse_depths

F = "F"
T_ONLY = "T_only"
V_ONLY = "V_only"

LEVEL_CAP = 8
# the largest g_n family_gn builds: 20,000 leaves take about 0.1 s and 37 MiB
# peak on a shared 2-vCPU VM, and the peak grows quadratically with n
# (n = 40,000: 0.8 s, 260 MiB; n = 100,000: 3.3 s, 1.4 GiB)
FAMILY_GN_CAP = 10_000
# the largest e of a dyadic literal n/2^e: 2^e takes e/8 bytes before any
# other check, and at e = 2^20 a value takes 0.04 s to evaluate and print
DYADIC_EXPONENT_CAP = 1 << 20


class Perm:
    """Permutation of {1..n}, stored as the image sequence and, zero-based,
    the inverse sequence."""

    __slots__ = ("images", "_inv")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if set(map(type, images)) - {int}:
            raise ContractError(f"Perm: images {images} must be ints")
        if sorted(images) != list(range(1, n + 1)):
            raise ContractError(f"Perm: {images} is not a bijection of 1..{n}")
        self.images = images
        self._inv = _inverse_index(images)

    @classmethod
    def _trusted(cls, images: tuple) -> "Perm":
        """The permutation of an image tuple already known to be a bijection
        of 1..n, taken as it is."""
        p = object.__new__(cls)
        p.images = images
        p._inv = _inverse_index(images)
        return p

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(1, n + 1))

    @classmethod
    def rotation(cls, n: int, c: int) -> "Perm":
        return cls(((k - 1 + c) % n) + 1 for k in range(1, n + 1))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def inv(self, k: int) -> int:
        return self._inv[k - 1] + 1

    def inverse(self) -> "Perm":
        p = object.__new__(Perm)
        p.images = tuple(map((1).__add__, self._inv))
        p._inv = tuple(map((-1).__add__, self.images))
        return p

    def theta(self, seq):
        """Rearrange a sequence: slot i of the result is seq[inverse(i)]."""
        if len(seq) != len(self._inv):
            raise ContractError("Perm.theta: length mismatch")
        return tuple(map(seq.__getitem__, self._inv))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    def rotation_offset(self) -> int | None:
        """The c with images[k] = ((k-1+c) mod n)+1, or None if not a rotation:
        the images run c+1, ..., n and then 1, ..., c."""
        n, c = self.size, self.images[0] - 1
        return c if self.images == (*range(c + 1, n + 1), *range(1, c + 1)) else None

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm({list(self.images)})"


def _inverse_index(images: tuple) -> tuple:
    """Zero-based inverse of a bijection of 1..n: slot v-1 holds k-1 where
    images[k-1] = v."""
    inv = [0] * len(images)
    for k, v in enumerate(images):
        inv[v - 1] = k
    return tuple(inv)


# ---------------------------------------------------------------------------
# group elements

class VElement:
    """Canonical reduced tree-pair-with-bijection form of an element of V,
    held as the leaf depths of both trees and the bijection; built from two
    ``trees.Tree`` and a bijection (the identity when None)."""

    __slots__ = ("domain", "range", "perm")

    def __init__(self, domain, range_, perm=None):
        g = self._from_depths(depths(domain), depths(range_), perm)
        self.domain, self.range, self.perm = g.domain, g.range, g.perm

    @classmethod
    def _from_depths(cls, domain: Depths, range_: Depths, perm=None) -> "VElement":
        """The element of two trees' leaf depths and a bijection, checked
        and reduced."""
        if perm is None:
            perm = Perm.identity(len(domain))
        elif not isinstance(perm, Perm):
            perm = Perm(perm)
        if len(domain) != len(range_):
            raise ContractError("VElement: domain and range must have equal leaf counts")
        if perm.size != len(domain):
            raise ContractError("VElement: bijection must act on the leaves")
        return cls._from_reduced(*_reduce(domain, range_, perm))

    @classmethod
    def _from_reduced(cls, domain: Depths, range_: Depths, perm: Perm) -> "VElement":
        """The element of a triple already known to be valid and reduced,
        taken as it is: neither checked nor reduced again."""
        g = object.__new__(cls)
        g.domain, g.range, g.perm = domain, range_, perm
        return g

    @classmethod
    def identity(cls) -> "VElement":
        return cls._from_depths(Depths((0,)), Depths((0,)))

    @property
    def leaf_count(self) -> int:
        return len(self.domain)

    def is_identity(self) -> bool:
        return len(self.domain) == 1

    def __eq__(self, other):
        if not isinstance(other, VElement):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.range == other.range
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.domain, self.range, self.perm))

    def __mul__(self, other: "VElement") -> "VElement":
        return multiply(self, other)

    def __invert__(self) -> "VElement":
        return inverse(self)

    def __repr__(self):
        return f"VElement({format_element_literal(self)!r})"


def _reduce(domain: Depths, range_: Depths, perm) -> tuple[Depths, Depths, Perm]:
    """Cancel matched carets until none remain, on leaf cells.

    The pairs (domain cell k, range cell images[k-1]) are pushed in domain
    order.  The top two merge into their parent cells while the domain cells
    and the range cells are both left and right siblings.  A cancellation
    only exposes the parent caret, so one pass finds them all.  Returns the
    reduced (domain, range, perm); when nothing cancels, that is the given
    triple.  perm is a Perm or an image sequence, then taken as a bijection
    as it is.
    """
    images = perm.images if isinstance(perm, Perm) else perm
    range_cells = range_.cells()
    stack: list[tuple[int, int, int, int, int]] = []
    for (di, dd), j in zip(domain.cells(), images):
        ri, rd = range_cells[j - 1]
        while stack:
            pi, pd, pri, prd, pj = stack[-1]
            if pd != dd or prd != rd or pi & 1 or pri & 1 or ri != pri + 1:
                break
            stack.pop()
            di, dd, ri, rd, j = pi >> 1, dd - 1, pri >> 1, rd - 1, pj
        stack.append((di, dd, ri, rd, j))
    if len(stack) == len(images):
        return domain, range_, perm if isinstance(perm, Perm) else Perm._trusted(tuple(images))
    # a surviving range cell starts at its first original range leaf j, so
    # sorting by j puts the range cells in leaf order
    order = sorted(range(len(stack)), key=lambda k: stack[k][4])
    reduced_images = [0] * len(stack)
    for new_j, k in enumerate(order, 1):
        reduced_images[k] = new_j
    return (
        Depths([cell[1] for cell in stack]),
        Depths([stack[k][3] for k in order]),
        Perm._trusted(tuple(reduced_images)),
    )


def carry(w: Depths, g: VElement) -> tuple[Depths, list[int]]:
    """Move the leaves of w, a refinement of g's domain, under g's range.

    The leaves of w below g's domain leaf b are consecutive; they go, in
    order, under the range leaf that b is sent to, each as many levels
    deeper as that range leaf lies below b.  Returns the moved leaves'
    depths in range order and, for each, its index in w.
    """
    domain, range_ = g.domain, g.range
    ends = leaves_below(w, domain)
    starts = [0, *ends]
    moved, source = [], []
    for a, b in enumerate(g.perm._inv):
        start, end = starts[b], ends[b]
        moved += map((range_[a] - domain[b]).__add__, w[start:end])
        source += range(start, end)
    return Depths(moved), source


def multiply(g: VElement, h: VElement) -> VElement:
    """Group product; (g*h) acts as g after h on [0, 1).

    Both g's domain and h's range are prefixes of their merge W, so the
    leaves of W below each of their leaves are consecutive.  Carried under
    g's range, W's leaves are the product's range leaves.  Each product
    domain leaf is a leaf of W below some leaf c of h's range, moved under
    the h domain leaf sent to c, and is sent to the range leaf its W leaf
    became.  A leaf moved from depth e to depth e2 gains e2 - e levels, so
    the product's leaf depths and images are written straight from the
    depths of W, and its cells are reduced once.
    """
    h_domain, h_range = h.domain, h.range
    w = merge_trees(g.domain, h_range)
    range_, source = carry(w, g)
    # the 1-based product range leaf of each W leaf, in W order: a C-level
    # sort inverts source, whose runs are already sorted
    target = sorted(range(1, len(w) + 1), key=[0, *source].__getitem__)
    ends = leaves_below(w, h_range)
    starts = [0, *ends]
    domain, images = [], []
    for k, c in enumerate(h.perm.images):
        start, end = starts[c - 1], ends[c - 1]
        domain += map((h_domain[k] - h_range[c - 1]).__add__, w[start:end])
        images += target[start:end]
    return VElement._from_reduced(*_reduce(Depths(domain), range_, images))


def inverse(g: VElement) -> VElement:
    # swapping the trees of a reduced pair leaves no caret to cancel
    return VElement._from_reduced(g.range, g.domain, g.perm.inverse())


def classify(g: VElement) -> str:
    """F for order-preserving, T_only for a nontrivial rotation, else V_only."""
    if g.perm.is_identity():
        return F
    if g.perm.rotation_offset() is not None:
        return T_ONLY
    return V_ONLY


# ---------------------------------------------------------------------------
# dyadic points and the piecewise-linear action

def parse_dyadic(text: str) -> Fraction:
    """A dyadic rational written n, n/d with d a power of 2, or n/2^e with e
    at most DYADIC_EXPONENT_CAP."""
    text = text.strip()
    shown = _echo(text)
    m = re.fullmatch(r"(-?\d+)(?:\s*/\s*(2\^)?(\d+))?", text)
    if m is None:
        raise ParseError(f"bad dyadic literal {shown}")
    num, pow2, den = m.groups()
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:
        # int() refuses a literal of more than 4,300 digits
        raise ParseError(f"bad dyadic literal {shown}: too many digits") from exc
    if pow2:
        if den > DYADIC_EXPONENT_CAP:
            raise ParseError(f"bad dyadic literal {shown}: exponent above {DYADIC_EXPONENT_CAP}")
        den = 1 << den
    if den < 1 or den & (den - 1):
        raise ParseError(f"denominator of {shown} is not a power of 2")
    return Fraction(num, den)


def eval_pl(g: VElement, x) -> Fraction:
    """Apply g's piecewise-linear action to a dyadic point x of [0, 1), an int
    or a Fraction (a float, bool or Fraction subclass is refused)."""
    x = _exact("eval_pl", "x", x)
    num, den = x.numerator, x.denominator
    if den & (den - 1):
        raise ContractError("eval_pl: x is not a dyadic rational")
    if not 0 <= num < den:
        raise ContractError("eval_pl: argument must lie in [0, 1)")
    # x = num / 2^s; the domain cells end at ends[k] / 2^top, so x's cell is
    # the first that ends past floor(x * 2^top)
    s = den.bit_length() - 1
    domain, range_ = g.domain, g.range
    top = max(domain)
    ends = list(accumulate(map((1).__lshift__, map(top.__sub__, domain))))
    k = bisect_right(ends, (num << top) >> s)
    d = domain[k]
    # x lies off / 2^(top + s) into its cell, which is stretched by 2^(d - r)
    # onto range leaf j; that leaf starts at start / 2^r_top
    off = (num << top) - ((ends[k] - (1 << (top - d))) << s)
    j = g.perm.images[k] - 1
    head = range_[:j]
    r_top = max(head, default=0)
    start = sum(map((1).__lshift__, map(r_top.__sub__, head)))
    shift = top + s - d + range_[j]
    scale = max(shift, r_top)
    return Fraction((start << (scale - r_top)) + (off << (scale - shift)), 1 << scale)


# ---------------------------------------------------------------------------
# named trees and element families

_TREE_PRODUCTS = {
    "a": "f3 f3 f1 f1",
    "b": "f4 f3 f2 f1",
    "c": "f1 f1",
    "d": "f2 f1",
    "q": "f2 f3 f1 f1",
}


@lru_cache(maxsize=None)
def named_tree(name: str) -> Depths:
    if name not in _TREE_PRODUCTS:
        raise ContractError(f"unknown tree name {name!r}; expected one of a,b,c,d,q")
    return parse_depths(_TREE_PRODUCTS[name])


_ELEMENT_PAIRS = {"g": ("a", "b"), "h": ("c", "d"), "k": ("a", "q")}


def builtin(name: str):
    """Named objects: trees a,b,c,d,q as leaf depths, elements g = a/b, h = c/d, k = a/q."""
    if name in _TREE_PRODUCTS:
        return named_tree(name)
    if name in _ELEMENT_PAIRS:
        top, bottom = _ELEMENT_PAIRS[name]
        return VElement._from_depths(named_tree(bottom), named_tree(top))
    raise ContractError(f"unknown builtin {name!r}")


def inflated_element(name: str, n: int) -> VElement:
    """Level-n widening of g, h or k: 2^n parallel copies grafted onto the
    complete tree with 2^n leaves, so each copy's leaves sit n deeper."""
    if name not in _ELEMENT_PAIRS:
        raise ContractError(f"inflated_element: no such family {name!r}")
    if not 0 <= _integer("inflated_element", "level", n) <= LEVEL_CAP:
        raise ContractError(f"inflated_element: level {n} outside 0..{LEVEL_CAP}")
    top, bottom = (Depths([d + n for d in named_tree(t)] * 2**n) for t in _ELEMENT_PAIRS[name])
    return VElement._from_depths(bottom, top)


def family_kn(n: int) -> VElement:
    return inflated_element("k", n)


def family_gn(n: int) -> VElement:
    """The exchange family on doubled left combs; lives in V for every n >= 2
    and keeps its leaf pattern under reduction."""
    if _integer("family_gn", "n", n) < 2:
        raise ContractError("family_gn: defined for n >= 2")
    if n > FAMILY_GN_CAP:
        raise ContractError(
            f"family_gn: g_{n} has {2 * n} leaves, over the cap of g_{FAMILY_GN_CAP}"
            f" ({2 * FAMILY_GN_CAP} leaves)"
        )
    # two left combs with n leaves under one root caret: each comb's leaves
    # sit at depths n, n, n - 1, ..., 2
    s = Depths((n, *range(n, 1, -1)) * 2)
    images = list(range(1, 2 * n + 1))
    for odd in range(1, n + 1, 2):
        images[odd - 1] = odd + n
        images[odd + n - 1] = odd
    return VElement._from_depths(s, s, Perm(images))


def standard_generators() -> tuple[VElement, ...]:
    """A small generating set meeting all three classes: two order-preserving
    elements, the half rotation, and a leaf exchange."""
    x0 = VElement._from_depths(named_tree("d"), named_tree("c"))
    # x1 hangs x0's trees under the right leaf of one caret
    x1 = VElement._from_depths(Depths((1, 2, 3, 3)), Depths((1, 3, 3, 2)))
    rot = VElement._from_depths(Depths((1, 1)), Depths((1, 1)), Perm((2, 1)))
    t = Depths((2, 2, 2, 2))
    swap = VElement._from_depths(t, t, Perm((3, 2, 1, 4)))
    return x0, x1, rot, swap


# ---------------------------------------------------------------------------
# literals and JSON

def format_element_literal(g: VElement) -> str:
    def tree_text(leaves: Depths) -> str:
        text = format_tree(leaves)
        return f"({text})" if " " in text else text

    lit = f"{tree_text(g.range)}/{tree_text(g.domain)}"
    if not g.perm.is_identity():
        lit += f"~{list(g.perm.images)}"
    return lit


def _parse_tree_text(text: str) -> Depths:
    if not isinstance(text, str):
        raise ParseError(f"tree must be given as text, not {text!r}")
    text = text.strip()
    if text in _TREE_PRODUCTS:
        return named_tree(text)
    return parse_depths(text)


def parse_element_literal(text: str) -> VElement:
    """One-line element syntax: ``RANGE/DOMAIN~[images]`` with the bijection
    optional; also accepts the builtin names g, h, k and the family forms
    k_N and g_N."""
    text = text.strip()
    if text in _ELEMENT_PAIRS:
        return builtin(text)
    m = re.fullmatch(r"k_(\d+)", text)
    if m:
        return family_kn(int(m.group(1)))
    m = re.fullmatch(r"g_(\d+)", text)
    if m:
        return family_gn(int(m.group(1)))
    perm = None
    if "~" in text:
        text, perm_text = text.rsplit("~", 1)
        perm_text = perm_text.strip()
        if not (perm_text.startswith("[") and perm_text.endswith("]")):
            raise ParseError(f"bad bijection literal {perm_text!r}")
        try:
            images = json.loads(perm_text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad bijection literal {perm_text!r}") from exc
        perm = Perm(images)
    if text.count("/") != 1:
        raise ParseError("element literal must be RANGE/DOMAIN with a single '/'")
    range_text, domain_text = text.split("/")
    return VElement._from_depths(_parse_tree_text(domain_text), _parse_tree_text(range_text), perm)


def element_to_json(g: VElement) -> dict:
    return {
        "domain": format_tree(g.domain),
        "range": format_tree(g.range),
        "perm": list(g.perm.images),
    }


def element_from_json(data: dict) -> VElement:
    if not isinstance(data, dict):
        raise ParseError(f"element must be a JSON object, not {data!r}")
    try:
        domain = _parse_tree_text(data["domain"])
        range_ = _parse_tree_text(data["range"])
    except KeyError as exc:
        raise ParseError(f"element object missing field {exc}") from exc
    perm = data.get("perm")
    if perm is not None and not isinstance(perm, list):
        raise ParseError(f"bijection must be a JSON list, not {perm!r}")
    return VElement._from_depths(domain, range_, perm)
