"""Exact coefficient ring for the interpolation family.

Elements are p(alpha) + beta*q(alpha) with integer-coefficient polynomials
p, q and the relation beta^2 = 1 - alpha^2 (beta stands for the square root
of 1 - alpha^2).  Multiplication reduces beta^2 eagerly, so (p, q) is a
normal form and equality is coefficient-wise.

A polynomial is a tuple of ints, lowest degree first, no trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ContractError


def _trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


_ONE_MINUS_SQ = (1, 0, -1)  # 1 - alpha^2


@lru_cache(maxsize=None)
def _one_minus_sq_pow(k: int) -> tuple[int, ...]:
    if k == 0:
        return (1,)
    return _pmul(_one_minus_sq_pow(k - 1), _ONE_MINUS_SQ)


def _peval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class RingElem:
    __slots__ = ("p", "q")

    def __init__(self, p=(), q=()):
        self.p = _trim(p)
        self.q = _trim(q)

    @classmethod
    def alpha(cls) -> "RingElem":
        return cls((0, 1))

    @classmethod
    def beta(cls) -> "RingElem":
        return cls((), (1,))

    @classmethod
    def term(cls, alpha_exp: int, beta_exp: int) -> "RingElem":
        """alpha^i * beta^j in normal form."""
        mono = (0,) * alpha_exp + (1,)
        body = _pmul(mono, _one_minus_sq_pow(beta_exp // 2))
        if beta_exp % 2 == 0:
            return cls(body)
        return cls((), body)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElem(_padd(self.p, other.p), _padd(self.q, other.q))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElem(_padd(self.p, _pneg(other.p)), _padd(self.q, _pneg(other.q)))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return RingElem(_pneg(self.p), _pneg(self.q))

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = _padd(
            _pmul(self.p, other.p),
            _pmul(_ONE_MINUS_SQ, _pmul(self.q, other.q)),
        )
        q = _padd(_pmul(self.p, other.q), _pmul(self.q, other.p))
        return RingElem(p, q)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ContractError("RingElem: negative powers are not defined")
        acc = RingElem((1,))
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def is_beta_free(self) -> bool:
        return not self.q

    def alpha_coefficients(self) -> tuple[int, ...]:
        """Dense coefficient list of the beta-free part, lowest degree first."""
        if self.q:
            raise ContractError("alpha_coefficients: element has a beta component")
        return self.p

    def eval(self, alpha: Fraction) -> Fraction:
        """Exact value at a rational alpha; defined only for beta-free elements."""
        if self.q:
            raise ContractError("eval: element has a beta component")
        return _peval(self.p, Fraction(alpha))

    def __str__(self):
        parts = []
        if self.p:
            parts.append(_poly_str(self.p))
        if self.q == (1,):
            parts.append("beta")
        elif self.q:
            qs = _poly_str(self.q)
            simple = sum(1 for c in self.q if c) == 1 and not qs.startswith("-")
            parts.append(f"beta*{qs}" if simple else f"beta*({qs})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"RingElem({self.p}, {self.q})"


def _coerce(x):
    if isinstance(x, RingElem):
        return x
    if isinstance(x, int):
        return RingElem((x,))
    return NotImplemented


def _poly_str(coeffs) -> str:
    if not coeffs:
        return ""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            var = "alpha" if k == 1 else f"alpha^{k}"
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms)


ZERO = RingElem()
ONE = RingElem((1,))
ALPHA = RingElem.alpha()
BETA = RingElem.beta()
