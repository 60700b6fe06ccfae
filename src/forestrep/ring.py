"""Exact coefficient ring for the interpolation family.

Elements are p(alpha) + beta*q(alpha) with integer-coefficient polynomials
p, q and the relation beta^2 = 1 - alpha^2 (beta stands for the square root
of 1 - alpha^2).  Multiplication reduces beta^2 eagerly, so (p, q) is a
normal form and equality is coefficient-wise.

A polynomial is a tuple of ints, lowest degree first, no trailing zeros.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ContractError, _exact


def _trim(coeffs) -> tuple[int, ...]:
    if type(coeffs) is tuple and (not coeffs or coeffs[-1]):
        return coeffs
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
        if beta_exp == 0 and alpha_exp >= 0:
            return cls((0,) * alpha_exp + (1,))
        return cls.expand({(alpha_exp, beta_exp): 1})

    @classmethod
    def expand(cls, counts) -> "RingElem":
        """The sum of count * alpha^i * beta^j over the ((i, j), count) items in
        normal form, each beta^(2k) = (1 - alpha^2)^k expanded binomially."""
        parts = ([], [])
        for (i, j), count in counts.items():
            if i < 0 or j < 0:
                raise ContractError(f"RingElem: negative exponent in alpha^{i} * beta^{j}")
            k, part = j // 2, parts[j % 2]
            part.extend([0] * (i + 2 * k + 1 - len(part)))
            for r in range(k + 1):
                part[i + 2 * r] += (-1) ** r * math.comb(k, r) * count
        return cls(*parts)

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

    def is_beta_free(self) -> bool:
        return not self.q

    def alpha_coefficients(self) -> tuple[int, ...]:
        """Dense coefficient list of the beta-free part, lowest degree first."""
        if self.q:
            raise ContractError("alpha_coefficients: element has a beta component")
        return self.p

    def eval(self, alpha: int | Fraction) -> Fraction:
        """Exact value at a rational alpha = n/d, given as an int or a Fraction
        (a float, string, bool, Decimal or Fraction subclass is refused);
        defined only for beta-free elements.  Horner in integers gives
        sum c_k n^k d^(deg-k), over d^deg at the end."""
        if self.q:
            raise ContractError("eval: element has a beta component")
        alpha = _exact("eval", "alpha", alpha)
        n, d = alpha.as_integer_ratio()
        top, scale = 0, 1
        for c in reversed(self.p):
            top = top * n + c * scale
            scale *= d
        return Fraction(top * d, scale)

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
    if type(x) is int:
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
