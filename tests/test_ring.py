import random
from fractions import Fraction

import pytest

from forestrep.errors import ContractError
from forestrep.ring import ALPHA, BETA, ONE, ZERO, RingElem


def test_beta_square_reduces():
    assert BETA * BETA == ONE - ALPHA * ALPHA
    assert BETA * BETA == RingElem((1, 0, -1))


def test_term_constructor():
    assert RingElem.term(0, 0) == ONE
    assert RingElem.term(1, 0) == ALPHA
    assert RingElem.term(0, 1) == BETA
    assert RingElem.term(2, 2) == ALPHA * ALPHA * (ONE - ALPHA * ALPHA)
    assert RingElem.term(1, 3) == ALPHA * BETA * (ONE - ALPHA * ALPHA)
    assert RingElem.term(3, 2).is_beta_free()  # even beta powers fold away
    assert not RingElem.term(3, 1).is_beta_free()
    deep = (ONE - ALPHA * ALPHA) ** 1500
    assert RingElem.term(0, 3000) == deep
    assert RingElem.term(2, 3001) == ALPHA * ALPHA * BETA * deep
    assert RingElem.expand({(1, 2): 3, (0, 1): -2, (2, 0): 1, (4, 0): 0}) == (
        3 * RingElem.term(1, 2) - 2 * BETA + ALPHA * ALPHA
    )
    assert RingElem.expand({}) == ZERO
    for exponents in ((-1, 0), (0, -2)):
        with pytest.raises(ContractError):
            RingElem.term(*exponents)
    # term builds beta-free monomials directly; expand is the general route
    for i in range(41):
        for j in range(7):
            assert RingElem.term(i, j) == RingElem.expand({(i, j): 1})


def test_arithmetic_identities():
    x = (ALPHA + BETA) * (ALPHA - BETA)
    assert x == ALPHA * ALPHA - (ONE - ALPHA * ALPHA)
    assert (ALPHA + 1) * (ALPHA - 1) == ALPHA * ALPHA - 1
    assert 2 * ALPHA == ALPHA + ALPHA
    assert (ALPHA**5) == ALPHA * ALPHA * ALPHA * ALPHA * ALPHA
    assert ZERO + ALPHA == ALPHA
    assert -ALPHA + ALPHA == ZERO
    assert ALPHA**0 == ONE


def test_eval():
    poly = RingElem.term(6, 0) + RingElem.term(2, 4)  # alpha^6 + alpha^2 (1 - alpha^2)^2
    assert poly.eval(Fraction(1, 2)) == Fraction(10, 64)
    assert poly.eval(Fraction(0)) == 0
    assert poly.eval(Fraction(1)) == 1
    # an int is wrapped, a Fraction taken as it is: the same value either way
    for alpha in (0, 1):
        assert poly.eval(alpha) == poly.eval(Fraction(alpha))
        assert type(poly.eval(alpha)) is Fraction
    with pytest.raises(ContractError):
        BETA.eval(Fraction(1, 2))


def _horner_reference(coeffs, alpha: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * alpha + c
    return acc


def test_eval_matches_fraction_horner():
    rng = random.Random(11)
    polys = [()] + [
        tuple(rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 60))) for _ in range(80)
    ]
    for coeffs in polys:
        poly = RingElem(coeffs)
        for alpha in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 4), Fraction(5, 7)):
            value = poly.eval(alpha)
            assert type(value) is Fraction and value == _horner_reference(coeffs, alpha)


def test_coefficients_serialization():
    poly = RingElem.term(6, 0) + RingElem.term(2, 4)
    assert poly.alpha_coefficients() == (0, 0, 1, 0, -2, 0, 2)
    with pytest.raises(ContractError):
        (ALPHA + BETA).alpha_coefficients()


def test_str():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(ALPHA) == "alpha"
    assert str(BETA) == "beta"
    poly = RingElem.term(6, 0) + RingElem.term(2, 4)
    assert str(poly) == "2*alpha^6 - 2*alpha^4 + alpha^2"
    assert str(ALPHA * ALPHA * BETA) == "beta*alpha^2"
    assert str(ONE - ALPHA) == "-alpha + 1"


def test_hash_consistency():
    a = RingElem.term(2, 2)
    b = (ONE - ALPHA * ALPHA) * ALPHA * ALPHA
    assert a == b and hash(a) == hash(b)
    # trailing zeros are trimmed, from tuples and other iterables alike
    a, b = RingElem((1, 0, 0)), RingElem((1,))
    assert a == b and hash(a) == hash(b) and a.p == (1,)
    assert RingElem((0, 0), [0, 2, 0]) == RingElem((), (0, 2))
