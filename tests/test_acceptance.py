"""Acceptance suite: every computable identity, bit exact.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s``).  All comparisons are exact rational or coefficient-wise
polynomial equality; there are no tolerances anywhere.
"""

import time
from fractions import Fraction

from forestrep.coefficients import (
    farley_norm,
    gram_psd_check,
    phi_alpha,
    phi_alpha_eval,
    reduced_rotation_elements,
)
from forestrep.oracles import (
    RTensor,
    check_cyclic_forest_lemma,
    check_partition_operator_agreement,
    check_reduction_soundness,
    check_term_parity,
    check_vacuum_pairing,
    check_word_injectivity,
    random_elements,
)
from forestrep.ring import ALPHA, ONE, RingElem
from forestrep.shiftrep import almost_invariance, c_constant, invariance_bound, kn_coefficient, zeta
from forestrep.thompson import (
    Perm,
    VElement,
    builtin,
    family_gn,
    family_kn,
    named_tree,
)
from forestrep.trees import LEAF, caret, depths, parse_tree


def _record(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}", flush=True)
    assert ok, f"{name} failed{suffix}"


def test_criterion_1_rotation_pairs_are_pure_powers():
    started = time.monotonic()
    checked = 0
    exact = True
    for g in reduced_rotation_elements(6):
        n = g.leaf_count
        if phi_alpha(g) != RingElem.term(2 * n - 2, 0):
            exact = False
            break
        checked += 1
    elapsed = time.monotonic() - started
    _record(
        "1 rotation-pair coefficients equal alpha^(2n-2), n <= 6",
        exact and checked >= 6000 and elapsed < 60,
        f"{checked} elements in {elapsed:.1f}s",
    )


def test_criterion_2_exchange_element_value():
    t = parse_tree("f3 f1 f1")
    g = VElement(t, t, Perm((3, 2, 1, 4)))
    poly = phi_alpha(g)
    expected = RingElem.term(6, 0) + RingElem.term(2, 0) * (ONE - ALPHA * ALPHA) ** 2
    monomial = RingElem.term(farley_norm(g), 0)
    _record(
        "2 exchange element: alpha^6 + alpha^2(1-alpha^2)^2, not a pure power",
        poly == expected and poly != monomial,
        str(poly),
    )


def test_criterion_3_limits_at_zero_and_one():
    elements = random_elements(100, 6, seed=2024, nonidentity=True)
    ok = all(
        phi_alpha_eval(g, Fraction(0)) == 0 and phi_alpha_eval(g, Fraction(1)) == 1
        for g in elements
    )
    _record("3 phi is 0 at alpha=0 and 1 at alpha=1 off the identity", ok, "100 elements")


def test_criterion_4_nonvanishing_exchange_family():
    # (1 + a^2) phi_a(g_N) = a^2 (1 - a^2) + 2 a^(4N): at a = 1/2 the values
    # tend to 3/20, not 0
    values = {n: phi_alpha_eval(family_gn(n), Fraction(1, 2)) for n in (*range(2, 7), 10000)}
    ok = all(v == Fraction(3, 20) + Fraction(8, 5) / 2 ** (4 * n) for n, v in values.items())
    _record(
        "4 exchange family: phi_{1/2}(g_N) = 3/20 + (8/5) 2^(-4N) for N = 2..6 and 10000",
        ok,
        ", ".join(f"n={n}: {v}" for n, v in values.items() if n < 10000),
    )


def test_criterion_5_commutator_and_level_coefficients():
    g, h, k = builtin("g"), builtin("h"), builtin("k")
    commutator_ok = (
        g * h * ~g * ~h == k
        and k.range == named_tree("a")
        and k.domain == named_tree("q")
        and k == family_kn(0)
    )
    z = zeta(1)
    c = Fraction(1575, 2048)
    kn_ok = c_constant(z) == c and all(
        kn_coefficient(n, [z] * (2**n), z) == c ** (2**n) for n in (0, 1, 2)
    )
    _record("5 commutator reduces to a/q and level coefficients are C^(2^n)",
            commutator_ok and kn_ok, f"C = {c}")


def test_criterion_6_almost_invariance():
    x0 = VElement(parse_tree("f2 f1"), parse_tree("f1 f1"))
    rot = VElement(caret(LEAF, LEAF), caret(LEAF, LEAF), Perm((2, 1)))
    values = {}
    ok = True
    for name, g in (("x0", x0), ("rot", rot)):
        for m in (1, 2):
            value = almost_invariance(g, m)
            values[(name, m)] = value
            ok = ok and value >= invariance_bound(m)
    # the overlap climbs strictly for the interval generator; the rotation
    # fixes the reference vector exactly, so it sits at 1 on both levels
    ok = ok and values[("x0", 2)] > values[("x0", 1)]
    ok = ok and values[("rot", 1)] == 1 and values[("rot", 2)] == 1
    detail = ", ".join(f"{k[0]} m={k[1]}: {v}" for k, v in values.items())
    _record("6 almost invariance dominates (1-8^-m)^(4^m) and climbs", ok, detail)


def test_criterion_7_oracles():
    reports = [
        check_word_injectivity(8),
        check_cyclic_forest_lemma(6),
        check_term_parity(max_leaves=5),
        check_reduction_soundness(500, seed=42),
    ]
    ok = all(r["violations"] == 0 for r in reports)
    detail = ", ".join(f"{r['check']}: {r['instances']} instances" for r in reports)
    _record("7 all four oracles report zero violations", ok, detail)


def test_criterion_8_positive_semidefinite_gram_matrices():
    ok = True
    for seed in (101, 202, 303):
        elements = random_elements(10, 6, seed=seed)
        for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            result = gram_psd_check(elements, alpha)
            ok = ok and result.is_psd
    _record("8 gram matrices PSD for 3 seeds x 3 alphas", ok, "exact rational pivots")


def test_criterion_9_partition_function_cross_checks():
    R = RTensor(
        (1, 2),
        {(1, 1, 1): Fraction(3, 5), (1, 2, 2): Fraction(4, 5), (2, 1, 2): Fraction(1)},
    )
    agreement = check_partition_operator_agreement(R, 6)
    pairing = check_vacuum_pairing(5)
    ok = agreement["violations"] == 0 and pairing["violations"] == 0
    detail = (
        f"operator route: {agreement['instances']} boundaries, "
        f"vacuum pairing: {pairing['instances']} elements"
    )
    _record("9 partition function agrees with both independent routes", ok, detail)
