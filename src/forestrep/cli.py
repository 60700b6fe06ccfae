"""Command-line surface.

Exit codes: 0 success, 1 contract violation, 2 parse error.  Rationals print
as p/q unless --float is given.  CSV schemas follow the producing modules.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction

from .coefficients import (
    farley_matches_phi,
    farley_norm,
    farley_phi,
    gram_psd_check,
    phi_alpha,
    phi_alpha_eval,
    vanishing_scan,
)
from .errors import ContractError, ParseError
from .shiftrep import almost_invariance_report, c_constant, kn_coefficient, zeta
from .thompson import (
    LEVEL_CAP,
    VElement,
    classify,
    element_from_json,
    eval_pl,
    format_element_literal,
    inverse,
    multiply,
    parse_dyadic,
    parse_element_literal,
)

SWEEP_FIELDS = ["element_id", "n_leaves", "alpha_num", "alpha_den", "phi_num", "phi_den"]


# Fraction() builds 10^|e| for an exponent e, which takes seconds past a
# million digits; int() already refuses a literal of more than 4,300 digits,
# so an exponent of more than 4,300 characters is over the cap too
_EXPONENT_CAP = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)")
# the longest literal an error message echoes whole
_ECHO_CHARS = 40


def _parse_fraction(text: str) -> Fraction:
    shown = repr(text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "...")
    m = _EXPONENT.search(text)
    if m and (len(m[1]) > _EXPONENT_CAP or int(m[1]) > _EXPONENT_CAP):
        raise ParseError(f"bad rational literal {shown}: exponent magnitude above {_EXPONENT_CAP}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {shown}") from exc


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not an ASCII text file") from exc
    except OSError as exc:
        raise ContractError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc


def _load_element(source: str) -> VElement:
    try:
        return parse_element_literal(source)
    except ParseError:
        if not os.path.exists(source):
            raise
    text = _read_text(source)
    if text.startswith("{"):
        return element_from_json(_parse_json(text))
    return parse_element_literal(text)


def _load_elements_file(path: str) -> list[VElement]:
    text = _read_text(path)
    if text.startswith("["):
        return [element_from_json(obj) for obj in _parse_json(text)]
    return [parse_element_literal(line) for line in text.splitlines() if line.strip()]


# an int below 2^_CHUNK_BITS has at most 1,234 digits, well within str()'s limit
_CHUNK_BITS = 4096


def _int_text(n: int) -> str:
    """The decimal digits of an int of any size.

    str(int) refuses past 4300 digits and Decimal(int) takes time quadratic
    in the length.  So the int is cut into _CHUNK_BITS-bit chunks, each
    converted on its own, and adjacent chunks are joined pairwise, level by
    level, as low + high * 2^width in exact decimal arithmetic, the width
    doubling at each level.
    """
    if -(1 << _CHUNK_BITS) < n < 1 << _CHUNK_BITS:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    size = _CHUNK_BITS // 8
    data = n.to_bytes((n.bit_length() + 7) // 8, "little")
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        parts = [Decimal(int.from_bytes(data[k : k + size], "little")) for k in range(0, len(data), size)]
        power = Decimal(1 << _CHUNK_BITS)
        while True:
            if len(parts) % 2:
                parts.append(Decimal(0))
            parts = [low + high * power for low, high in zip(parts[::2], parts[1::2])]
            if len(parts) == 1:
                return sign + str(parts[0])
            power *= power


def _show_fraction(x: Fraction, as_float: bool = False) -> str:
    if as_float:
        return repr(float(x))
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def _emit_rows(rows, fieldnames, csv_path, out):
    if csv_path:
        try:
            with open(csv_path, "w", newline="", encoding="ascii") as fh:
                writer = csv.writer(fh)
                writer.writerow(fieldnames)
                writer.writerows(rows)
        except OSError as exc:
            raise ContractError(f"cannot write {csv_path}: {exc.strerror or exc}") from exc
    else:
        writer = csv.writer(out)
        writer.writerow(fieldnames)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_element(args, out) -> int:
    elems = [_load_element(e) for e in args.elements]
    if args.action == "reduce":
        print(format_element_literal(elems[0]), file=out)
    elif args.action == "multiply":
        if len(elems) < 2:
            raise ContractError("element multiply: need at least two elements")
        acc = elems[0]
        for e in elems[1:]:
            acc = multiply(acc, e)
        print(format_element_literal(acc), file=out)
    elif args.action == "inverse":
        print(format_element_literal(inverse(elems[0])), file=out)
    elif args.action == "classify":
        print(classify(elems[0]), file=out)
    elif args.action == "eval":
        if args.at is None:
            raise ContractError("element eval: --at is required")
        y = eval_pl(elems[0], parse_dyadic(args.at))
        print(repr(float(y)) if args.float else str(y), file=out)
    return 0


def _cmd_phi(args, out) -> int:
    g = _load_element(args.element)
    if args.symbolic:
        poly = phi_alpha(g)
        if args.coeffs:
            print(json.dumps(list(poly.alpha_coefficients())), file=out)
        else:
            print(str(poly), file=out)
    else:
        if args.alpha is None:
            raise ContractError("phi: give --alpha p/q or --symbolic")
        value = phi_alpha_eval(g, _parse_fraction(args.alpha))
        print(_show_fraction(value, args.float), file=out)
    return 0


def _cmd_scan(args, out) -> int:
    alpha = _parse_fraction(args.alpha)
    table = vanishing_scan(alpha, args.max_leaves)
    rows = [
        [
            format_element_literal(g),
            row.leaves,
            alpha.numerator,
            alpha.denominator,
            value.numerator,
            value.denominator,
        ]
        for row in table
        for g, value in row.values
    ]
    _emit_rows(rows, SWEEP_FIELDS, args.csv, out)
    for row in table:
        print(
            f"# n={row.leaves} count={row.count}"
            f" phi={_show_fraction(row.phi_value)}"
            f" max_deviation={_show_fraction(row.max_deviation)}",
            file=out,
        )
    return 0


def _cmd_sweep(args, out) -> int:
    g = _load_element(args.element)
    label = format_element_literal(g)
    rows = []
    for text in args.alphas.split(","):
        alpha = _parse_fraction(text)
        value = phi_alpha_eval(g, alpha)
        rows.append(
            [label, g.leaf_count, alpha.numerator, alpha.denominator, value.numerator, value.denominator]
        )
    _emit_rows(rows, SWEEP_FIELDS, args.csv, out)
    return 0


def _cmd_gram(args, out) -> int:
    elements = _load_elements_file(args.elements)
    result = gram_psd_check(elements, _parse_fraction(args.alpha))
    if result.is_psd:
        print("PSD", file=out)
    else:
        witness = {k: str(v) for k, v in result.witness.items()}
        print(f"NOT-PSD {json.dumps(witness)}", file=out)
    return 0


def _cmd_farley(args, out) -> int:
    g = _load_element(args.element)
    decay = None if args.beta is None else farley_phi(g, _parse_fraction(args.beta))
    print(f"norm_sq={farley_norm(g)}", file=out)
    print(f"phi_alpha={phi_alpha(g)}", file=out)
    verdict = "matches" if farley_matches_phi(g) else "differs"
    print(f"exponential-family={verdict}", file=out)
    if decay is not None:
        print(f"decay=exp(-{decay.beta})^{decay.exponent}", file=out)
        if args.float:
            print(f"decay_float={decay.as_float()!r}", file=out)
    return 0


def _cmd_kazhdan(args, out) -> int:
    if args.which == "kn":
        if not 0 <= args.n <= LEVEL_CAP:
            raise ContractError(f"kazhdan kn: level {args.n} outside 0..{LEVEL_CAP}")
        z = zeta(args.m)
        coeff = kn_coefficient(args.n, [z] * (2**args.n), z)
        reference = c_constant(z) ** (2**args.n)
        payload = {
            "n": args.n,
            "m": args.m,
            "coefficient": _show_fraction(coeff),
            "reference": _show_fraction(reference),
            "verdict": "exact-match" if coeff == reference else "MISMATCH",
        }
        fields = list(payload)
    else:
        payload = almost_invariance_report(_load_element(args.element), args.m)
        for key in ("coefficient", "bound"):
            payload[key] = _show_fraction(payload[key])
        fields = ["m", "coefficient", "bound", "satisfied"]
    if args.json:
        print(json.dumps(payload), file=out)
    else:
        _emit_rows([[payload[key] for key in fields]], fields, args.csv, out)
    return 0


def _cmd_oracle(args, out) -> int:
    # imported here: the other subcommands need no oracle
    from .oracles import (
        check_cyclic_forest_lemma,
        check_reduction_soundness,
        check_term_parity,
        check_word_injectivity,
    )

    # each check keeps its own default bound
    bound = () if args.bound is None else (args.bound,)
    if args.which == "word-injectivity":
        report = check_word_injectivity(*bound)
    elif args.which == "cyclic-forest":
        report = check_cyclic_forest_lemma(*bound)
    elif args.which == "parity":
        report = check_term_parity(*bound)
    else:
        report = check_reduction_soundness(*bound, seed=args.seed)
    print(json.dumps(report), file=out)
    return 0 if report["violations"] == 0 else 1


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="forestrep")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("element", help="group arithmetic on element literals")
    p.add_argument("action", choices=["reduce", "multiply", "inverse", "classify", "eval"])
    p.add_argument("elements", nargs="+")
    p.add_argument("--at", help="dyadic argument for eval, e.g. 3/8")
    p.add_argument("--float", action="store_true")
    p.set_defaults(func=_cmd_element)

    p = sub.add_parser("phi", help="interpolation coefficient of one element")
    p.add_argument("--element", required=True)
    p.add_argument("--alpha")
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--coeffs", action="store_true", help="dense coefficient list, lowest degree first")
    p.add_argument("--float", action="store_true")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("scan-vanishing", help="decay table over reduced rotation pairs")
    p.add_argument("--alpha", required=True)
    p.add_argument("--max-leaves", type=int, required=True)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("sweep", help="phi values of one element over several alphas")
    p.add_argument("--element", required=True)
    p.add_argument("--alphas", required=True, help="comma-separated rationals")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gram", help="exact positive-semidefiniteness verdict")
    p.add_argument("--elements", required=True, help="file of literals or JSON array")
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("farley", help="cocycle norm and comparison verdict")
    p.add_argument("--element", required=True)
    p.add_argument("--beta")
    p.add_argument("--float", action="store_true")
    p.set_defaults(func=_cmd_farley)

    p = sub.add_parser("kazhdan", help="shift-representation coefficients")
    ksub = p.add_subparsers(dest="which", required=True)
    pk = ksub.add_parser("kn")
    pk.add_argument("--n", type=int, required=True)
    pk.add_argument("--m", type=int, required=True)
    pk.add_argument("--csv")
    pk.add_argument("--json", action="store_true")
    pk.set_defaults(func=_cmd_kazhdan, which="kn")
    pa = ksub.add_parser("almost-invariant")
    pa.add_argument("--element", required=True)
    pa.add_argument("--m", type=int, required=True)
    pa.add_argument("--csv")
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=_cmd_kazhdan, which="almost-invariant")

    p = sub.add_parser("oracle", help="brute-force verification reports")
    p.add_argument(
        "which", choices=["word-injectivity", "cyclic-forest", "parity", "reduction"]
    )
    p.add_argument("--bound", type=int)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
