import csv
import json
import os
import random
import shlex
import subprocess
import sys
import time
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from forestrep import cli, coefficients
from forestrep.cli import SWEEP_FIELDS, _int_text, main
from forestrep.coefficients import GramResult, farley_phi, phi_alpha_eval, vanishing_scan
from forestrep.shiftrep import almost_invariance, invariance_bound
from forestrep.thompson import (
    DYADIC_EXPONENT_CAP,
    builtin,
    eval_pl,
    family_kn,
    format_element_literal,
    parse_dyadic,
    parse_element_literal,
)


REMARK = "(f3 f1 f1)/(f3 f1 f1)~[3,2,1,4]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _exact_number(text: str) -> Fraction:
    """A printed p/q or p, read at any size: Decimal takes past str()'s digit limit."""
    return Fraction(*(int(Decimal(part)) for part in text.split("/")))


def test_phi_symbolic(capsys):
    code, out, _ = run(capsys, "phi", "--element", REMARK, "--symbolic")
    assert code == 0
    assert out.strip() == "2*alpha^6 - 2*alpha^4 + alpha^2"


def test_phi_rational(capsys):
    code, out, _ = run(capsys, "phi", "--element", REMARK, "--alpha", "1/2")
    assert code == 0
    assert out.strip() == "5/32"
    assert Fraction(out.strip()) == Fraction(10, 64)


def test_phi_float_flag(capsys):
    code, out, _ = run(capsys, "phi", "--element", REMARK, "--alpha", "1/2", "--float")
    assert code == 0
    assert abs(float(out.strip()) - 10 / 64) < 1e-15


def test_element_subcommands(capsys):
    code, out, _ = run(capsys, "element", "classify", REMARK)
    assert code == 0 and out.strip() == "V_only"
    code, out, _ = run(capsys, "element", "eval", "(f1 f1)/(f2 f1)", "--at", "1/2")
    assert code == 0 and out.strip() == "1/4"
    code, out, _ = run(capsys, "element", "eval", "f1/f1~[2,1]", "--at", "0")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run(capsys, "element", "multiply", "g", "h", "g", "h")
    assert code == 0 and "/" in out
    code, out, _ = run(capsys, "element", "inverse", "(f1 f1)/(f2 f1)")
    assert code == 0 and out.strip() == "(f2 f1)/(f1 f1)"
    code, out, _ = run(capsys, "element", "reduce", "(f1 f1 f1)/(f1 f1 f1)")
    assert code == 0 and out.strip() == "./."
    # every action but multiply takes one element, and refuses a second
    for action, extra in (("reduce", []), ("inverse", []), ("classify", []), ("eval", ["--at", "1/2"])):
        code, out, err = run(capsys, "element", action, "g", "h", *extra)
        assert code == 1 and out == ""
        assert err == f"contract violation: element {action}: takes one element, got 2\n"


def test_options_that_do_not_apply_are_refused(tmp_path, capsys, monkeypatch):
    # each was once dropped silently with exit 0; now one line on stderr, exit 1
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["kazhdan", "kn", "--n", "1", "--m", "1", "--json", "--csv", "k.csv"],
        ["kazhdan", "almost-invariant", "--element", "g", "--m", "1", "--json", "--csv", "k.csv"],
        ["phi", "--element", "g", "--coeffs", "--alpha", "1/2"],
        ["phi", "--element", "g", "--alpha", "1/2", "--symbolic"],
        ["phi", "--element", "g", "--symbolic", "--float"],
        ["farley", "--element", "g", "--float"],
        ["element", "reduce", "g", "--at", "1/2"],
        ["element", "inverse", "g", "--float"],
        ["element", "multiply", "g", "h", "--float"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.count("\n") == 1, argv
        assert err.startswith("contract violation: ") and "--" in err, argv
    assert list(tmp_path.iterdir()) == []
    # the options still apply where they belong
    assert run(capsys, "element", "eval", "g", "--at", "1/2", "--float")[:2] == (0, "0.25\n")
    code, out, _ = run(capsys, "farley", "--element", "g", "--beta", "1/2", "--float")
    assert code == 0 and "decay_float=" in out
    code, out, _ = run(capsys, "phi", "--element", "g", "--symbolic", "--coeffs")
    assert code == 0 and out.startswith("[")


def test_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "phi", "--element", "not a literal", "--symbolic")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "phi", "--element", "g", "--alpha", "3/2")
    assert code == 1 and "contract violation" in err
    code, _, err = run(capsys, "scan-vanishing", "--alpha", "1/2", "--max-leaves", "13")
    assert code == 1 and err.count("\n") == 1 and "contract violation" in err
    code, out, err = run(capsys, "scan-vanishing", "--alpha", "1/2", "--max-leaves", "-1")
    assert code == 1 and out == "" and err.count("\n") == 1 and "negative" in err
    code, out, _ = run(capsys, "scan-vanishing", "--alpha", "1/2", "--max-leaves", "0")
    assert code == 0 and out.splitlines() == [",".join(SWEEP_FIELDS)]
    start = time.perf_counter()
    code, _, err = run(capsys, "scan-vanishing", "--alpha", "1/2", "--max-leaves", "8")
    assert code == 1 and err.count("\n") == 1 and "1605975 triples" in err
    assert time.perf_counter() - start < 10
    malformed = tmp_path / "malformed.json"
    malformed.write_text('[{"domain": "f1", "range": ')
    code, _, err = run(capsys, "gram", "--elements", str(malformed), "--alpha", "1/2")
    assert code == 2 and err.count("\n") == 1 and "parse error" in err
    (tmp_path / "one.json").write_text('{"domain": "f1"')
    code, _, err = run(capsys, "phi", "--element", str(tmp_path / "one.json"), "--symbolic")
    assert code == 2 and err.count("\n") == 1 and "parse error" in err
    (tmp_path / "latin1.txt").write_bytes(b"g\n\xff\n")
    code, _, err = run(capsys, "gram", "--elements", str(tmp_path / "latin1.txt"), "--alpha", "1/2")
    assert code == 2 and err.count("\n") == 1 and "parse error" in err
    code, _, err = run(capsys, "gram", "--elements", str(tmp_path / "missing.txt"), "--alpha", "1/2")
    assert code == 1 and err.count("\n") == 1 and "contract violation" in err
    code, _, err = run(capsys, "element", "reduce", "f1/f1~[1.0, 2]")
    assert code == 1 and err.count("\n") == 1 and "contract violation" in err
    for n in ("-1", "40"):
        code, _, err = run(capsys, "kazhdan", "kn", "--n", n, "--m", "1")
        assert code == 1 and err.count("\n") == 1 and "outside 0..8" in err
    start = time.perf_counter()
    code, _, err = run(capsys, "oracle", "word-injectivity", "--bound", "13")
    assert code == 1 and err.count("\n") == 1 and "290512 trees" in err
    assert time.perf_counter() - start < 10


def test_deep_inputs(capsys):
    left = " ".join(["f1"] * 2000)
    right = " ".join(f"f{i}" for i in range(2000, 0, -1))
    combs = f"({left})/({right})"
    deep = "(" * 1200 + ". .)" + " .)" * 1199
    right_1201 = " ".join(f"f{i}" for i in range(1200, 0, -1))
    for argv in (
        ["element", "reduce", combs],
        ["element", "multiply", combs, combs],
        ["kazhdan", "almost-invariant", "--element", combs, "--m", "1", "--json"],
        ["element", "classify", f"{deep}/({right_1201})"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.count("\n") == 1 and err == ""
    # the exact overlap at m=3 has a 6982-digit denominator, past str(int)'s limit
    code, out, err = run(capsys, "kazhdan", "almost-invariant", "--element", combs, "--m", "3", "--json")
    assert code == 0 and out.count("\n") == 1 and err == ""
    num, den = (int(Decimal(part)) for part in json.loads(out)["coefficient"].split("/"))
    assert Fraction(num, den) == almost_invariance(parse_element_literal(combs), 3) != 0


def test_large_elements_need_no_prefix_tables(capsys):
    # F and T take the closed form alpha^(2n - 2), V_only elements the
    # closure-class cover sum; neither lists prefixes, whose tables for
    # g_500 would hold 21,208,252,498 entries
    left = " ".join(["f1"] * 2000)
    right = " ".join(f"f{i}" for i in range(2000, 0, -1))
    for element, poly in (
        ("k_3", "alpha^78"),
        ("k_8", "alpha^2558"),
        (f"({right})/({left})", "alpha^4000"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "phi", "--element", element, "--symbolic")
        assert code == 0 and out == poly + "\n" and err == ""
        assert time.perf_counter() - start < 10
    start = time.perf_counter()
    code, out, err = run(capsys, "phi", "--element", "g_500", "--alpha", "1/2")
    assert code == 0 and out.count("\n") == 1 and err == ""
    assert Fraction(out) > Fraction(9, 64)
    assert time.perf_counter() - start < 10


def test_cover_sum_refusals(capsys, monkeypatch):
    # g_10000's nested classes close in linear time: it answers, on the
    # closed form (1 + a^2) phi = a^2 (1 - a^2) + 2 a^(4N) at a = 1/2
    start = time.perf_counter()
    code, out, err = run(capsys, "phi", "--element", "g_10000", "--alpha", "1/2")
    assert code == 0 and err == ""
    assert _exact_number(out) == Fraction(3, 20) + Fraction(8, 5) / 2**40000
    assert time.perf_counter() - start < 10
    # a comb pair whose nested nodes each have many partners is refused by
    # the closure cap
    images = []
    for first in range(1, 7000, 1750):
        images += reversed(range(first, min(first + 1750, 7000)))
    comb = f"({' '.join(f'f{i}' for i in range(6999, 0, -1))})"
    literal = f"{comb}/{comb}~[{','.join(map(str, images))},7000]"
    start = time.perf_counter()
    code, out, err = run(capsys, "phi", "--element", literal, "--symbolic")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "closing the classes of a 7000-leaf element builds more than the cap of 10000000 partner entries" in err
    assert time.perf_counter() - start < 10
    monkeypatch.setattr(coefficients, "COVER_ENTRY_CAP", 1)
    code, out, err = run(capsys, "phi", "--element", "g_40", "--symbolic")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "the cover sum of a 80-leaf element writes more than the cap of 1 polynomial entries" in err


def _subprocess_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def test_readme_library_sketch_runs(capsys):
    # the README's documented imports and results
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == expected


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    # every documented command exits 0, run where its files are written
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    (tmp_path / "elements.txt").write_text("g\nh\nk\n", encoding="ascii")
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    assert len(lines) == 13
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "forestrep"
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == "", line


def test_cli_import_leaves_oracles_unloaded():
    code = "import sys, forestrep.cli; print('forestrep.oracles' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_exponent_literals_are_refused_up_front():
    # Fraction("1e-99999999") would build 10^99999999 before any check
    env = _subprocess_env()
    huge = "1e-" + "9" * 5000
    commands = [
        ["phi", "--element", "g", "--alpha", "1e-99999999"],
        ["phi", "--element", "g", "--alpha", "1E+4301"],
        ["phi", "--element", "g", "--alpha", huge],
        ["sweep", "--element", "g", "--alphas", "1/2,1e-99999999"],
        ["farley", "--element", "g", "--beta", "1e-99999999"],
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "forestrep.cli", *argv], env=env, capture_output=True, text=True, timeout=10
        )
        assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.count("\n") == 1
        assert "exponent magnitude above 4300" in proc.stderr
        assert len(proc.stderr) < 120
    proc = subprocess.run(
        [sys.executable, "-m", "forestrep.cli", "phi", "--element", "g", "--alpha", "1/" + "3" * 5000],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2 and proc.stderr.count("\n") == 1 and len(proc.stderr) < 120


def test_dyadic_exponents_are_refused_up_front():
    # 1 << e would take e/8 bytes before any check, and int() refuses a
    # literal of more than 4,300 digits
    env = _subprocess_env()
    for at in (
        "1/2^99999999",
        f"1/2^{DYADIC_EXPONENT_CAP + 1}",
        "1/2^" + "9" * 5000,
        "1/" + "4" * 5000,
        "7" * 5000,
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "forestrep.cli", "element", "eval", "g", "--at", at],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("parse error: ") and len(proc.stderr) < 120
    proc = subprocess.run(
        [sys.executable, "-m", "forestrep.cli", "element", "eval", "g", "--at", f"1/2^{DYADIC_EXPONENT_CAP}"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0 and proc.stderr == "" and proc.stdout.count("\n") == 1


def test_dyadic_values_print_as_fractions_do(capsys):
    for literal, at in (("g", "3/8"), ("g", "0"), ("f1/f1~[2,1]", "1/2"), ("h", "1/2^3000")):
        code, out, _ = run(capsys, "element", "eval", literal, "--at", at)
        y = eval_pl(parse_element_literal(literal), parse_dyadic(at))
        assert code == 0 and out == f"{y}\n"
    # past str(int)'s 4,300 digits: compared as exact decimals
    code, out, _ = run(capsys, "element", "eval", "h", "--at", "3/2^65536")
    y = eval_pl(builtin("h"), Fraction(3, 1 << 65536))
    num, den = out.strip().split("/")
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        assert code == 0 and (Decimal(num), Decimal(den)) == (Decimal(y.numerator), Decimal(y.denominator))


def test_exponent_literals_within_the_bound(capsys):
    code, out, _ = run(capsys, "phi", "--element", "(f1 f1)/(f2 f1)", "--alpha", "1e-4300")
    assert code == 0 and out.strip() == f"1/1{'0' * 17200}"
    code, out, _ = run(capsys, "sweep", "--element", "g", "--alphas", "5e-1,0.25E0")
    rows = [line.split(",")[-4:] for line in out.splitlines()[1:]]
    assert code == 0 and rows == [["1", "2", "1", "256"], ["1", "4", "1", "65536"]]


def test_oversized_gn_is_refused(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "phi", "--element", "g_99999999999", "--symbolic")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "g_99999999999 has 199999999998 leaves, over the cap" in err
    assert time.perf_counter() - start < 10


def test_scan_vanishing_csv(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys, "scan-vanishing", "--alpha", "1/2", "--max-leaves", "3", "--csv", str(target)
    )
    assert code == 0
    with open(target, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        n = int(row["n_leaves"])
        assert Fraction(int(row["phi_num"]), int(row["phi_den"])) == Fraction(1, 2) ** (2 * n - 2)
        assert (int(row["alpha_num"]), int(row["alpha_den"])) == (1, 2)
    assert "max_deviation=0/1" in out
    code, out, _ = run(
        capsys, "scan-vanishing", "--alpha", "1/3", "--max-leaves", "5", "--csv", str(target)
    )
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("# n=")] == [
        "# n=1 count=1 phi=1/1 max_deviation=0/1",
        "# n=2 count=1 phi=1/9 max_deviation=0/1",
        "# n=3 count=8 phi=1/81 max_deviation=0/1",
        "# n=4 count=66 phi=1/729 max_deviation=0/1",
        "# n=5 count=616 phi=1/6561 max_deviation=0/1",
    ]


def test_sweep_csv(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "--element", "(f1 f1)/(f2 f1)", "--alphas", "1/4,1/2,3/4",
        "--csv", str(target),
    )
    assert code == 0
    with open(target, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        alpha = Fraction(int(row["alpha_num"]), int(row["alpha_den"]))
        value = Fraction(int(row["phi_num"]), int(row["phi_den"]))
        assert value == alpha**4


def test_unwritable_csv_path(tmp_path, capsys):
    target = str(tmp_path / "missing" / "x.csv")
    for argv in (
        ["scan-vanishing", "--alpha", "1/2", "--max-leaves", "3"],
        ["sweep", "--element", "g", "--alphas", "1/2"],
        ["kazhdan", "almost-invariant", "--element", "g", "--m", "1"],
        ["kazhdan", "kn", "--n", "1", "--m", "1"],
    ):
        code, _, err = run(capsys, *argv, "--csv", target)
        assert code == 1 and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"contract violation: cannot write {target}: ")


def test_gram_files(tmp_path, capsys, monkeypatch):
    lines = tmp_path / "elements.txt"
    lines.write_text("g\nh\n(f1 f1)/(f2 f1)\n")
    code, out, _ = run(capsys, "gram", "--elements", str(lines), "--alpha", "1/2")
    assert code == 0 and out.strip() == "PSD"
    blob = tmp_path / "elements.json"
    blob.write_text(json.dumps([
        {"domain": "f2 f1", "range": "f1 f1"},
        {"domain": "f1", "range": "f1", "perm": [2, 1]},
    ]))
    code, out, _ = run(capsys, "gram", "--elements", str(blob), "--alpha", "1/4")
    assert code == 0 and out.strip() == "PSD"
    # a witness prints its numbers as str() would, at any size
    value = Fraction(-(10**5000), 3)
    witness = {"kind": "zero_pivot_offdiagonal", "row": 0, "col": 1, "value": value}
    monkeypatch.setattr(cli, "gram_psd_check", lambda elements, alpha: GramResult(False, witness))
    code, out, _ = run(capsys, "gram", "--elements", str(blob), "--alpha", "1/4")
    assert code == 0 and out.startswith("NOT-PSD ")
    printed = json.loads(out.removeprefix("NOT-PSD "))
    assert printed["kind"] == "zero_pivot_offdiagonal" and (printed["row"], printed["col"]) == ("0", "1")
    assert _exact_number(printed["value"]) == value


def test_farley(capsys):
    code, out, _ = run(capsys, "farley", "--element", REMARK, "--beta", "1/2")
    assert code == 0
    assert "norm_sq=6" in out
    assert "exponential-family=differs" in out
    assert "decay=exp(-1/2)^6" in out
    code, out, _ = run(capsys, "farley", "--element", "(f1 f1)/(f2 f1)")
    assert "exponential-family=matches" in out
    code, out, err = run(capsys, "farley", "--element", "g", "--beta", "-1")
    assert code == 1 and out == "" and err.count("\n") == 1 and "contract violation" in err
    # float(beta) overflows past about 1.8e308; exp(-beta * (2n - 2)) is 0.0
    # long before, and 1.0 at exponent 0
    for literal, expected in (("g", "0.0"), ("./.", "1.0")):
        code, out, err = run(capsys, "farley", "--element", literal, "--beta", "1e400", "--float")
        assert code == 0 and err == "" and out.endswith(f"decay_float={expected}\n")


def test_farley_runs_the_cover_sum_once(capsys, monkeypatch):
    calls = []
    class_sum = coefficients._class_sum
    monkeypatch.setattr(coefficients, "_class_sum", lambda g: calls.append(g) or class_sum(g))
    code, out, _ = run(capsys, "farley", "--element", "g_3")
    assert code == 0 and len(calls) == 1 and out.endswith("exponential-family=differs\n")


def test_sweep_runs_the_cover_sum_once(capsys, monkeypatch):
    calls = []
    class_sum = coefficients._class_sum
    monkeypatch.setattr(coefficients, "_class_sum", lambda g: calls.append(g) or class_sum(g))
    code, out, _ = run(capsys, "sweep", "--element", "g_3", "--alphas", "0,1/2,1")
    assert code == 0 and len(calls) == 1 and out.count("\n") == 4
    # the alphas are all checked first, with phi_alpha_eval's message
    code, out, err = run(capsys, "sweep", "--element", "g_3", "--alphas", "1/2,3/2,x")
    assert code == 1 and out == "" and len(calls) == 1
    assert err == "contract violation: phi_alpha_eval: alpha must lie in [0, 1]\n"


def test_kazhdan_kn(capsys):
    code, out, _ = run(capsys, "kazhdan", "kn", "--n", "1", "--m", "1")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[2] == "2480625/4194304"
    assert row[4] == "exact-match"


def test_kazhdan_almost_invariant(capsys):
    code, out, _ = run(
        capsys, "kazhdan", "almost-invariant", "--element", "(f1 f1)/(f2 f1)", "--m", "1"
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[1] == "225/256"
    assert row[3] == "True"


def test_kazhdan_level_cap(capsys):
    # level 8 is refused up front with the size of its exact bound
    for argv in (["kn", "--n", "2"], ["almost-invariant", "--element", "k"]):
        code, out, err = run(capsys, "kazhdan", *argv, "--m", "8")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "outside 1..7" in err and "1,572,864-bit" in err
    start = time.perf_counter()
    code, out, err = run(capsys, "kazhdan", "almost-invariant", "--element", "k", "--m", "7", "--json")
    assert code == 0 and out.count("\n") == 1 and err == ""
    assert time.perf_counter() - start < 10
    payload = json.loads(out)
    assert payload["m"] == 7 and payload["satisfied"] is True
    value, bound = (
        Fraction(*(int(Decimal(part)) for part in payload[key].split("/"))) for key in ("coefficient", "bound")
    )
    assert value == almost_invariance(builtin("k"), 7) and bound == invariance_bound(7) < value < 1


def test_int_text_matches_decimal():
    # str(int) refuses past 4300 digits; _int_text must print what Decimal prints
    rng = random.Random(7)
    cases = [0, 1, -1, 2**4095, 2**4096 - 1, 2**4096, -(2**4096), 2**8192 + 1, 2**12288 - 1]
    for digits in (4299, 4300, 4301, 9000):
        cases += [10**digits - 1, 10**digits, -(10**digits) - 7, rng.randrange(10**digits)]
    cases += [rng.getrandbits(bits) for bits in (4097, 14_000, 14_300, 50_000, 100_003)]
    cases.append((2**21 - 1) ** 16384)  # the numerator of the level-7 bound
    for n in cases:
        assert _int_text(n) == str(Decimal(n))


def test_numbers_past_str_limits_print_exactly(tmp_path):
    # past 4,300 digits str(int) raises, and each of these exited 1 with a traceback
    env = _subprocess_env()

    def cli_out(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "forestrep.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0 and proc.stderr == "", argv
        return proc.stdout

    g = builtin("g")
    alpha = Fraction(1, 10**600)
    rows = list(csv.reader(cli_out("sweep", "--element", "g", "--alphas", "1e-600").splitlines()))
    assert rows[0] == SWEEP_FIELDS and len(rows) == 2
    assert _exact_number(rows[1][2]) / _exact_number(rows[1][3]) == alpha
    assert _exact_number(rows[1][4]) / _exact_number(rows[1][5]) == phi_alpha_eval(g, alpha)

    alpha = Fraction(1, 10**2200)
    table = vanishing_scan(alpha, 2)
    expected = [
        [format_element_literal(h), row.leaves, alpha, value] for row in table for h, value in row.values
    ]
    argv = ["scan-vanishing", "--alpha", "1e-2200", "--max-leaves", "2"]
    out = cli_out(*argv)
    target = tmp_path / "scan.csv"
    summary = "".join(line for line in out.splitlines(True) if line.startswith("#"))
    assert cli_out(*argv, "--csv", str(target)) == summary
    for text in (out, target.read_text(encoding="ascii")):
        rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
        assert rows[0] == SWEEP_FIELDS
        assert [
            [name, int(leaves), _exact_number(an) / _exact_number(ad), _exact_number(pn) / _exact_number(pd)]
            for name, leaves, an, ad, pn, pd in rows[1:]
        ] == expected
    summaries = [line.split() for line in out.splitlines() if line.startswith("#")]
    assert [
        (int(n[2:]), int(count[6:]), _exact_number(phi[4:]), _exact_number(deviation[14:]))
        for _, n, count, phi, deviation in summaries
    ] == [(row.leaves, row.count, row.phi_value, row.max_deviation) for row in table]

    decay = farley_phi(g, Fraction(10**4300))
    line = cli_out("farley", "--element", "g", "--beta", "1e4300").splitlines()[-1]
    beta, exponent = line.removeprefix("decay=exp(-").split(")^")
    assert (_exact_number(beta), int(exponent)) == (decay.beta, decay.exponent) == (10**4300, 8)


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "parity", "--bound", "3")
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "term-parity"
    assert report["violations"] == 0
    code, out, _ = run(capsys, "oracle", "reduction", "--bound", "30", "--seed", "11")
    assert code == 0
    assert json.loads(out)["violations"] == 0


def test_oracle_bounds_refused_up_front(capsys):
    for which, count in (
        ("word-injectivity", "290512 trees"),
        ("cyclic-forest", "1033411 forests"),
        ("parity", "290512 trees"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", which, "--bound", "13")
        assert time.perf_counter() - start < 2
        assert code == 1 and out == "" and err.count("\n") == 1 and count in err
    for which in ("word-injectivity", "cyclic-forest", "parity", "reduction"):
        for bound in ("0", "-1"):
            code, out, err = run(capsys, "oracle", which, "--bound", bound)
            assert code == 1 and out == "" and err.count("\n") == 1 and "below 1" in err
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "reduction", "--bound", "1000000000")
    assert time.perf_counter() - start < 2
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "samples 1000000000 is over the cap of 25000" in err


def test_element_file_input(tmp_path, capsys):
    blob = tmp_path / "one.json"
    blob.write_text(json.dumps({"domain": "f2 f1", "range": "f1 f1"}))
    code, out, _ = run(capsys, "phi", "--element", str(blob), "--symbolic")
    assert code == 0 and out.strip() == "alpha^4"


def test_family_literals(capsys):
    code, out, _ = run(capsys, "element", "reduce", "k_1")
    assert code == 0
    assert out.strip() == format_element_literal(family_kn(1))
