import csv
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from forestrep import coefficients
from forestrep.cli import SWEEP_FIELDS, _int_text, main
from forestrep.shiftrep import almost_invariance, invariance_bound
from forestrep.thompson import builtin, family_kn, format_element_literal, parse_element_literal


REMARK = "(f3 f1 f1)/(f3 f1 f1)~[3,2,1,4]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    # g_10000's nested classes would take about 2 * 10^8 leaf visits: refused
    # before any closure is built
    start = time.perf_counter()
    code, out, err = run(capsys, "phi", "--element", "g_10000", "--symbolic")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "leaf visits, over the cap of 10000000" in err
    assert time.perf_counter() - start < 10
    monkeypatch.setattr(coefficients, "COVER_STATE_CAP", 1)
    code, out, err = run(capsys, "phi", "--element", "g_40", "--symbolic")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "the cover sum of a 80-leaf element visits more than the cap of 1 states" in err


def _subprocess_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


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


def test_gram_files(tmp_path, capsys):
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
