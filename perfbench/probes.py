#!/usr/bin/env python3
"""Known-defect probes, one per process:

    PYTHONPATH=src python3 perfbench/probes.py NAME

Exit 0 when the probe's defect is gone, 1 when it reproduces.  A probe that
runs past its deadline (``DEADLINE_S``) is stopped by the caller and counts
as reproduced.  Probes are not timed, so fixing one moves no timing metric.
"""

from __future__ import annotations

import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
MEMORY_LIMIT = 1 << 30
DEFAULT_DEADLINE_S = 30.0
# phi_alpha(k_3) did not finish in 300 s; a polynomial-time phi takes ~1 ms
DEADLINE_S = {"phi_k3_deadline": 3.0}


def velement_comb_1500() -> bool:
    """A 1,500-leaf comb pair should reduce to the identity, not hit the
    recursion limit."""
    from forestrep import thompson, trees

    comb = trees.LEAF
    for _ in range(1499):
        comb = trees.caret(comb, trees.LEAF)
    return thompson.VElement(comb, comb).is_identity()


def family_gn_1200() -> bool:
    from forestrep import thompson

    return thompson.family_gn(1200).leaf_count == 2400


def parse_tree_2000() -> bool:
    from forestrep import trees

    return trees.parse_tree(" ".join(["f1"] * 2000)).leaf_count == 2001


def phi_k3_deadline() -> bool:
    """k_3 is a reduced F element with 40 leaves, so phi_alpha is alpha^78."""
    from forestrep import coefficients, thompson

    return coefficients.phi_alpha(thompson.family_kn(3)).alpha_coefficients() == (0,) * 78 + (1,)


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "forestrep.cli", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=DEFAULT_DEADLINE_S / 2,
    )


def _one_line(stderr: str) -> bool:
    text = stderr.strip()
    return bool(text) and "\n" not in text and "Traceback" not in text


def cli_gram_malformed_json() -> bool:
    """A malformed JSON elements file is a parse error: exit 2, one line."""
    path = OUT / "malformed_elements.json"
    path.write_text('[{"domain": "f1", "range": ', encoding="ascii")
    proc = _cli("gram", "--elements", str(path), "--alpha", "1/2")
    return proc.returncode == 2 and _one_line(proc.stderr)


def cli_gram_missing_file() -> bool:
    """A missing elements file: exit 1 with a one-line message."""
    path = OUT / "missing_elements.txt"
    path.unlink(missing_ok=True)
    proc = _cli("gram", "--elements", str(path), "--alpha", "1/2")
    return proc.returncode == 1 and _one_line(proc.stderr)


PROBES = {
    f.__name__: f
    for f in (
        velement_comb_1500,
        family_gn_1200,
        parse_tree_2000,
        phi_k3_deadline,
        cli_gram_malformed_json,
        cli_gram_missing_file,
    )
}


def deadline(name: str) -> float:
    return DEADLINE_S.get(name, DEFAULT_DEADLINE_S)


def main() -> int:
    name = sys.argv[1]
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    OUT.mkdir(exist_ok=True)
    try:
        ok = PROBES[name]()
    except Exception as exc:  # the defect reproduced: report it and exit 1
        print(f"{name}: {type(exc).__name__}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
