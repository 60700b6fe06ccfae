"""Seeded workloads for the forestrep benchmark.

Every workload is built from a ``random.Random(seed)``: the same seed gives
the same inputs.  A workload is a list of jobs plus the CLI commands and the
known-defect probes that go with it.  A job calls one public function of
forestrep through the module namespace ``fr`` (so a traced run sees the call
at the layer boundary) and carries a check that computes the expected value
itself, from the benchmark's own description of the inputs, never through
the function the job calls.
"""

from __future__ import annotations

import bisect
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

# Sizes: one pass over a job list takes 0.5-2.5 s on a 2-vCPU machine, so a
# 20 s run gets at least five rounds to take each job's fastest time from.
SCAN_MAX_LEAVES = 6
SCAN_SAMPLE_LEAVES = (7, 8, 9)
SCAN_SAMPLES_PER_SIZE = 150
SCAN_ALPHA = Fraction(1, 2)

GRAM_SIZES = (12, 20, 28)
GRAM_ALPHAS = (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))
# words of 8 letters rarely repeat an element within a set of 28
GRAM_WORD = 8
GRAM_SAMPLED_PAIRS = 8

SHIFT_JOBS_PER_LEVEL = {1: 60, 2: 40, 3: 2}
SHIFT_KN_LADDER = {2: 4, 3: 2}
SHIFT_MAX_LEAVES = 5

ARITH_SIZES = (50, 100, 200, 400, 600)
ARITH_COMBS = (100, 200, 400)
ARITH_EVAL_POINTS = 12
ARITH_COMB_EVAL_POINTS = 4
ARITH_POINT_BITS = 30


@dataclass
class Job:
    """One call into forestrep: ``fn(fr, *args)``, checked by ``check(result)``."""

    fn: Callable
    args: tuple
    check: Callable[[Any], bool]

    @property
    def kind(self) -> str:
        return self.fn.__name__


@dataclass
class CliCommand:
    """``forestrep`` arguments and a check of (exit code, stdout, stderr)."""

    argv: list[str]
    check: Callable[[int, str, str], bool]


@dataclass
class Built:
    jobs: list[Job]
    cli: Callable[[Any, str], list[CliCommand]]
    about: dict = field(default_factory=dict)  # what the seed drew, for the report line


# ---------------------------------------------------------------------------
# the benchmark's own description of elements: leaf depths of the domain and
# range partitions of [0, 1) and the image of each domain leaf.  Expected
# values are computed from this description, not from forestrep.

@dataclass(frozen=True)
class Pair:
    domain: tuple[int, ...]
    range: tuple[int, ...]
    images: tuple[int, ...]

    def apply(self, x: Fraction) -> Fraction:
        """The piecewise-linear map at a point of [0, 1)."""
        dstarts = _cell_starts(self.domain)
        rstarts = _cell_starts(self.range)
        k = bisect.bisect_right(dstarts, x) - 1
        j = self.images[k] - 1
        return rstarts[j] + (x - dstarts[k]) * Fraction(1 << self.domain[k], 1 << self.range[j])

    def within_depth(self, m: int) -> bool:
        """The depth condition under which the level-m overlap bound holds:
        the domain fits inside the complete tree of depth m, and refining it
        to that tree keeps every range leaf at depth <= 2m."""
        return max(self.domain) <= m and all(
            self.range[self.images[k] - 1] - d <= m for k, d in enumerate(self.domain)
        )


def _cell_starts(depths) -> list[Fraction]:
    starts, pos = [], Fraction(0)
    for d in depths:
        starts.append(pos)
        pos += Fraction(1, 1 << d)
    return starts


def split_depths(rng, n: int) -> tuple[int, ...]:
    """Leaf depths of a tree grown by splitting a uniformly chosen leaf."""
    depths = [0]
    while len(depths) < n:
        i = rng.randrange(len(depths))
        d = depths[i] + 1
        depths[i : i + 1] = [d, d]
    return tuple(depths)


def shallow_depths(rng, n: int) -> tuple[int, ...]:
    """Leaf depths of a random split tree: each node splits its leaves at a
    uniform point, so the depth stays logarithmic in expectation."""
    out, stack = [], [(n, 0)]
    while stack:
        k, d = stack.pop()
        if k == 1:
            out.append(d)
            continue
        left = rng.randint(1, k - 1)
        stack.append((k - left, d + 1))
        stack.append((left, d + 1))
    return tuple(out)


def comb_pair(n: int) -> Pair:
    """The exchange element on two left combs of n leaves under one caret:
    odd leaves of the first comb swap with those of the second."""
    comb = (n - 1,) + tuple(range(n - 1, 0, -1))
    images = list(range(1, 2 * n + 1))
    for odd in range(1, n + 1, 2):
        images[odd - 1] = odd + n
        images[odd + n - 1] = odd
    doubled = tuple(d + 1 for d in comb) * 2
    return Pair(doubled, doubled, tuple(images))


def random_images(rng, n: int, kind: str) -> tuple[int, ...]:
    if kind == "F" or n == 1:
        return tuple(range(1, n + 1))
    if kind == "T":
        c = rng.randrange(1, n)
        return tuple((k + c) % n + 1 for k in range(n))
    images = list(range(1, n + 1))
    while images == sorted(images):
        rng.shuffle(images)
    return tuple(images)


def tree(fr, depths):
    """Build a forestrep tree from leaf depths, without recursion."""
    stack = []
    for d in depths:
        node, depth = fr.trees.LEAF, d
        while stack and stack[-1][1] == depth:
            left, _ = stack.pop()
            node, depth = fr.trees.caret(left, node), depth - 1
        stack.append((node, depth))
    if len(stack) != 1 or stack[0][1] != 0:
        raise ValueError(f"leaf depths {depths[:8]}... do not describe a tree")
    return stack[0][0]


def element(fr, p: Pair):
    th = fr.thompson
    return th.VElement(tree(fr, p.domain), tree(fr, p.range), th.Perm(p.images))


def dyadic_point(rng, bits: int) -> Fraction:
    return Fraction(rng.randrange(1 << bits), 1 << bits)


def as_fraction(x) -> Fraction:
    """forestrep returns dyadic points as Dyadic; compare them as rationals."""
    to_fraction = getattr(x, "to_fraction", None)
    return to_fraction() if to_fraction else Fraction(x)


def frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# job functions: each calls one public forestrep function at call time

def phi_alpha_eval(fr, g, alpha):
    return fr.coefficients.phi_alpha_eval(g, alpha)


def gram_psd_check(fr, elements, alpha):
    return fr.coefficients.gram_psd_check(elements, alpha)


def almost_invariance(fr, g, m):
    return fr.shiftrep.almost_invariance(g, m)


def kn_coefficient(fr, n, m):
    z = fr.shiftrep.zeta(m)
    return fr.shiftrep.kn_coefficient(n, [z] * 2**n, z)


def c_constant(fr, m):
    return fr.shiftrep.c_constant(fr.shiftrep.zeta(m))


def multiply(fr, g, h):
    return fr.thompson.multiply(g, h)


def inverse(fr, g):
    return fr.thompson.inverse(g)


def eval_pl(fr, g, x):
    return fr.thompson.eval_pl(g, x)


# ---------------------------------------------------------------------------
# independent expected values

def pure_power(alpha: Fraction, leaves: int) -> Fraction:
    """phi_alpha on a reduced rotation pair with n leaves is alpha^(2n-2)."""
    return alpha ** (2 * leaves - 2)


def shift_constant(m: int) -> Fraction:
    """C = <S z, z>^2 <z, S^2 z> for the normalized indicator of a window of
    h = 2m 8^m points: ((h-1)/h)^2 (h-2)/h."""
    h = 2 * m * 8**m
    return Fraction(h - 1, h) ** 2 * Fraction(h - 2, h)


def invariance_floor(m: int) -> Fraction:
    return Fraction(8**m - 1, 8**m) ** (4**m)


def _equals(expected):
    return lambda result: result == expected


def _overlap_ok(pair: Pair, m: int):
    floor = invariance_floor(m) if pair.within_depth(m) else Fraction(0)

    def check(value):
        return isinstance(value, Fraction) and floor <= value <= 1

    return check


def _composes(fr, first: Pair, then: Pair, points):
    """The result acts as ``then`` after ``first`` at every point."""

    def check(result):
        return all(
            as_fraction(fr.thompson.eval_pl(result, x)) == then.apply(first.apply(x)) for x in points
        )

    return check


def _inverts(fr, pair: Pair, points):
    def check(result):
        return all(
            as_fraction(fr.thompson.eval_pl(result, pair.apply(x))) == x for x in points
        )

    return check


def _is_identity(result) -> bool:
    return result.is_identity()


def _point_is(expected: Fraction):
    return lambda result: as_fraction(result) == expected


# ---------------------------------------------------------------------------
# workloads

def build_scan(fr, rng) -> Built:
    """phi_alpha on every reduced rotation pair with <= 6 leaves, a seeded
    sample of reduced rotation pairs with 7-9 leaves, and k_1, k_2."""
    co, th = fr.coefficients, fr.thompson
    elements = [(g, g.leaf_count) for g in co.reduced_rotation_elements(SCAN_MAX_LEAVES)]
    counts = {}
    for _, n in elements:
        counts[n] = counts.get(n, 0) + 1
    for n in SCAN_SAMPLE_LEAVES:
        kept = 0
        while kept < SCAN_SAMPLES_PER_SIZE:
            c = rng.randrange(n)
            images = tuple((k + c) % n + 1 for k in range(n))
            g = element(fr, Pair(split_depths(rng, n), split_depths(rng, n), images))
            if g.leaf_count == n:
                elements.append((g, n))
                kept += 1
    # k_n is a reduced F element with 5 * 2^n leaves
    elements += [(th.family_kn(1), 10), (th.family_kn(2), 20)]
    jobs = [
        Job(phi_alpha_eval, (g, SCAN_ALPHA), _equals(pure_power(SCAN_ALPHA, n)))
        for g, n in elements
    ]
    probe_g, probe_n = elements[-3]

    def cli(fr, workdir):
        lit = fr.thompson.format_element_literal(probe_g)
        alpha = Fraction(1, 3)
        return [
            CliCommand(
                ["phi", "--element", lit, "--alpha", "1/2"],
                lambda rc, out, err: rc == 0
                and out.strip() == frac_text(pure_power(SCAN_ALPHA, probe_n)),
            ),
            CliCommand(
                ["scan-vanishing", "--alpha", "1/3", "--max-leaves", "5"],
                lambda rc, out, err: rc == 0 and _scan_summary_ok(out, alpha, 5, counts),
            ),
        ]

    return Built(jobs, cli)


def _scan_summary_ok(out: str, alpha: Fraction, max_leaves: int, counts) -> bool:
    lines = [ln for ln in out.splitlines() if ln.startswith("# n=")]
    if len(lines) != max_leaves:
        return False
    for n, line in enumerate(lines, 1):
        want = (
            f"# n={n} count={counts[n]} phi={frac_text(pure_power(alpha, n))}"
            " max_deviation=0/1"
        )
        if line != want:
            return False
    return True


def build_gram(fr, rng) -> Built:
    """Exact PSD verdicts on a ladder of random-word element sets."""
    th = fr.thompson
    gens = th.standard_generators()
    letters = gens + tuple(th.inverse(g) for g in gens)
    sets = [[_word(th, letters, rng) for _ in range(size)] for size in GRAM_SIZES]
    jobs = []
    for elements in sets:
        for alpha in GRAM_ALPHAS:
            pairs = [
                (rng.randrange(len(elements)), rng.randrange(len(elements)))
                for _ in range(GRAM_SAMPLED_PAIRS)
            ]
            jobs.append(
                Job(gram_psd_check, (elements, alpha), _gram_check(fr, elements, alpha, pairs))
            )

    def cli(fr, workdir):
        # one command per set, so that the seed's draw averages out as in the jobs
        commands = []
        for k, (elements, alpha) in enumerate(zip(sets, GRAM_ALPHAS)):
            path = f"{workdir}/gram_elements_{k}.txt"
            with open(path, "w", encoding="ascii") as fh:
                fh.writelines(fr.thompson.format_element_literal(g) + "\n" for g in elements)
            commands.append(
                CliCommand(
                    ["gram", "--elements", path, "--alpha", frac_text(alpha)],
                    lambda rc, out, err: rc == 0 and out.strip() == "PSD",
                )
            )
        return commands

    elements = [g for s in sets for g in s]
    about = {
        "gram_classes": dict(sorted(Counter(th.classify(g) for g in elements).items())),
        "gram_leaves": dict(sorted(Counter(g.leaf_count for g in elements).items())),
        "gram_repeats": sum(len(s) - len(set(s)) for s in sets),
    }
    return Built(jobs, cli, about)


def _word(th, letters, rng):
    """A random word of GRAM_WORD letters over the standard generators and
    their inverses."""
    g = th.VElement.identity()
    for _ in range(GRAM_WORD):
        g = th.multiply(g, letters[rng.randrange(len(letters))])
    return g


def _gram_check(fr, elements, alpha, pairs):
    """The verdict must be PSD (phi_alpha is positive definite for alpha in
    [0, 1]).  The matrix M[i][j] = phi(g_i^-1 g_j) it decides has a unit
    diagonal and is symmetric; on sampled pairs, an order- or
    cyclic-order-preserving product takes the value alpha^(2n-2)."""
    th, co = fr.thompson, fr.coefficients

    def entry(i, j):
        g = th.multiply(th.inverse(elements[i]), elements[j])
        return g, co.phi_alpha_eval(g, alpha)

    def check(result):
        if getattr(result, "is_psd", None) is not True:
            return False
        if any(entry(i, i)[1] != 1 for i in range(len(elements))):
            return False
        for i, j in pairs:
            g, value = entry(i, j)
            if entry(j, i)[1] != value:
                return False
            if th.classify(g) != th.V_ONLY and value != pure_power(alpha, g.leaf_count):
                return False
        return True

    return check


def build_shift(fr, rng) -> Built:
    """Shift-representation overlaps on small elements at m = 1, 2, 3, the
    k_n ladder and the pairing constant."""
    jobs, pairs = [], []
    for m, count in SHIFT_JOBS_PER_LEVEL.items():
        for _ in range(count):
            n = rng.randint(1, SHIFT_MAX_LEAVES)
            p = Pair(split_depths(rng, n), split_depths(rng, n), random_images(rng, n, rng.choice("FTV")))
            pairs.append(p)
            jobs.append(Job(almost_invariance, (element(fr, p), m), _overlap_ok(p, m)))
    for m, top in SHIFT_KN_LADDER.items():
        for n in range(top + 1):
            jobs.append(Job(kn_coefficient, (n, m), _equals(shift_constant(m) ** (2**n))))
    for m in (1, 2, 3):
        jobs.append(Job(c_constant, (m,), _equals(shift_constant(m))))
    cli_pair = pairs[SHIFT_JOBS_PER_LEVEL[1]]

    def cli(fr, workdir):
        lit = fr.thompson.format_element_literal(element(fr, cli_pair))
        return [
            CliCommand(
                ["kazhdan", "kn", "--n", "2", "--m", "1", "--json"],
                lambda rc, out, err: rc == 0 and _kn_json_ok(out, 2, 1),
            ),
            CliCommand(
                ["kazhdan", "almost-invariant", "--element", lit, "--m", "2", "--json"],
                lambda rc, out, err: rc == 0 and _overlap_json_ok(out, cli_pair, 2),
            ),
        ]

    return Built(jobs, cli)


def _kn_json_ok(out: str, n: int, m: int) -> bool:
    report = json.loads(out)
    want = frac_text(shift_constant(m) ** (2**n))
    return report["coefficient"] == want and report["verdict"] == "exact-match"


def _overlap_json_ok(out: str, pair: Pair, m: int) -> bool:
    report = json.loads(out)
    value = Fraction(report["coefficient"])
    return report["bound"] == frac_text(invariance_floor(m)) and _overlap_ok(pair, m)(value)


def build_arith(fr, rng) -> Built:
    """multiply, inverse and eval_pl on large elements: random shallow trees
    with 50-600 leaves in all three classes, and deep exchange combs."""
    th = fr.thompson
    jobs = []
    ref = None
    for i, n in enumerate(ARITH_SIZES):
        gp = Pair(shallow_depths(rng, n), shallow_depths(rng, n), random_images(rng, n, "FTV"[i % 3]))
        hp = Pair(shallow_depths(rng, n), shallow_depths(rng, n), random_images(rng, n, "FTV"[(i + 1) % 3]))
        g, h = element(fr, gp), element(fr, hp)
        g_inv, h_inv = th.inverse(g), th.inverse(h)
        gh = th.multiply(g, h)
        points = [dyadic_point(rng, ARITH_POINT_BITS) for _ in range(ARITH_EVAL_POINTS)]
        checks = points[:3]
        jobs += [
            Job(multiply, (g, h), _composes(fr, hp, gp, checks)),
            Job(multiply, (h, g), _composes(fr, gp, hp, checks)),
            Job(multiply, (gh, h_inv), _equals(g)),
            Job(multiply, (g, g_inv), _is_identity),
            Job(inverse, (g,), _inverts(fr, gp, checks)),
        ]
        jobs += [Job(eval_pl, (g, x), _point_is(gp.apply(x))) for x in points]
        if ref is None and n >= 100:
            ref = (g, h, h_inv, gp, points[0])
    combs = []
    for n in ARITH_COMBS:
        cp = comb_pair(n)
        c = element(fr, cp)
        combs.append(c)
        points = [dyadic_point(rng, ARITH_POINT_BITS) for _ in range(ARITH_COMB_EVAL_POINTS)]
        # the exchange is an involution, so c*c is the identity and c^-1 = c
        jobs += [Job(multiply, (c, c), _is_identity), Job(inverse, (c,), _equals(c))]
        jobs += [Job(eval_pl, (c, x), _point_is(cp.apply(x))) for x in points]

    def cli(fr, workdir):
        lit = fr.thompson.format_element_literal
        g, h, h_inv, gp, x = ref
        return [
            CliCommand(
                ["element", "multiply", lit(g), lit(h), lit(h_inv)],
                lambda rc, out, err: rc == 0 and out.strip() == lit(g),
            ),
            CliCommand(
                ["element", "multiply", lit(combs[0]), lit(combs[0])],
                lambda rc, out, err: rc == 0 and out.strip() == "./.",
            ),
            CliCommand(
                ["element", "eval", lit(g), "--at", frac_text(x)],
                lambda rc, out, err: rc == 0 and Fraction(out.strip()) == gp.apply(x),
            ),
        ]

    return Built(jobs, cli)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    probes: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan", build_scan, ("phi_k3_deadline",)),
        Workload("gram", build_gram, ("cli_gram_malformed_json", "cli_gram_missing_file")),
        Workload("shift", build_shift, ()),
        Workload("arith", build_arith, ("velement_comb_1500", "family_gn_1200", "parse_tree_2000")),
    )
}

