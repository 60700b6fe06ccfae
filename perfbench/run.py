#!/usr/bin/env python3
"""Benchmark for forestrep: exact results, timed end to end and per layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload (see ``workloads.py``) is a closed loop with one client.  The
run is a series of rounds for ``--seconds``.  Each round starts one fresh
process that imports forestrep, builds the seeded inputs and runs the job list
once, back to back on its main thread, so every round is timed cold.  Then the
round runs the workload's CLI commands, each in its own
``python -m forestrep.cli`` process.  The processes run one at a time.
Every result is checked against a value the benchmark computes itself, after
the timing.  The known-defect probes (``probes.py``) run last.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run traces spans at every
layer boundary (``spans.py``) and reports the per-layer metrics instead.
The line before it, starting with ``report``, holds the sample counts,
``error_rate`` and ``probe_fail_ratio``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import types
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import probes
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

MIN_ROUNDS = 5
IMPORT_SAMPLES = 5
OVERHEAD_SAMPLES = 3
CLI_TIMEOUT_S = 60
LAYERS = ("trees", "thompson", "ring", "coefficients", "shiftrep")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cli_s": "s", "rss_peak_mib": "MiB"}
# per-job latency percentiles are reported (in the report line) only where
# the p90 has at least ten samples beyond it
MIN_LATENCY_SAMPLES = 100


class Unavailable(Exception):
    """The checkout has no forestrep sources to benchmark."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_forestrep(with_cli: bool = False):
    """Import forestrep from this checkout's sources, never from elsewhere."""
    if not (SRC / "forestrep" / "__init__.py").is_file():
        raise Unavailable(f"no forestrep package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("forestrep")
    if Path(package.__file__).resolve().parent != SRC / "forestrep":
        raise Unavailable(f"forestrep was imported from {package.__file__}, not {SRC}")
    names = LAYERS + (("cli",) if with_cli else ())
    return types.SimpleNamespace(**{n: importlib.import_module(f"forestrep.{n}") for n in names})


def setup(workload, seed: int):
    """Import forestrep and build the workload's inputs; returns the set-up time."""
    start = time.perf_counter()
    fr = load_forestrep()
    built = workload.build(fr, random.Random(seed))
    return fr, built, time.perf_counter() - start


# ---------------------------------------------------------------------------
# jobs

class Verifier:
    """Checks job results and counts the failures."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()

    def record(self, results):
        for i, result in enumerate(results):
            self.attempted += 1
            if isinstance(result, JobError):
                ok = False
                self.errors[result.kind] += 1
            else:
                try:
                    ok = bool(self.jobs[i].check(result))
                except Exception as exc:  # a malformed result must count, not stop the run
                    ok = False
                    self.errors[f"check:{type(exc).__name__}"] += 1
            if not ok:
                self.failed += 1


class JobError(NamedTuple):
    kind: str


def run_pass(fr, jobs):
    """Run every job once, back to back; returns results, latencies and wall time."""
    results, latencies = [], []
    clock = time.perf_counter
    begin = clock()
    for job in jobs:
        start = clock()
        try:
            result = job.fn(fr, *job.args)
        except Exception as exc:  # a failed job counts in error_rate
            result = JobError(type(exc).__name__)
        latencies.append(clock() - start)
        results.append(result)
    return results, latencies, clock() - begin


def cold_pass(workload, seed: int, alloc: bool = False) -> dict:
    """Set up and run the job list once in this (fresh) process, then check
    the results.  With ``alloc`` the pass runs under tracemalloc."""
    fr, built, setup_s = setup(workload, seed)
    if alloc:
        tracemalloc.start()
    results, latencies, wall = run_pass(fr, built.jobs)
    rss = rss_peak_mib()
    alloc_peak = None
    if alloc:
        alloc_peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    verifier = Verifier(built.jobs)
    verifier.record(results)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "latencies": latencies,
        "rss_peak_mib": rss,
        "alloc_peak_mib": alloc_peak,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "errors": dict(verifier.errors),
    }


# ---------------------------------------------------------------------------
# subprocesses, each run alone

def run_cli(commands):
    """Each command in its own ``python -m forestrep.cli`` process; returns
    the wall time of each and the number whose output was wrong."""
    walls, failed = [], 0
    for cmd in commands:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "forestrep.cli", *cmd.argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        walls.append(time.perf_counter() - start)
        if not cmd.check(proc.returncode, proc.stdout, proc.stderr):
            failed += 1
    return walls, failed


def cold_round(workload_name: str, seed: int, alloc: bool = False) -> dict:
    """``cold_pass`` in a fresh process."""
    mode = "--cold-alloc" if alloc else "--cold"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload_name, "--seed", str(seed), mode],
        cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_probe(name: str) -> bool:
    """True when the probe's defect is gone; a probe past its deadline fails."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probes.py"), name],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=probes.deadline(name),
        )
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import forestrep; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
    )
    return float(proc.stdout)


def prefix_cache(fr):
    """``cache_info()`` of the prefix cache.  If the cache is gone, this and
    the metrics taken from it must change with it."""
    info = getattr(fr.trees.subrooted_trees, "cache_info", None)
    if info is None:
        raise AttributeError("trees.subrooted_trees has no cache_info(); update the prefix cache metrics")
    return info()


def rss_peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# the two kinds of run

def end_to_end(args, workload):
    """Rounds while another one fits in ``seconds`` (at least MIN_ROUNDS):
    each round is one cold pass in a fresh process (set-up, the job list
    once, then the checks), then one run of each CLI command.

    Every end-to-end metric is a median over the rounds: ``setup_s``,
    ``wall_s`` and ``rss_peak_mib`` of the rounds' fresh processes, ``cli_s``
    of the rounds' CLI totals.  The job latency percentiles in the report line
    are taken over each job's median latency."""
    fr, built, _ = setup(workload, args.seed)
    OUT.mkdir(exist_ok=True)
    commands = built.cli(fr, str(OUT))
    rounds, cli_totals = [], []
    cli_failed = 0
    start = time.perf_counter()
    while True:
        rounds.append(cold_round(workload.name, args.seed))
        walls, failed = run_cli(commands)
        cli_totals.append(sum(walls))
        cli_failed += failed
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    probes = {name: run_probe(name) for name in workload.probes}

    attempted = sum(r["attempted"] for r in rounds) + len(rounds) * len(commands)
    failed = sum(r["failed"] for r in rounds) + cli_failed
    job_errors: Counter = Counter()
    for r in rounds:
        job_errors.update(r["errors"])
    latencies = [statistics.median(lat) for lat in zip(*(r["latencies"] for r in rounds))]
    probe_failures = sum(not ok for ok in probes.values())
    percentiles = len(latencies) >= MIN_LATENCY_SAMPLES
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": len(rounds),
        "pass_s": [round(r["wall_s"], 4) for r in rounds],
        "setup_samples_s": [round(r["setup_s"], 4) for r in rounds],
        "cli_samples_s": [round(t, 4) for t in cli_totals],
        "latency_samples": len(latencies),
        "job_p50_ms": statistics.median(latencies) * 1e3 if percentiles else None,
        "job_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3 if percentiles else None,
        "cli_commands": len(commands),
        "error_rate": failed / attempted,
        "job_errors": dict(job_errors),
        "probe_fail_ratio": probe_failures / len(probes) if probes else None,
        "probes": {name: "pass" if ok else "fail" for name, ok in probes.items()},
        **built.about,
    }
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cli_s": statistics.median(cli_totals),
        "rss_peak_mib": statistics.median(r["rss_peak_mib"] for r in rounds),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return report, attempted, failed, metrics


def traced(args, workload):
    """One fixed sequence, so that counts repeat exactly for a seed (and
    ``--seconds`` does not apply).  In this process, which has run nothing
    yet: set-up and one cold pass over the job list, both traced, then the
    CLI commands in process, traced.  The prefix cache's hit ratio is taken
    over the cold pass.  Then, each in a fresh process, untraced: cold passes
    for ``trace.overhead_ratio`` (traced pass / median untraced pass) and one
    cold pass under tracemalloc for ``trace.alloc_peak_mib``."""
    fr = load_forestrep(with_cli=True)
    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer(fr)
    with tracer.active():
        built = workload.build(fr, random.Random(args.seed))
    verifier = Verifier(built.jobs)

    cache_before = prefix_cache(fr)
    with tracer.active():
        results, _, traced_wall = run_pass(fr, built.jobs)
    cache_after = prefix_cache(fr)
    verifier.record(results)

    commands = built.cli(fr, str(OUT))
    with tracer.active():
        outputs = [run_cli_in_process(fr, cmd.argv) for cmd in commands]
    cli_failed = sum(not cmd.check(*output) for cmd, output in zip(commands, outputs))

    untraced = [cold_round(workload.name, args.seed) for _ in range(OVERHEAD_SAMPLES)]
    alloc_run = cold_round(workload.name, args.seed, alloc=True)

    units = spans.metric_units()
    metrics = {name: (value, units[name]) for name, value in tracer.metrics().items()}
    metrics["cli.import_s"] = (statistics.median(import_seconds() for _ in range(IMPORT_SAMPLES)), "s")
    metrics["trace.alloc_peak_mib"] = (alloc_run["alloc_peak_mib"], "MiB")
    metrics["trace.overhead_ratio"] = (traced_wall / statistics.median(r["wall_s"] for r in untraced), "ratio")
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    metrics["trees.subrooted_trees.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["trees.subrooted_trees.cache_entries"] = (cache_after.currsize, "count")
    span_file = OUT / f"spans-{workload.name}-{args.seed}.tsv.gz"
    tracer.write(span_file)

    rounds = untraced + [alloc_run]
    attempted = verifier.attempted + len(commands) + sum(r["attempted"] for r in rounds)
    failed = verifier.failed + cli_failed + sum(r["failed"] for r in rounds)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "jobs": len(built.jobs),
        "spans": len(tracer.names),
        "span_file": str(span_file.relative_to(ROOT)),
        "error_rate": failed / attempted,
        "job_errors": dict(verifier.errors),
        **built.about,
    }
    return report, attempted, failed, metrics


def run_cli_in_process(fr, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fr.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cold-alloc", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.cold or args.cold_alloc:
            print(json.dumps(cold_pass(workload, args.seed, alloc=args.cold_alloc)))
            return 0
        run = traced if args.trace else end_to_end
        report, attempted, failed, metrics = run(args, workload)
    except Unavailable as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
