"""Layer-boundary spans for the traced benchmark run.

A ``Tracer`` wraps each public function listed in ``TARGETS`` where another
module calls it: the binding is replaced in the calling modules' namespaces
(and in the ``forestrep`` package), so a call from one layer into another is a
span while a function's recursive calls into itself are not.  Methods are
wrapped on their class.  Spans are kept in memory as parallel lists (name,
start, end, parent) and turned into per-layer counts and self times at the
end; ``uninstall`` puts every original back.  A target that is not found is
an error, so that a refactor that moves or renames one updates the list.

A span's ``after`` hook runs once the span has closed.  Its time is counted
neither in the span nor in the span's parent.
"""

from __future__ import annotations

import dis
import functools
import gzip
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, NamedTuple


class Target(NamedTuple):
    name: str  # span name and metric prefix
    module: str  # forestrep submodule that defines the function or class
    attr: str  # "function" or "Class.method"
    callers: tuple[str, ...] | None = None  # patch only these modules' bindings
    after: Callable | None = None  # hook(tracer, span, args, result)


# -- hooks: work counters measured where the work happens ---------------------

def _prefixes(tr, idx, args, result):
    tr.sums["trees.subrooted_trees.prefixes"] += len(result)
    tr.note_parent(idx, "coefficients.phi_alpha", len(result))


def _prefix_pairs(tr, idx, args, result):
    counts = tr.notes.pop(idx, [])
    if len(counts) == 2:
        tr.sums["coefficients.phi_alpha.prefix_pairs"] += counts[0] * counts[1]


def _merged_leaves(tr, idx, args, result):
    tr.note_parent(idx, "thompson.multiply", result.leaf_count)


def _carets_cancelled(tr, idx, args, result):
    merged = tr.notes.pop(idx, [])
    if merged:
        tr.sums["thompson.carets_cancelled"] += merged[0] - result.leaf_count


def _bits(value) -> int:
    q = Fraction(value)
    return q.numerator.bit_length() + q.denominator.bit_length()


def _ldlt_size(tr, idx, args, result):
    matrix = args[0]
    tr.peak("coefficients.psd_ldlt.dim", len(matrix))
    tr.peak("coefficients.psd_ldlt.max_entry_bits", max((_bits(v) for row in matrix for v in row), default=0))


def _eval_degree(tr, idx, args, result):
    tr.peak("ring.eval_max_degree", len(args[0].alpha_coefficients()) - 1)


def _entries_copied(tr, idx, args, result):
    tr.sums["shiftrep.SparseVec.shift.entries_copied"] += len(args[0].entries)


def _entries_scanned(tr, idx, args, result):
    tr.sums["shiftrep.SparseVec.dot.entries_scanned"] += min(len(args[0].entries), len(args[1].entries))


TARGETS = (
    Target("trees.subrooted_trees", "trees", "subrooted_trees", after=_prefixes),
    Target("trees.merge_trees", "trees", "merge_trees", after=_merged_leaves),
    Target("trees.graft", "trees", "graft"),
    Target("trees.residual_forest", "trees", "residual_forest"),
    Target("trees.caret_positions", "trees", "caret_positions"),
    Target("trees.collapse_caret", "trees", "collapse_caret"),
    Target("trees.enumerate_trees", "trees", "enumerate_trees"),
    Target("thompson.VElement", "thompson", "VElement.__init__"),
    Target("thompson.multiply", "thompson", "multiply", after=_carets_cancelled),
    Target("thompson.inverse", "thompson", "inverse"),
    Target("thompson.eval_pl", "thompson", "eval_pl"),
    Target("ring.RingElem.eval", "ring", "RingElem.eval", after=_eval_degree),
    Target("ring.RingElem.term", "ring", "RingElem.term"),
    Target("ring.RingElem.__mul__", "ring", "RingElem.__mul__"),
    Target("ring.RingElem.__mul__", "ring", "RingElem.__rmul__"),
    Target("ring.RingElem.__add__", "ring", "RingElem.__add__"),
    Target("ring.RingElem.__add__", "ring", "RingElem.__radd__"),
    Target("coefficients.phi_alpha", "coefficients", "phi_alpha", after=_prefix_pairs),
    Target("coefficients.phi_alpha_eval", "coefficients", "phi_alpha_eval"),
    Target("coefficients.gram_psd_check", "coefficients", "gram_psd_check"),
    Target("coefficients.psd_ldlt", "coefficients", "psd_ldlt", after=_ldlt_size),
    Target("shiftrep.almost_invariance", "shiftrep", "almost_invariance"),
    Target("shiftrep.kn_coefficient", "shiftrep", "kn_coefficient"),
    Target("shiftrep.c_constant", "shiftrep", "c_constant"),
    Target("shiftrep.zeta", "shiftrep", "zeta"),
    Target("shiftrep.SparseVec.shift", "shiftrep", "SparseVec.shift", after=_entries_copied),
    Target("shiftrep.SparseVec.dot", "shiftrep", "SparseVec.dot", after=_entries_scanned),
    Target("shiftrep.UnitVec.inner_shifts", "shiftrep", "UnitVec.inner_shifts"),
    Target("cli.main", "cli", "main"),
    Target("cli.parse_element_literal", "thompson", "parse_element_literal", callers=("cli",)),
    Target("cli.format_element_literal", "thompson", "format_element_literal", callers=("cli",)),
)

# metrics the tracer reports besides <target>.calls and <target>.self_s
COUNTERS = {
    "trees.subrooted_trees.prefixes": "count",
    "thompson.carets_cancelled": "count",
    "ring.eval_max_degree": "degree",
    "coefficients.phi_alpha.prefix_pairs": "count",
    "coefficients.psd_ldlt.dim": "rows",
    "coefficients.psd_ldlt.max_entry_bits": "bits",
    "shiftrep.SparseVec.shift.entries_copied": "count",
    "shiftrep.SparseVec.dot.entries_scanned": "count",
}

# metrics of the whole traced run, measured by run.py
RUN_METRICS = {
    "trees.subrooted_trees.hit_ratio": "ratio",
    "trees.subrooted_trees.cache_entries": "count",
    "cli.import_s": "s",
    "trace.alloc_peak_mib": "MiB",
    "trace.overhead_ratio": "ratio",
}

def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for t in TARGETS:
        units[f"{t.name}.calls"] = "count"
        units[f"{t.name}.self_s"] = "s"
    units.update(COUNTERS)
    units.update(RUN_METRICS)
    return units


def _is_recursive(fn) -> bool:
    """Whether the function calls itself through its module-level name."""
    code = getattr(inspect.unwrap(fn), "__code__", None)
    return code is not None and any(
        ins.opname == "LOAD_GLOBAL" and ins.argval == fn.__name__ for ins in dis.get_instructions(code)
    )


class Tracer:
    def __init__(self, fr):
        self.fr = fr
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.hook_s: dict[int, float] = {}
        self.stack: list[int] = []
        self.notes: dict[int, list[int]] = {}
        self.sums: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- counters -------------------------------------------------------------

    def note_parent(self, idx: int, parent_name: str, value: int):
        parent = self.parents[idx]
        if parent >= 0 and self.names[parent] == parent_name:
            self.notes.setdefault(parent, []).append(value)

    def peak(self, name: str, value: int):
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    # -- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn, after):
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self.stack
        hook_s = self.hook_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, idx, args, result)
                hook_s[idx] = clock() - ends[idx]
            return result

        return traced

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        modules = sorted(
            (name, mod)
            for name, mod in sys.modules.items()
            if name == "forestrep" or name.startswith("forestrep.")
        )
        for t in TARGETS:
            home = getattr(self.fr, t.module)
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(home, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    raise LookupError(f"trace target {t.module}.{t.attr} not found")
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(t.name, raw.__func__, t.after)))
                else:
                    self._set(cls, meth, self._wrap(t.name, raw, t.after))
                continue
            original = vars(home).get(t.attr)
            if original is None:
                raise LookupError(f"trace target {t.module}.{t.attr} not found")
            wrapper = self._wrap(t.name, original, t.after)
            patched = False
            for mod_name, mod in modules:
                if t.callers is not None and mod_name.rpartition(".")[2] not in t.callers:
                    continue
                if mod is home and _is_recursive(original):
                    continue
                if vars(mod).get(t.attr) is original:
                    self._set(mod, t.attr, wrapper)
                    patched = True
            if not patched:
                raise LookupError(f"trace target {t.module}.{t.attr} has no binding to patch")

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        covered = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += ends[i] - starts[i] + self.hook_s.get(i, 0.0)
        calls = Counter(names)
        self_s: defaultdict[str, float] = defaultdict(float)
        for i, name in enumerate(names):
            self_s[name] += ends[i] - starts[i] - covered[i]
        out: dict[str, float] = {}
        for t in TARGETS:
            out[f"{t.name}.calls"] = calls[t.name]
            out[f"{t.name}.self_s"] = self_s[t.name]
        for name in COUNTERS:
            out[name] = self.sums.get(name, self.peaks.get(name, 0))
        return out

    def write(self, path):
        """Write every span as ``id parent name start end`` (seconds) to a gzip TSV."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")
