"""Spans around pathlab's public functions, installed from outside the package.

``install`` replaces every public module-level function of the traced
modules with a wrapper that records a span (name, start, end, parent span,
verdict id) and, for a few functions, counts of the work it was handed.  A
name imported into another module (``from .paths import vec_delta``) is
rebound there too, so a call is recorded whichever binding it goes through.
``uninstall`` restores every original binding.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

TRACED_MODULES = (
    "paths",
    "shifts",
    "jointrees",
    "greedy",
    "witnesses",
    "formulas",
    "relations",
    "cli",
    "_kernels",
)

# span fields
NAME, START, END, PARENT, VERDICT, TAG = range(6)

# what the items of a traced generator are called in the counters
ITEM_NAMES = {"jointrees.enumerate_strict": "trees", "shifts.enumerate_all": "perms"}

# counters kept per function, besides calls and errors (0 when never called)
COUNTERS = {
    "kernels.max_ordering_value": ("states", "max_m", "small"),
    "shifts.best_shift": ("candidates",),
    "shifts.enumerate_all": ("perms",),
    "jointrees.psi": ("repeats",),
    "jointrees.branch_coverings": ("coverings",),
    "jointrees.enumerate_strict": ("trees",),
    "jointrees.check_psi_recurrences": ("checked",),
    "formulas.check_formula_correct": ("checked",),
    "formulas.truth_table": ("bits",),
    "relations.minterms": ("alphas", "kept"),
    "relations.join": ("tuples_out",),
}


class Tracer:
    """Span store plus the per-function counters that spans cannot express."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.verdict = -1
        self.active = True
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: defaultdict = defaultdict(Counter)
        self._seen_trees: set = set()
        self._bindings: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.verdict, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, tag=None) -> None:
        span = self.spans[idx]
        span[END] = self.clock()
        span[TAG] = tag
        self.stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        before = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = before

    # -- counters taken at the call boundary ------------------------------------

    def _note(self, name: str, args, kwargs, result):
        """Counters for one finished call; returns the span tag (m for the
        kernels whose time is broken down by size)."""
        c = self.counts[name]
        if name in ("kernels.max_ordering_value", "shifts.best_shift"):
            m = len(args[0])
            if name == "shifts.best_shift":
                c["candidates"] += 1 << (m - 1) if m else 0
            else:
                c["states"] += 1 << m
                c["max_m"] = max(c["max_m"], m)
                c["small"] += m <= 8
            return m
        if name == "jointrees.psi":
            tree = args[0] if args else kwargs["t"]
            c["repeats"] += tree in self._seen_trees
            self._seen_trees.add(tree)
        elif name == "jointrees.branch_coverings":
            c["coverings"] += len(result)
        elif name in ("jointrees.check_psi_recurrences", "formulas.check_formula_correct"):
            c["checked"] += result["checked"]
        elif name == "formulas.truth_table":
            varlist = args[1] if len(args) > 1 else kwargs["varlist"]
            c["bits"] += 1 << len(varlist)
        elif name == "relations.minterms":
            g = args[1] if len(args) > 1 else kwargs["g"]
            n = args[3] if len(args) > 3 else kwargs["n"]
            c["alphas"] += n ** g.num_vertices
            c["kept"] += len(result.tuples)
        elif name == "relations.join":
            c["tuples_out"] += len(result.tuples)
        return None

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                tracer.close(idx)
                raise
            tracer.close(idx, tracer._note(name, args, kwargs, result))
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        """Each resumption of the generator is one span, so its body time is
        its own and not its consumer's; ``calls`` counts invocations."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            tracer.calls[name] += 1
            return tracer._resume_each(gen, name)

        return traced

    def _resume_each(self, gen, name: str):
        while True:
            idx = self.open(name)
            try:
                item = next(gen)
            except StopIteration:
                self.close(idx)
                return
            except BaseException:
                self.errors[name] += 1
                self.close(idx)
                raise
            self.close(idx)
            self.counts[name][ITEM_NAMES.get(name, "items")] += 1
            yield item

    # -- installation -------------------------------------------------------------

    def install(self, package: str = "pathlab") -> list[str]:
        """Wrap the public functions of the traced modules; returns their names."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in TRACED_MODULES}
        wrappers: dict[int, object] = {}
        names = []
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short.lstrip('_')}.{attr}"  # metric names start with a letter
                wrappers[id(obj)] = (obj, self.wrap(obj, name))
                names.append(name)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return sorted(names)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: defaultdict = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        s, e = span[START], span[END]
        kids = [(max(a, s), min(b, e)) for a, b in children.get(idx, ()) if b > s and a < e]
        out.append((e - s) - covered(kids))
    return out


def summarize(spans, calls, errors) -> dict[str, dict]:
    """calls, self_s, total_s and errors per function, plus self_s by tag."""
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span[NAME]]
        row["self_s"] += own
        if span[PARENT] < 0 or spans[span[PARENT]][NAME] != span[NAME]:
            row["total_s"] += span[END] - span[START]
        if span[TAG] is not None:
            key = f"self_s.m{span[TAG]}"
            row[key] = row.get(key, 0.0) + own
    for name, n in calls.items():
        table[name]["calls"] = n
    for name, n in errors.items():
        table[name]["errors"] = n
    return dict(table)


def unattributed(spans, verdict_windows) -> float:
    """Time inside verdicts that no top-level pathlab span covers."""
    tops: defaultdict = defaultdict(list)
    for span in spans:
        if span[PARENT] < 0:
            tops[span[VERDICT]].append((span[START], span[END]))
    return sum((e - s) - covered(tops.get(v, ())) for v, (s, e) in verdict_windows.items())
