"""In-memory span tracer that wraps csatools functions from outside.

The tracer never edits the package: it replaces every module-level binding
of a traced function (including names re-exported or imported by name into
other csatools modules) with a wrapper, and puts the originals back on
`uninstall`.  Each wrapped call records one span (id, parent id, root id,
name, start, end).  Self time is a span's duration minus the time its child
spans cover, accumulated per name as calls come back.  Work counts are
computed from each call's arguments, before the call runs.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from contextlib import contextmanager

_now = time.perf_counter
PACKAGE = "csatools"
MAX_SPANS = 200_000  # bounds memory; spans past it are only counted


def _codim(args, kwargs):
    return kwargs.get("codim", args[2] if len(args) > 2 else 0)


def _term_pairs(args, kwargs):
    a, b = args[0], args[1]
    return len(getattr(a, "terms", ())) * len(getattr(b, "terms", ()))


def _gcd_terms(args, kwargs):
    target = args[0]
    d = kwargs.get("d", args[2] if len(args) > 2 else 0)
    return int(target.p) ** int(d)


def _window_terms(args, kwargs):
    p, r = int(args[0]), int(args[1])
    if p < 3 or r < 1:
        return 0
    k = p ** (r * p) - p**r - p - 1
    return min(p**r + p + 1, k)


# (module, attribute, work counts computed from the arguments)
TRACED = (
    ("valuation", "is_prime_64bit", {}),
    ("valuation", "Prime", {}),
    ("valuation", "vp", {}),
    ("valuation", "vp_factorial_oracle", {}),
    ("valuation", "multinomial", {}),
    ("chowring", "multiply", {"term_pairs": _term_pairs}),
    ("chowring", "power", {}),
    ("karpenko", "karpenko_lower_bound", {"codim_sum": _codim}),
    ("karpenko", "proof_inequalities", {"window_terms": _window_terms}),
    ("karpenko", "corestriction_certificate", {}),
    ("brauer", "index_reduction", {"gcd_terms": _gcd_terms}),
    ("brauer", "combine", {}),
    ("brauer", "model_index", {}),
    ("brauer", "prop1_case_table", {}),
    ("brauer", "prop1_scenario", {}),
    ("brauer", "prop2_scenario", {}),
    ("bounds", "cofactor_m", {}),
    ("bounds", "prime_power_bound", {}),
    ("bounds", "general_bound", {}),
    ("verify", "karpenko_lower_bound_grouped", {}),
)


class Tracer:
    """Collects spans, per-name calls and self time, and argument-derived counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.spans_dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: dict[str, int] = {}  # "<name>.<count>" -> total
        self._stack: list[list] = []  # [span id, root id, name, start, child_s]
        self._next_id = 0
        self._undo: list[tuple] = []

    def reset(self):
        """Drop accumulated stats and counts; spans are kept."""
        self.stats = {}
        self.counts = {}

    def _enter(self, name):
        self._next_id += 1
        root = self._stack[-1][1] if self._stack else self._next_id
        self._stack.append([self._next_id, root, name, _now(), 0.0])

    def _exit(self):
        end = _now()
        span_id, root, name, start, child_s = self._stack.pop()
        duration = end - start
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration - child_s
        entry[2] += duration
        parent = None
        if self._stack:
            self._stack[-1][4] += duration
            parent = self._stack[-1][0]
        if self.keep_spans:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, root, name, start, end))
            else:
                self.spans_dropped += 1

    @contextmanager
    def span(self, name):
        """A span around code in the benchmark itself (an operation, a suite)."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, name, fn, counters):
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            for key, count in counters.items():
                metric = f"{name}.{key}"
                try:
                    work = count(args, kwargs)
                except (AttributeError, IndexError, TypeError, ValueError):
                    work = 0  # a call shape the counter does not know; the call itself still runs
                self.counts[metric] = self.counts.get(metric, 0) + work
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every binding of each traced function in every loaded csatools module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, attr, counters in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue  # a later version may drop or rename a function
            wrapper = self._wrap(f"{module_name}.{attr}", original, counters)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        self._undo.append((module, binding, original))

    def uninstall(self):
        for module, binding, original in reversed(self._undo):
            setattr(module, binding, original)
        self._undo = []

    def write_spans(self, path):
        """Write the kept spans as gzip'd JSON lines: id, parent, root, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
