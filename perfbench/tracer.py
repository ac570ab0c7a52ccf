"""In-memory spans around the package's public functions.

The package itself carries no instrumentation, so the benchmark wraps the
functions from outside: every module namespace under ``tracegenus`` that
holds a target function (``orders.factor_integer``, ``splitting.mult_table``,
``cli.analyze_field``, ...) gets the same wrapper, and leaving ``patched``
restores every original. Each call records a span (name, start, end,
parent, segment); a span's self time is its duration minus the part of it
that its child spans cover.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    module: str  # module that defines the function, under the package
    attr: str
    route: object = None  # (args, kwargs) -> suffix added to the span name
    outcome: object = None  # result -> counter suffix


def _split_route(max_order, p, method="auto"):
    """The route split_prime takes: the mod-p polynomial shape unless p
    divides the index (or the algebra route is forced)."""
    if method == "algebra" or (method != "polynomial" and max_order.index % p == 0):
        return "algebra"
    return "polynomial"


def _cache_outcome(result):
    doc, warning = result
    if doc is not None:
        return "hits"
    return "rejects" if warning else "misses"


TARGETS = (
    Target("traceform", "analyze_field"),
    Target("orders", "maximal_order"),
    Target("orders", "pmaximalize"),
    Target("orders", "order_from_rows"),
    Target("orders", "mult_table"),
    Target("linalg", "solve_lower_unit"),
    Target("linalg", "hnf_lower"),
    Target("linalg", "left_kernel_mod_p"),
    Target("linalg", "rref_mod_p"),
    Target("linalg", "det_bareiss"),
    Target("linalg", "signature_of_symmetric"),
    Target("polys", "discriminant"),
    Target("polys", "sturm_count_real_roots"),
    Target("arith", "factor_integer"),
    Target("arith", "is_prime"),
    Target("splitting", "split_prime", route=lambda a, k: _split_route(*a, **k)),
    Target("modp", "factor_mod_p"),
    Target("zfactor", "factor_over_z"),
    Target("traceform", "gram_matrix"),
    Target("report", "analysis_document"),
    Target("report", "analysis_from_document"),
    Target("report", "canonical_bytes"),
    Target("report", "dump_pretty"),
    Target("cli", "cache_load", outcome=_cache_outcome),
    Target("cli", "cache_store"),
    Target("genus", "compare_spinor_genus"),
    Target("genus", "predict_equivalence"),
    Target("genus", "cross_validate"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    segment: str


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = Counter()
        self.segment = ""
        self._stack = []

    def wrap(self, fn, name, route=None, outcome=None):
        clock, spans, stack = self.clock, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if route is None else name + "." + route(args, kwargs)
            span = Span(label, clock(), 0.0, stack[-1] if stack else -1, self.segment)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if outcome is not None:
                self.counters[label + "." + outcome(result)] += 1
            return result

        return traced


def _namespaces(package):
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


@contextmanager
def patched(tracer, targets=TARGETS, package="tracegenus"):
    """Install tracer wrappers for `targets` in every namespace of `package`
    that holds them; restore the originals on exit."""
    saved = []
    try:
        for t in targets:
            original = getattr(importlib.import_module("%s.%s" % (package, t.module)), t.attr)
            wrapper = tracer.wrap(original, "%s.%s" % (t.module, t.attr), t.route, t.outcome)
            for mod in _namespaces(package):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        saved.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def self_times(spans):
    """Self time of each span: duration minus the union of its children's
    intervals, clipped to the span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                           for c in children.get(i, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


def aggregate(spans, segment=None):
    """{name: (calls, total self seconds)} over all spans, or one segment's."""
    selfs = self_times(spans)
    out = defaultdict(lambda: [0, 0.0])
    for s, t in zip(spans, selfs):
        if segment is None or s.segment == segment:
            out[s.name][0] += 1
            out[s.name][1] += t
    return {k: tuple(v) for k, v in out.items()}
