#!/usr/bin/env python3
"""Time two checkouts of tracegenus against each other, field by field, in
one process.

Separate benchmark runs on a shared host spread by more than a 10-15 %
change in the per-field times; pairing both sides on each field does not.
The script copies A/src/tracegenus and B/src/tracegenus into a temporary
directory as two packages with different names (the package imports itself
only relatively), generates the benchmark workload with
perfbench/workloads.py, and runs each field through analyze_field,
analysis_document and canonical_bytes on both sides, alternating which side
goes first. Before each field it clears every cache of that side's package,
that is every module attribute with a cache_clear method (mult_table,
is_prime, and any cache added later), so each repeat pays what a fresh
process pays. Both sides must
give the same canonical bytes on every field. It prints each side's median
field time (p50), the benchmark's tail percentile and the sum of per-field
medians, and the ratios B / A.

Example:

    python scripts/paired_fields.py ../parent . --workload hard-disc --repeats 15
"""

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as perfbench  # noqa: E402  (its tail(); it imports workloads)

FIELD_ORDER_SEED = 1  # both sides meet each field in turn, so any order will do


def load_side(checkout, name, tmp):
    """The checkout's package, imported from a copy named `name` in tmp."""
    shutil.copytree(
        os.path.join(checkout, "src", "tracegenus"),
        os.path.join(tmp, name),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    for module in [m for m in sys.modules if m.split(".")[0] == name]:
        del sys.modules[module]  # a copy loaded by an earlier call
    pkg = importlib.import_module(name)
    for module in ("orders", "report", "traceform"):
        importlib.import_module(name + "." + module)
    return pkg


def clear_caches(name):
    """Clear every cache_clear-able attribute of the package `name`'s
    loaded modules."""
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == name]:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_field(pkg, rec, poly):
    """(seconds, canonical bytes or the error's name) of one field."""
    clear_caches(pkg.__name__)
    t0 = time.perf_counter()
    try:
        fa = pkg.traceform.analyze_field(poly)
        out = pkg.report.canonical_bytes(pkg.report.analysis_document(fa, rec.text))
    except pkg.TraceGenusError as exc:
        out = "error:" + type(exc).__name__
    return time.perf_counter() - t0, out


def paired_times(sides, records, repeats):
    """Per side, per field, the seconds of each repeat; None (after saying
    where) when the sides' canonical bytes differ."""
    polys = [[pkg.parse_poly(r.text) for r in records] for pkg in sides]
    times = [[[] for _ in records] for _ in sides]
    step = 0
    for i, rec in enumerate(records):
        for _ in range(repeats):
            outs = [None, None]
            for s in (0, 1) if step % 2 == 0 else (1, 0):
                t, outs[s] = run_field(sides[s], rec, polys[s][i])
                times[s][i].append(t)
            step += 1
            if outs[0] != outs[1]:
                print("%s: canonical bytes differ" % rec.label, file=sys.stderr)
                return None
    return times


def summary(medians):
    """(p50, tail, sum) in ms of per-field median seconds."""
    return (
        1000 * statistics.median(medians),
        1000 * perfbench.tail(medians)[0],
        1000 * sum(medians),
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="checkout A (the baseline)")
    ap.add_argument("b", help="checkout B")
    ap.add_argument("--workload", choices=sorted(perfbench.workloads.WORKLOADS), required=True)
    ap.add_argument("--repeats", type=int, default=11)
    args = ap.parse_args(argv)
    records = perfbench.workloads.generate(args.workload, FIELD_ORDER_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [load_side(args.a, "paired_a", tmp), load_side(args.b, "paired_b", tmp)]
        times = paired_times(sides, records, args.repeats)
        sys.path.remove(tmp)
    if times is None:
        return 1
    print("canonical bytes: identical on %d fields" % len(records))
    stats = [summary([statistics.median(ts) for ts in side]) for side in times]
    for label, (p50, tl, total) in zip("AB", stats):
        print("%s  p50 %.3f ms  tail %.3f ms  sum %.1f ms" % (label, p50, tl, total))
    (a50, atl, asum), (b50, btl, bsum) = stats
    print("B/A  p50 %.3f  tail %.3f  sum %.3f" % (b50 / a50, btl / atl, bsum / asum))
    return 0


if __name__ == "__main__":
    sys.exit(main())
