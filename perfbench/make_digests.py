"""Regenerate perfbench/digests.json: the canonical-bytes digest of every
record in every workload pool, plus the documented verdicts of the corpus
pairs, and print each pool's shape.

    python3 perfbench/make_digests.py

Run it only when the analysis output is meant to change; the benchmark's
correctness gate compares every run against the committed file.
"""

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, os.path.join(workloads.ROOT, "src"))

from tracegenus import orders, report  # noqa: E402
from tracegenus.errors import TraceGenusError  # noqa: E402
from tracegenus.polys import parse_poly  # noqa: E402
from tracegenus.traceform import analyze_field  # noqa: E402

# README: "the quartic pair lands in different spinor genera, the sextic
# pair in the same one"
PAIR_VERDICTS = {
    "klein-quartic-a|klein-quartic-b": gate.DIFFERENT,
    "sextic-pair-a|sextic-pair-b": gate.SAME,
}


def pool_digests(name):
    out, shape = {}, []
    for rec in workloads.pool(name):
        orders.mult_table.cache_clear()
        t0 = time.perf_counter()
        try:
            fa = analyze_field(parse_poly(rec.text))
        except TraceGenusError as exc:
            out[rec.text] = "error:" + type(exc).__name__
            continue
        doc = report.analysis_document(fa, rec.text)
        elapsed = time.perf_counter() - t0
        problems = gate.check_analysis(doc)
        if problems:
            raise SystemExit("%s: %s" % (rec.label, problems))
        out[rec.text] = gate.digest(report.canonical_bytes(doc))
        shape.append((fa.degree, len(str(fa.index)), len(str(abs(fa.disc))), elapsed))
    return out, shape


def _dist(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return "min %.3g  q1 %.3g  median %.3g  q3 %.3g  max %.3g" % (
        min(values), q[0], q[1], q[2], max(values))


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    data = {"verdicts": PAIR_VERDICTS, "records": {}}
    for name in workloads.WORKLOADS:
        digests, shape = pool_digests(name)
        data["records"][name] = digests
        errors = sum(1 for v in digests.values() if v.startswith("error:"))
        print("%-9s pool %d, errors %d" % (name, len(digests), errors))
        print("  degree        ", _dist([s[0] for s in shape]))
        print("  index digits  ", _dist([s[1] for s in shape]))
        print("  disc digits   ", _dist([s[2] for s in shape]))
        print("  seconds       ", _dist([s[3] for s in shape]))
    with open(gate.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
