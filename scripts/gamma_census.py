#!/usr/bin/env python3
"""Census of a corpus: tameness, gamma classification, exceptional primes.

Reads a `label,polynomial` CSV, analyzes every record, and prints one row per
field with its degree, discriminant factorization, tameness, gamma verdict,
and exceptional prime. With --verify it also evaluates the alpha/valuation
identity at every odd tame ramified non-exceptional prime of each gamma field
with the test suite's oracle (tests/helpers.py) and reports the check count;
any failure flips the exit code to 1.

Example:

    python scripts/gamma_census.py corpus/fields.csv --verify
    python scripts/gamma_census.py corpus/pairs.csv --only-gamma
"""

import argparse
import os
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from helpers import verify_alpha_formula
from tracegenus.corpus import read_corpus
from tracegenus.errors import TraceGenusError
from tracegenus.polys import parse_poly
from tracegenus.traceform import analyze_field


@dataclass(frozen=True)
class CensusConfig:
    corpus: str
    only_gamma: bool
    verify: bool


def disc_word(analysis):
    sign = "-" if analysis.disc < 0 else ""
    body = " ".join(
        "%d^%d" % (p, e) if e > 1 else str(p) for p, e in analysis.disc_factored
    )
    return sign + (body or "1")


def census(config):
    rows = [["label", "deg", "disc", "tame", "gamma", "exceptional", "failing"]]
    skipped = []
    checks = failures = 0
    for record in read_corpus(config.corpus):
        try:
            analysis = analyze_field(parse_poly(record.text))
        except TraceGenusError as exc:
            skipped.append((record.label, str(exc)))
            continue
        g = analysis.gamma
        if config.only_gamma and not g.is_gamma:
            continue
        rows.append(
            [
                record.label,
                str(analysis.degree),
                disc_word(analysis),
                "yes" if g.is_tame else "no",
                "yes" if g.is_gamma else "no",
                "-" if g.exceptional is None else str(g.exceptional),
                ",".join(str(p) for p in g.failing) or "-",
            ]
        )
        if config.verify and g.is_gamma:
            for st in analysis.splittings:
                if st.p == 2 or st.p == g.exceptional:
                    continue
                checks += 1
                if not verify_alpha_formula(analysis, st.p):
                    failures += 1
                    print("FORMULA FAILURE: %s at p=%d" % (record.label, st.p))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    for label, message in skipped:
        print("skipped %s: %s" % (label, message))
    if config.verify:
        print()
        print("valuation identity: %d checks, %d failures" % (checks, failures))
    return 1 if failures else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("corpus", help="CSV file: label,polynomial")
    ap.add_argument("--only-gamma", action="store_true",
                    help="print only the gamma fields")
    ap.add_argument("--verify", action="store_true",
                    help="check the alpha/valuation identity on gamma fields")
    args = ap.parse_args(argv)
    return census(CensusConfig(args.corpus, args.only_gamma, args.verify))


if __name__ == "__main__":
    raise SystemExit(main())
