#!/usr/bin/env python3
"""Regenerate corpus/fields.csv.

The corpus mixes three ingredients:

* named fields whose invariants are pinned in the test suite, including two
  quartic/sextic pairs sharing discriminants and the four cubic fields of
  discriminant 32009;
* a handcrafted batch covering edge cases (wild ramification at 2 and 3,
  degree 2, cyclotomic-style polynomials);
* deterministically sampled irreducible polynomials of degrees 2..8 with
  coefficients in [-30, 30]. Higher degrees are sampled sparser and smaller
  (still inside the envelope) to keep their discriminants factorable within
  the library's factorization limits.

The output is committed; rerunning this script must reproduce it byte for
byte (fixed seed, fixed iteration order).
"""

import os
import random
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tracegenus.errors import FactorizationLimitError
from tracegenus.polys import IntPoly, poly_to_string
from tracegenus.traceform import analyze_field
from tracegenus.zfactor import is_irreducible

SEED = 20260825
OUT = os.path.join(os.path.dirname(__file__), "..", "corpus", "fields.csv")

NAMED = [
    ("klein-quartic-a", "x^4 - 41*x^2 + 144"),
    ("klein-quartic-b", "x^4 - x^3 - 46*x^2 - 115*x - 35"),
    ("s4-quartic", "x^4 - x^3 - 7*x^2 + 11*x + 3"),
    ("d12-sextic", "x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5"),
    ("sextic-pair-a", "x^6 - x^5 - 2*x^4 + x^3 + 7*x^2 - 6*x + 4"),
    ("sextic-pair-b", "x^6 - 3*x^5 + 10*x^4 - 15*x^3 + 19*x^2 - 12*x + 3"),
    ("cubic-32009-a", "x^3 - x^2 - 20*x - 1"),
    ("cubic-32009-b", "x^3 - 41*x - 95"),
    ("cubic-32009-c", "x^3 - x^2 - 52*x + 159"),
    ("cubic-32009-d", "x^3 - 59*x - 171"),
    ("cyclo7", "x^6 + x^5 + x^4 + x^3 + x^2 + x + 1"),
    ("wild2-quartic", "x^4 + 1"),
    ("wild3-sextic", "x^6 + x^3 + 1"),
    ("wild3-cubic", "x^3 - 2"),
    ("quintic-2869", "x^5 - x + 1"),
    ("cubic-m23", "x^3 - x - 1"),
    ("quad-5", "x^2 - 5"),
    ("quad-gauss", "x^2 + 1"),
]

@dataclass(frozen=True)
class SampleBand:
    degree: int
    count: int
    bound: int  # coefficients drawn from [-bound, bound]
    zero_prob: float  # chance a coefficient is forced to zero


RANDOM_PLAN = [
    SampleBand(2, 6, 30, 0.0),
    SampleBand(3, 8, 30, 0.0),
    SampleBand(4, 8, 30, 0.1),
    SampleBand(5, 6, 30, 0.2),
    SampleBand(6, 6, 15, 0.3),
    SampleBand(7, 4, 8, 0.4),
    SampleBand(8, 4, 8, 0.5),
]


def sample_poly(rng, band):
    coeffs = []
    for _ in range(band.degree):
        if rng.random() < band.zero_prob:
            coeffs.append(0)
        else:
            coeffs.append(rng.randint(-band.bound, band.bound))
    coeffs.append(1)
    if coeffs[0] == 0:
        coeffs[0] = rng.choice([-1, 1]) * rng.randint(1, band.bound)
    return IntPoly(coeffs)


def main(out=OUT):
    rng = random.Random(SEED)
    rows = list(NAMED)
    seen = {text for _, text in rows}
    for band in RANDOM_PLAN:
        found = 0
        while found < band.count:
            f = sample_poly(rng, band)
            if not is_irreducible(f):
                continue
            text = poly_to_string(f)
            if text in seen:
                continue
            try:
                analyze_field(f)
            except FactorizationLimitError:
                continue  # discriminant too hard to factor; resample
            seen.add(text)
            rows.append(("r%d-%02d" % (band.degree, found + 1), text))
            found += 1
    with open(out, "w", encoding="ascii") as fh:
        fh.write("# corpus of number fields: label,polynomial\n")
        fh.write("# regenerate with scripts/make_corpus.py (fixed seed %d)\n" % SEED)
        for label, text in rows:
            fh.write("%s,%s\n" % (label, text))
    print("wrote %d records to %s" % (len(rows), out))


if __name__ == "__main__":
    main()
