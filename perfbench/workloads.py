"""Seeded workloads for the tracegenus benchmark.

Every workload is a pool of fields that a seeded generator builds from the
workload's own bounds (degree, coefficient size, pool size); the bounds are
never adjusted per record, so a record that turns out slow, reducible or
raises FactorizationLimitError stays in the pool and counts as a failure.
The committed digests in ``digests.json`` cover every pool record. A run
processes the whole pool in an order set by its ``--seed``; the CLI sample,
the compare pairs and the scan corpus are fixed members of the pool, visited
in that order. Drawing a different subset per seed was tried and rejected:
on a Round-2-heavy pool the median field time moved between 55 and 129 ms
across five seeds, which swamps any change a bound could catch. The program
only ever sees the generated polynomial texts.

This module imports nothing from tracegenus, so set-up timing starts before
the package is imported.
"""

import csv
import itertools
import os
import random
from dataclasses import dataclass
from math import comb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL_SEED = 1908_02318


@dataclass(frozen=True)
class Record:
    label: str
    text: str  # polynomial as handed to the program


CLI_SAMPLE = 2  # records timed as `tracegenus analyze` processes
PAIRS = 2  # `tracegenus compare` pairs; the corpus has two in pairs.csv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scan_size: int  # records written to the scan corpus


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="corpus",
            why="what users run today: the shipped 60 fields, deg 2-8, index 1-3 digits, disc 1-16 "
            "digits; CLI time is start-up, import, report and cache, in-process time orders and splitting",
            scan_size=60,
        ),
        Workload(
            name="hard-disc",
            why="factoring stress: 60 dense random fields of deg 3-5, disc 16-24 digits (median 21), "
            "index 1 for most; factor_integer is the top layer and Round 2 is bypassed",
            scan_size=15,
        ),
    )
}


# -- polynomial text -------------------------------------------------------


def poly_text(coeffs):
    """Expression form, highest degree first: [144, 0, -41, 0, 1] ->
    'x^4 - 41*x^2 + 144'."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "x" if k == 1 else "x^%d" % k
            body = power if mag == 1 else "%d*%s" % (mag, power)
        if not terms:
            terms.append(body if c > 0 else "-" + body)
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms) if terms else "0"


def taylor_shift(coeffs):
    """Coefficients of f(x + 1) from those of f(x), constant term first."""
    n = len(coeffs) - 1
    return [sum(coeffs[k] * comb(k, j) for k in range(j, n + 1)) for j in range(n + 1)]


# -- pools -----------------------------------------------------------------


def _read_csv_records(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if line.strip() and not line.lstrip().startswith("#")]
    return [Record(label=r[0].strip(), text=",".join(r[1:]).strip()) for r in csv.reader(rows)]


def _corpus_pool():
    return _read_csv_records(os.path.join(ROOT, "corpus", "fields.csv"))


# hard-disc bounds
HD_POOL = 60
HD_DEGREES = (3, 4, 5)
HD_DISC_DIGITS = 22


def hd_coeff_bound(n):
    """|coeff| bound for degree n: a dense monic f has |disc| near B^(2n-2),
    so each degree aims at the same discriminant size."""
    return int(10 ** (HD_DISC_DIGITS / (2 * n - 2)))


def _irreducible_mod2(n, rng):
    while True:
        g = [rng.randrange(2) for _ in range(n)] + [1]
        if not any(_divides_mod2(h, g) for d in range(1, n // 2 + 1)
                   for h in (list(low) + [1] for low in itertools.product((0, 1), repeat=d))):
            return g


def _divides_mod2(h, g):
    r = g[:]
    d = len(h) - 1
    for i in range(len(r) - 1, d - 1, -1):
        if r[i]:
            for j in range(d + 1):
                r[i - d + j] ^= h[j]
    return not any(r[:d])


def _hard_disc_pool():
    """Dense monic polynomials congruent mod 2 to an irreducible one, hence
    irreducible over Z (and unramified at 2)."""
    rng = random.Random(POOL_SEED)
    records = []
    for i in range(HD_POOL):
        n = HD_DEGREES[i % len(HD_DEGREES)]
        half = (hd_coeff_bound(n) - 1) // 2
        g = _irreducible_mod2(n, rng)
        coeffs = [g[k] + 2 * rng.randint(-half, half) for k in range(n)] + [1]
        records.append(Record("hd-%03d-d%d" % (i, n), poly_text(coeffs)))
    return records


_POOLS = {"corpus": _corpus_pool, "hard-disc": _hard_disc_pool}


def pool(name):
    """Every record of the workload, in a fixed order."""
    return _POOLS[name]()


def generate(name, seed):
    """The run's records: the whole pool in an order set by `seed`."""
    members = pool(name)
    return random.Random(seed).sample(members, len(members))


def subset(name, records, count):
    """`count` fixed members of the pool, spread evenly from its first member
    to its last, in the order they have in `records`. On hard-disc, whose
    degrees cycle 3, 4, 5, two picks are a cubic and a quintic."""
    members = pool(name)
    last = len(members) - 1
    chosen = {members[round(i * last / max(count - 1, 1))].label for i in range(count)}
    return [r for r in records if r.label in chosen]


def compare_pairs(name, records):
    """(left, right) record pairs for `tracegenus compare`. The corpus uses
    corpus/pairs.csv; generated workloads pair a record with its own
    translate f(x + 1), which defines the same field."""
    if name == "corpus":
        recs = _read_csv_records(os.path.join(ROOT, "corpus", "pairs.csv"))
        return [(recs[i], recs[i + 1]) for i in range(0, len(recs) - 1, 2)]
    from tracegenus.polys import parse_poly  # deferred: keeps set-up timing honest

    pairs = []
    for rec in subset(name, records, PAIRS):
        shifted = taylor_shift(list(parse_poly(rec.text).coeffs))
        pairs.append((rec, Record(rec.label + "-shift", poly_text(shifted))))
    return pairs
