"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Each criterion times itself and prints a single summary line; run with
`pytest tests/test_acceptance.py -v -s` to watch them stream. The checks
favor fresh computation over shared fixtures so the printed timings cover
the real work.
"""

import json
import time

import pytest

from helpers import disc_square_class, splitting_at, verify_alpha_formula
import tracegenus.cli as cli
from tracegenus.corpus import read_corpus
from tracegenus.errors import ReducibleInputError
from tracegenus.genus import (
    DIFFERENT,
    SAME,
    compare_spinor_genus,
    cross_validate,
    predict_equivalence,
)
from tracegenus.polys import parse_poly
from tracegenus.report import canonical_bytes
from tracegenus.splitting import algebra_splitting, split_prime
from tracegenus.traceform import analyze_field

KLEIN_A = "x^4 - 41*x^2 + 144"
KLEIN_B = "x^4 - x^3 - 46*x^2 - 115*x - 35"
S4_QUARTIC = "x^4 - x^3 - 7*x^2 + 11*x + 3"
D12_SEXTIC = "x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5"
PAIR_A = "x^6 - x^5 - 2*x^4 + x^3 + 7*x^2 - 6*x + 4"
PAIR_B = "x^6 - 3*x^5 + 10*x^4 - 15*x^3 + 19*x^2 - 12*x + 3"


class _Gate:
    def __init__(self, number, name, budget=None):
        self.number = number
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        self.ok = False
        return self

    def done(self):
        self.ok = True

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        in_budget = self.budget is None or elapsed < self.budget
        status = "PASS" if (self.ok and exc_type is None and in_budget) else "FAIL"
        print("criterion %02d  %-46s %s  (%.2f s)" % (self.number, self.name, status, elapsed))
        if exc_type is None:
            assert in_budget, "%.2f s exceeds %.1f s budget" % (elapsed, self.budget)
        return False


def _analyze(text):
    return analyze_field(parse_poly(text))


@pytest.fixture(scope="module")
def corpus_pass(repo_root):
    """All shipped corpus fields, analyzed once for the sweep criteria."""
    records = read_corpus(repo_root / "corpus" / "fields.csv")
    return {r.label: _analyze(r.text) for r in records}


def test_criterion_01_klein_pair_distinguished():
    with _Gate(1, "Klein quartic pair: equal disc, different", budget=1.0) as gate:
        fa, fb = _analyze(KLEIN_A), _analyze(KLEIN_B)
        assert fa.disc == fb.disc == 1221025
        assert fa.disc_factored == ((5, 2), (13, 2), (17, 2))
        assert splitting_at(fa, 5).g == 1
        assert splitting_at(fb, 5).g == 2
        assert compare_spinor_genus(fa, fb).verdict == DIFFERENT
        gate.done()


def test_criterion_02_totally_ramified_quartic():
    with _Gate(2, "quartic ramified only at 59, totally", budget=1.0) as gate:
        fa = _analyze(S4_QUARTIC)
        assert [st.p for st in fa.splittings] == [59]
        assert splitting_at(fa, 59).pairs == ((4, 1),)
        assert fa.gamma.is_gamma
        assert fa.gamma.exceptional is None
        gate.done()


def test_criterion_03_d12_sextic_profile():
    with _Gate(3, "sextic with disc 3^3*23^3, exceptional 23", budget=2.0) as gate:
        fa = _analyze(D12_SEXTIC)
        assert fa.disc == 328509
        assert fa.disc_factored == ((3, 3), (23, 3))
        assert splitting_at(fa, 3).pairs == ((2, 3),)
        # index 187 = 11*17 is prime to 23, so the mod-23 factorisation
        # (x + 7)^2 (x^2 - 8x + 11)^2 gives the shape; both routes must agree
        assert fa.index == 187
        assert splitting_at(fa, 23).pairs == ((2, 1), (2, 2))
        assert split_prime(fa.max_order, 23).pairs == ((2, 1), (2, 2))
        assert algebra_splitting(fa.max_order, 23).pairs == ((2, 1), (2, 2))
        # 23 is homogeneous with odd n/e = 3 but has g = 2 primes above it,
        # so it fails the conjunction and is the single exceptional prime
        assert fa.gamma.is_gamma
        assert fa.gamma.exceptional == 23
        assert fa.gamma.failing == (23,)
        assert verify_alpha_formula(fa, 3)
        # the exception is real: alpha_23 = 2^3 * u^(F - g) is a nonresidue,
        # while the class n/(n - v_23(disc)) = 6/3 = 2 is a square mod 23
        alpha = fa.alpha_at(23)
        assert alpha.legendre == -1
        assert disc_square_class(6, 3, 23).legendre == 1
        gate.done()


def test_criterion_04_sextic_pair_same_genus():
    with _Gate(4, "sextic pair: same spinor genus via 107", budget=2.0) as gate:
        fa, fb = _analyze(PAIR_A), _analyze(PAIR_B)
        assert fa.signature == fb.signature == (0, 3)
        assert fa.disc == fb.disc == -309123
        assert fa.disc_factored == ((3, 3), (107, 2))
        assert splitting_at(fa, 3).g == 1
        assert splitting_at(fb, 3).g == 3
        assert all(e == 2 for e, _ in splitting_at(fa, 3).pairs)
        assert all(e == 2 for e, _ in splitting_at(fb, 3).pairs)
        assert fa.gamma.exceptional == fb.gamma.exceptional == 107
        assert compare_spinor_genus(fa, fb).verdict == SAME
        prediction = predict_equivalence(fa, fb)
        assert prediction.applicable and prediction.predicted_same
        assert prediction.isometry_claim
        assert cross_validate(fa, fb).consistent
        gate.done()


def test_criterion_05_trace_form_identities(repo_root):
    with _Gate(5, "corpus-wide det and signature identities", budget=60.0) as gate:
        records = read_corpus(repo_root / "corpus" / "fields.csv")
        analyses = {r.label: _analyze(r.text) for r in records}
        assert len(analyses) >= 50
        for label in (
            "klein-quartic-a",
            "klein-quartic-b",
            "s4-quartic",
            "d12-sextic",
            "sextic-pair-a",
            "sextic-pair-b",
        ):
            assert label in analyses
        bad = []
        for label, fa in analyses.items():
            r, s = fa.signature
            if fa.trace_form.det != fa.disc or fa.trace_form.signature != (r + s, s):
                bad.append(label)
        assert bad == []
        gate.done()


def test_criterion_06_valuation_formula_sweep(corpus_pass):
    with _Gate(6, "alpha formula at non-exceptional primes") as gate:
        analyses = corpus_pass
        failures = []
        checked = 0
        for label, fa in analyses.items():
            if not fa.gamma.is_gamma:
                continue
            for st in fa.splittings:
                if st.p == 2 or st.p == fa.gamma.exceptional:
                    continue
                checked += 1
                if not verify_alpha_formula(fa, st.p):
                    failures.append((label, st.p))
        assert checked > 0
        assert failures == []
        gate.done()


def test_criterion_07_splitting_route_agreement(corpus_pass):
    with _Gate(7, "mod-p shape agrees with algebra route") as gate:
        analyses = corpus_pass
        mismatches = []
        valuation_errors = []
        for label, fa in analyses.items():
            mo = fa.max_order
            for st in fa.splittings:
                if fa.index % st.p != 0:
                    shape = split_prime(mo, st.p)
                    if shape.pairs != algebra_splitting(mo, st.p).pairs:
                        mismatches.append((label, st.p))
                if st.is_tame:
                    v = mo.disc_factored.valuation(st.p)
                    if st.tame_disc_valuation != v:
                        valuation_errors.append((label, st.p))
        assert mismatches == []
        assert valuation_errors == []
        gate.done()


def test_criterion_08_equal_invariants_do_not_decide(corpus_pass):
    with _Gate(8, "bucketed cross-check; Klein still differs") as gate:
        analyses = corpus_pass
        buckets = {}
        for label, fa in analyses.items():
            if fa.gamma.is_gamma:
                buckets.setdefault((fa.disc, fa.signature), []).append((label, fa))
        inconsistent = []
        compared = 0
        for group in buckets.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    fa, fb = group[i][1], group[j][1]
                    if not predict_equivalence(fa, fb).applicable:
                        continue
                    compared += 1
                    if not cross_validate(fa, fb).consistent:
                        inconsistent.append((group[i][0], group[j][0]))
        assert compared > 0
        assert inconsistent == []
        # equal disc and signature must not force the verdict: the Klein pair
        # matches on both and still lands in different spinor genera
        ka, kb = analyses["klein-quartic-a"], analyses["klein-quartic-b"]
        assert ka.disc == kb.disc and ka.signature == kb.signature
        assert not ka.gamma.is_gamma and not kb.gamma.is_gamma
        assert compare_spinor_genus(ka, kb).verdict == DIFFERENT
        gate.done()


def test_criterion_09_cubic_search_spot_check():
    with _Gate(9, "independent cubic search at disc 32009", budget=300.0) as gate:
        target = 32009
        fields = []
        for a in range(-1, 2):
            for b in range(-60, 1):
                for c in range(-200, 201):
                    disc = (
                        18 * a * b * c
                        - 4 * a**3 * c
                        + a * a * b * b
                        - 4 * b**3
                        - 27 * c * c
                    )
                    if disc <= 0 or disc % target:
                        continue
                    quotient = disc // target
                    root = int(quotient**0.5)
                    if root * root != quotient and (root + 1) ** 2 != quotient:
                        continue
                    try:
                        fa = analyze_field(parse_poly("%d,%d,%d,1" % (c, b, a)))
                    except ReducibleInputError:
                        continue
                    if fa.disc == target:
                        fields.append(fa)
        assert len(fields) >= 2
        fingerprints = {}
        for fa in fields:
            shape = tuple(
                split_prime(fa.max_order, q).pairs for q in (2, 3, 5, 7, 11, 13)
            )
            fingerprints.setdefault(shape, fa)
        assert len(fingerprints) >= 2, "all candidates look isomorphic"
        fa, fb = list(fingerprints.values())[:2]
        assert compare_spinor_genus(fa, fb).verdict == SAME
        prediction = predict_equivalence(fa, fb)
        assert prediction.applicable and prediction.predicted_same
        assert cross_validate(fa, fb).consistent
        gate.done()


def test_criterion_10_scan_output_is_deterministic(capsys, repo_root, tmp_path):
    with _Gate(10, "scan byte-identical with and without cache") as gate:
        corpus = str(repo_root / "corpus" / "fields.csv")
        cache = str(tmp_path / "cache")
        outputs = []
        for argv in (
            ["scan", corpus, "--cache-dir", cache],
            ["scan", corpus, "--cache-dir", cache],
            ["scan", corpus, "--no-cache"],
        ):
            assert cli.main(argv) == 0
            outputs.append(canonical_bytes(json.loads(capsys.readouterr().out)))
        assert outputs[0] == outputs[1] == outputs[2]
        gate.done()
