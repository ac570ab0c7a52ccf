import copy
import json
from fractions import Fraction

import pytest

import gate
import run
from tracegenus import report
from tracegenus.polys import discriminant, parse_poly
from tracegenus.traceform import analyze_field

KLEIN = "x^4 - 41*x^2 + 144"


@pytest.fixture(scope="module")
def klein_doc():
    return report.analysis_document(analyze_field(parse_poly(KLEIN)), KLEIN)


def committed(text):
    return gate.load_digests()["records"]["corpus"][text]


def test_true_document_passes(klein_doc):
    assert gate.check_record(klein_doc, committed(KLEIN)) == []
    assert gate.canonical(klein_doc) == report.canonical_bytes(klein_doc)


def _corrupt(doc, edit):
    bad = copy.deepcopy(doc)
    edit(bad)
    return bad


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.__setitem__("disc", "7"), "det(gram) != disc"),
    (lambda d: d["trace_form"]["gram"][0].__setitem__(0, "5"), "det(gram) != disc"),
    (lambda d: d["disc_factorization"]["factors"][0].__setitem__(1, 3), "factorization product != disc"),
    (lambda d: d.__setitem__("index", "24"), "index^2 * disc != disc(f)"),
    (lambda d: d["trace_form"].__setitem__("signature", [3, 1]), "trace form signature != (r+s, s)"),
])
def test_corrupted_document_is_caught(klein_doc, edit, message):
    bad = _corrupt(klein_doc, edit)
    problems = gate.check_record(bad, committed(KLEIN))
    assert message in problems
    assert any(p.startswith("digest ") for p in problems)


def test_change_outside_the_invariants_is_caught_by_the_digest(klein_doc):
    bad = _corrupt(klein_doc, lambda d: d["splittings"][0].__setitem__("pairs", [[1, 4]]))
    assert gate.check_analysis(bad) == []
    assert [p for p in gate.check_record(bad, committed(KLEIN)) if p.startswith("digest ")]


def test_missing_field_is_reported_not_raised(klein_doc):
    bad = _corrupt(klein_doc, lambda d: d.pop("trace_form"))
    assert gate.check_analysis(bad)[0].startswith("malformed document")


def _fraction_det(m):
    m = [[Fraction(c) for c in row] for row in m]
    n, d = len(m), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            d = -d
        d *= m[k][k]
        for i in range(k + 1, n):
            r = m[i][k] / m[k][k]
            m[i] = [a - r * b for a, b in zip(m[i], m[k])]
    return d


def test_det_matches_gaussian_elimination():
    cases = [[[0, 2, 1], [3, 0, 4], [5, 6, 0]], [[2, 4], [1, 2]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[7]]]
    for m in cases:
        assert gate.det(m) == _fraction_det(m)


@pytest.mark.parametrize("text", [KLEIN, "x^3 - 2", "x^7 + 160", "x^5 - x + 1", "x^2 + 1"])
def test_poly_disc_matches_the_package(text):
    f = parse_poly(text)
    assert gate.poly_disc(list(f.coeffs)) == discriminant(f)


def test_compare_checks():
    doc = {
        "comparison": {"verdict": gate.DIFFERENT},
        "prediction": {"applicable": False, "predicted_same": None},
        "cross_validation": None,
        "left": {}, "right": {},
    }
    problems = gate.check_compare(doc, 0, expected_verdict=gate.SAME)
    assert "exit 0 does not match verdict different" in problems
    assert "verdict different != expected same-spinor-genus" in problems


def test_bench_catches_a_corrupted_cli_document(tmp_path, klein_doc):
    bench = run.Bench("corpus", 0, str(tmp_path))
    rec = next(r for r in bench.records if r.text == KLEIN)
    bench.bytes[rec.label] = report.canonical_bytes(klein_doc)
    bench.check_analyze_output(rec, 0, json.dumps(klein_doc))
    assert (bench.attempted, bench.failed, bench.problems) == (1, 0, [])
    bad = _corrupt(klein_doc, lambda d: d.__setitem__("index", "24"))
    bench.check_analyze_output(rec, 0, json.dumps(bad))
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "canonical bytes differ" in bench.problems[0]
