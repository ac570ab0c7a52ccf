"""Document layer: round-trips, canonical bytes, schema conformance, renderers.

Schema conformance is checked against the JSON Schema files in schema/ with
an offline resolver, so the contract the CLI promises is pinned by files the
suite actually loads.
"""

import json
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

from tracegenus.corpus import read_corpus
from tracegenus.errors import ReducibleInputError
from tracegenus.genus import compare_spinor_genus, cross_validate, predict_equivalence
from tracegenus.polys import IntPoly, parse_poly
from tracegenus.report import (
    ANALYSIS_SCHEMA,
    analysis_document,
    analysis_from_document,
    canonical_bytes,
    comparison_document,
    dump_pretty,
    error_document,
    render_analysis,
    render_comparison,
    render_scan,
    scan_document,
)
from tracegenus.traceform import analyze_field

SCHEMA_FILES = ("analysis.v1.json", "compare.v1.json", "scan.v1.json", "error.v1.json")


@pytest.fixture(scope="session")
def validators(repo_root):
    docs = {}
    for name in SCHEMA_FILES:
        docs[name] = json.loads((repo_root / "schema" / name).read_text())
    registry = Registry().with_resources(
        [(doc["$id"], Resource.from_contents(doc)) for doc in docs.values()]
    )
    return {
        name: jsonschema.Draft202012Validator(doc, registry=registry)
        for name, doc in docs.items()
    }


@pytest.fixture(scope="session")
def corpus_texts(corpus_records):
    return {r.label: r.text for r in corpus_records}


def _doc(corpus_analyses, corpus_texts, label):
    return analysis_document(corpus_analyses[label], corpus_texts[label])


# ---------------------------------------------------------------------------
# round trip


CORPUS_LABELS = [
    r.label
    for r in read_corpus(Path(__file__).resolve().parent.parent / "corpus" / "fields.csv")
]


@pytest.mark.parametrize("label", CORPUS_LABELS)
def test_round_trip_equals_original(corpus_analyses, corpus_texts, label):
    # both directions: decoding gives the analysis back, and re-encoding the
    # decoded analysis gives the same bytes, which pins every derived key
    fa = corpus_analyses[label]
    doc = _doc(corpus_analyses, corpus_texts, label)
    back = analysis_from_document(doc)
    assert back == fa
    assert canonical_bytes(analysis_document(back, corpus_texts[label])) == canonical_bytes(doc)


def test_round_trip_preserves_named_parts(corpus_analyses, corpus_texts):
    fa = corpus_analyses["klein-quartic-a"]
    back = analysis_from_document(_doc(corpus_analyses, corpus_texts, "klein-quartic-a"))
    assert back.poly == fa.poly
    assert back.disc == fa.disc
    assert back.index == fa.index
    assert back.max_order.order.basis_num == fa.max_order.order.basis_num
    assert back.max_order.order.denom == fa.max_order.order.denom
    assert back.max_order.disc_factored == fa.max_order.disc_factored
    assert back.gamma == fa.gamma
    assert back.trace_form == fa.trace_form
    assert back.splittings == fa.splittings
    assert back.alphas == fa.alphas


@pytest.mark.parametrize("label", ["quad-5", "klein-quartic-a", "d12-sextic"])
def test_decoding_reads_only_primary_keys(corpus_analyses, corpus_texts, label):
    # coefficients, basis, disc_factorization and splittings are all the
    # decoder reads; every other key is derived from them
    doc = _doc(corpus_analyses, corpus_texts, label)
    for key in ("degree", "signature", "index", "disc", "alphas", "gamma", "trace_form"):
        del doc[key]
    assert analysis_from_document(doc) == corpus_analyses[label]


def test_round_trip_survives_json_transport(corpus_analyses, corpus_texts):
    doc = _doc(corpus_analyses, corpus_texts, "d12-sextic")
    wire = json.loads(json.dumps(doc))
    assert analysis_from_document(wire) == corpus_analyses["d12-sextic"]


# ---------------------------------------------------------------------------
# canonical bytes


def test_canonical_bytes_exclude_meta(corpus_analyses, corpus_texts):
    doc = _doc(corpus_analyses, corpus_texts, "s4-quartic")
    with_meta = dict(doc)
    with_meta["meta"] = {"elapsed_ms": 12345, "warnings": ["anything"]}
    assert canonical_bytes(with_meta) == canonical_bytes(doc)


def test_canonical_bytes_deterministic_across_builds(corpus_texts):
    text = corpus_texts["klein-quartic-b"]
    first = analysis_document(analyze_field(parse_poly(text)), text)
    second = analysis_document(analyze_field(parse_poly(text)), text)
    assert canonical_bytes(first) == canonical_bytes(second)


def test_canonical_bytes_ignore_key_insertion_order(corpus_analyses, corpus_texts):
    doc = _doc(corpus_analyses, corpus_texts, "quad-5")
    shuffled = dict(reversed(list(doc.items())))
    assert canonical_bytes(shuffled) == canonical_bytes(doc)


def test_canonical_bytes_shape(corpus_analyses, corpus_texts):
    doc = _doc(corpus_analyses, corpus_texts, "quad-5")
    raw = canonical_bytes(doc)
    assert raw.endswith(b"\n")
    assert b", " not in raw and b": " not in raw  # compact separators
    parsed = json.loads(raw)
    assert parsed["schema"] == ANALYSIS_SCHEMA
    assert "meta" not in parsed


def test_dump_pretty_parses_back(corpus_analyses, corpus_texts):
    doc = _doc(corpus_analyses, corpus_texts, "quad-5")
    assert json.loads(dump_pretty(doc)) == doc


# ---------------------------------------------------------------------------
# integer width policy


def _walk(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _walk(value)
    elif isinstance(node, (list, tuple)):
        for value in node:
            yield from _walk(value)
    else:
        yield node


def test_big_integers_are_decimal_strings(corpus_analyses, corpus_texts):
    doc = _doc(corpus_analyses, corpus_texts, "klein-quartic-a")
    assert isinstance(doc["disc"], str)
    assert isinstance(doc["index"], str)
    assert all(isinstance(c, str) for c in doc["coefficients"])
    assert all(isinstance(c, str) for row in doc["basis"]["matrix"] for c in row)
    assert all(isinstance(c, str) for row in doc["trace_form"]["gram"] for c in row)
    for st in doc["splittings"]:
        assert isinstance(st["p"], str)
    for a in doc["alphas"]:
        assert isinstance(a["representative"], str)
        assert isinstance(a["nonresidue"], str)
    # nothing unbounded is left as a raw number anywhere in the tree
    for leaf in _walk(doc):
        if isinstance(leaf, bool) or not isinstance(leaf, int):
            continue
        assert abs(leaf) <= 10**6


def test_small_counts_stay_numbers(corpus_analyses, corpus_texts):
    doc = _doc(corpus_analyses, corpus_texts, "klein-quartic-a")
    assert isinstance(doc["degree"], int)
    assert all(isinstance(x, int) for x in doc["signature"])
    assert isinstance(doc["disc_factorization"]["sign"], int)
    for _, e in doc["disc_factorization"]["factors"]:
        assert isinstance(e, int)
    for st in doc["splittings"]:
        for e, f in st["pairs"]:
            assert isinstance(e, int) and isinstance(f, int)
        assert isinstance(st["g"], int)
    for a in doc["alphas"]:
        assert a["legendre"] in (-1, 1)


# ---------------------------------------------------------------------------
# schema conformance


@pytest.mark.parametrize(
    "label", ["klein-quartic-a", "s4-quartic", "sextic-pair-b", "quad-5", "wild2-quartic"]
)
def test_analysis_documents_validate(validators, corpus_analyses, corpus_texts, label):
    validators["analysis.v1.json"].validate(_doc(corpus_analyses, corpus_texts, label))


def _comparison_doc(corpus_analyses, corpus_texts, left, right):
    fa, fb = corpus_analyses[left], corpus_analyses[right]
    comparison = compare_spinor_genus(fa, fb)
    prediction = predict_equivalence(fa, fb)
    crossval = None
    if comparison.verdict != "not-applicable" and prediction.applicable:
        crossval = cross_validate(fa, fb)
    return comparison_document(
        _doc(corpus_analyses, corpus_texts, left),
        _doc(corpus_analyses, corpus_texts, right),
        comparison,
        prediction,
        crossval,
    )


def test_compare_document_validates_when_same(validators, corpus_analyses, corpus_texts):
    doc = _comparison_doc(corpus_analyses, corpus_texts, "sextic-pair-a", "sextic-pair-b")
    validators["compare.v1.json"].validate(doc)
    assert doc["comparison"]["verdict"] == "same-spinor-genus"
    assert doc["cross_validation"] == {"consistent": True}


def test_compare_document_validates_when_different(
    validators, corpus_analyses, corpus_texts
):
    doc = _comparison_doc(corpus_analyses, corpus_texts, "klein-quartic-a", "klein-quartic-b")
    validators["compare.v1.json"].validate(doc)
    assert doc["comparison"]["verdict"] == "different"


def test_compare_document_validates_when_not_applicable(
    validators, corpus_analyses, corpus_texts
):
    doc = _comparison_doc(corpus_analyses, corpus_texts, "quad-5", "quad-gauss")
    validators["compare.v1.json"].validate(doc)
    assert doc["comparison"]["verdict"] == "not-applicable"
    assert doc["cross_validation"] is None


def test_scan_document_validates(validators, corpus_analyses, corpus_texts):
    ok_record = {
        "label": "klein-quartic-a",
        "input": corpus_texts["klein-quartic-a"],
        "ok": True,
        "analysis": _doc(corpus_analyses, corpus_texts, "klein-quartic-a"),
    }
    err = error_document(
        ReducibleInputError(
            "x^2 - 1 is reducible", factors=[IntPoly((-1, 1)), IntPoly((1, 1))]
        ),
        factors=[IntPoly((-1, 1)), IntPoly((1, 1))],
    )
    bad_record = {
        "label": "broken",
        "input": "x^2 - 1",
        "ok": False,
        "error": err["error"],
    }
    summary = {
        "tame_count": 1,
        "gamma_count": 0,
        "exceptional_histogram": [],
        "pairs": {
            "compared": 1,
            "consistent": 1,
            "inconsistent": 0,
            "details": [
                {
                    "left": "a",
                    "right": "b",
                    "verdict": "same-spinor-genus",
                    "predicted_same": True,
                    "consistent": True,
                }
            ],
        },
    }
    doc = scan_document([ok_record, bad_record], summary)
    validators["scan.v1.json"].validate(doc)
    assert doc["count"] == 2 and doc["ok"] == 1 and doc["failed"] == 1


def test_error_document_validates(validators):
    doc = error_document(
        ReducibleInputError("reducible", factors=[IntPoly((-1, 1)), IntPoly((1, 1))]),
        factors=[IntPoly((-1, 1)), IntPoly((1, 1))],
    )
    validators["error.v1.json"].validate(doc)
    assert doc["error"]["type"] == "ReducibleInputError"
    assert doc["error"]["factors"] == ["x - 1", "x + 1"]


def test_error_document_without_factors(validators):
    doc = error_document(ValueError("boom"))
    validators["error.v1.json"].validate(doc)
    assert "factors" not in doc["error"]


def test_schema_rejects_numeric_disc(validators, corpus_analyses, corpus_texts):
    doc = _doc(corpus_analyses, corpus_texts, "quad-5")
    doc = json.loads(json.dumps(doc))
    doc["disc"] = 5
    with pytest.raises(jsonschema.ValidationError):
        validators["analysis.v1.json"].validate(doc)


def test_schema_rejects_unknown_keys(validators, corpus_analyses, corpus_texts):
    doc = _doc(corpus_analyses, corpus_texts, "quad-5")
    doc = json.loads(json.dumps(doc))
    doc["surprise"] = True
    with pytest.raises(jsonschema.ValidationError):
        validators["analysis.v1.json"].validate(doc)


def test_schema_rejects_unknown_verdict(validators, corpus_analyses, corpus_texts):
    doc = _comparison_doc(corpus_analyses, corpus_texts, "quad-5", "quad-gauss")
    doc = json.loads(json.dumps(doc))
    doc["comparison"]["verdict"] = "maybe"
    with pytest.raises(jsonschema.ValidationError):
        validators["compare.v1.json"].validate(doc)


# ---------------------------------------------------------------------------
# renderers


def test_render_analysis_smoke(corpus_analyses):
    text = render_analysis(corpus_analyses["klein-quartic-a"])
    assert "x^4 - 41*x^2 + 144" in text
    assert "1221025" in text
    assert "pairs (e,f)" in text
    assert "trace form" in text


def test_render_comparison_smoke(corpus_analyses, corpus_texts):
    text = render_comparison(
        _comparison_doc(corpus_analyses, corpus_texts, "sextic-pair-a", "sextic-pair-b")
    )
    assert "verdict      same-spinor-genus" in text
    assert "cross-check  consistent: True" in text


def test_render_scan_smoke(corpus_analyses, corpus_texts):
    err = error_document(ReducibleInputError("splits over the integers"))
    records = [
        {
            "label": "k",
            "input": corpus_texts["klein-quartic-a"],
            "ok": True,
            "analysis": _doc(corpus_analyses, corpus_texts, "klein-quartic-a"),
        },
        {"label": "broken", "input": "x^2-1", "ok": False, "error": err["error"]},
    ]
    summary = {
        "tame_count": 1,
        "gamma_count": 0,
        "exceptional_histogram": [("17", 1)],
        "pairs": None,
    }
    text = render_scan(scan_document(records, summary))
    assert "records      2 (1 ok, 1 failed)" in text
    assert "17:1" in text
    assert "FAILED broken: splits over the integers" in text
