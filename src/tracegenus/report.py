"""Canonical JSON projections of analyses and comparisons.

Documents are plain dicts built in a fixed key order. Every integer that can
outgrow 64 bits (discriminants, indices, Gram entries, primes, basis
numerators) is serialized as a decimal string so that consumers with
double-precision JSON parsers never silently round. Small structural counts
(degrees, exponents, e_i, f_i, signature entries) stay JSON numbers.

The codec table below is the format's only statement: one (document key,
wire codec) entry per value of each type a document carries, read by the
encoders, by `analysis_from_document` and by the renderers. Derived keys (g,
residue_degree_sum, tame, homogeneous, unit_rep, passes, equal) name
properties, and an analysis document's degree, signature, index, disc,
alphas, gamma and trace_form are what field_analysis derives: all are
written, never read back. Only the top level of an analysis document is
spelled out in both directions, as its keys come from MaximalOrder and
Order rather than from one tuple.

The `meta` key is the non-canonical envelope (timing, cache notes); the
canonical byte form of a document is the compact sorted-key dump with `meta`
removed, and is what determinism guarantees cover.
"""

import json
from typing import NamedTuple

from .arith import PrimeFactorization
from .errors import ReducibleInputError
from .genus import NOT_APPLICABLE, AlphaRow, ComparisonResult, EquivalencePrediction
from .orders import MaximalOrder, Order
from .polys import IntPoly, poly_to_string
from .splitting import SplittingType
from .traceform import (
    AlphaClass,
    GammaClassification,
    GammaTest,
    TraceForm,
    field_analysis,
)

ANALYSIS_SCHEMA = "tracegenus/analysis/v1"
COMPARE_SCHEMA = "tracegenus/compare/v1"
SCAN_SCHEMA = "tracegenus/scan/v1"
ERROR_SCHEMA = "tracegenus/error/v1"


class _Codec(NamedTuple):
    encode: object  # value -> JSON
    decode: object  # JSON -> value


_AS_IS = _Codec(lambda value: value, lambda item: item)
_BIG = _Codec(str, int)  # an int as a decimal string


_INT = _Codec(lambda value: value, int)  # a small count or sign, a JSON number
_BOOL = _AS_IS  # a flag, a JSON bool


def _seq(codec):
    """A list on the wire, a tuple in memory."""
    encode, decode = codec
    return _Codec(
        lambda values: [encode(v) for v in values],
        lambda items: tuple([decode(x) for x in items]),
    )


def _row(*codecs):
    """A list of fixed length with one codec per position."""
    return _Codec(
        lambda values: [c.encode(v) for c, v in zip(codecs, values)],
        lambda items: tuple([c.decode(x) for c, x in zip(codecs, items, strict=True)]),
    )


def _optional(codec):
    return _Codec(
        lambda value: None if value is None else codec.encode(value),
        lambda item: None if item is None else codec.decode(item),
    )


def _record(cls, *entries):
    """A NamedTuple as a JSON object. Each entry is (key, codec) or (key,
    codec, attribute); a key whose attribute is not one of cls._fields names
    a property, so it is written but never read back."""
    entries = [(key, codec, attr[0] if attr else key) for key, codec, *attr in entries]
    read = [(attr, codec.decode, key) for key, codec, attr in entries if attr in cls._fields]
    return _Codec(
        lambda value: {key: codec.encode(getattr(value, attr)) for key, codec, attr in entries},
        lambda item: cls(**{attr: decode(item[key]) for attr, decode, key in read}),
    )


_COUNTS = _seq(_INT)
_BIGS = _seq(_BIG)
_BIG_MATRIX = _seq(_BIGS)

_SPLITTINGS = _seq(_record(
    SplittingType,
    ("p", _BIG),
    ("pairs", _seq(_row(_INT, _INT))),
    ("g", _INT),
    ("residue_degree_sum", _INT),
    ("tame", _BOOL, "is_tame"),
    ("homogeneous", _BOOL, "is_homogeneous"),
))
_ALPHAS = _seq(_record(
    AlphaClass,
    ("p", _BIG),
    ("representative", _BIG),
    ("nonresidue", _BIG),
    ("unit_rep", _BIG),
    ("legendre", _INT),
))
_GAMMA = _record(
    GammaClassification,
    ("is_tame", _BOOL),
    ("is_gamma", _BOOL),
    ("exceptional", _optional(_BIG)),
    ("failing", _BIGS),
    ("tests", _seq(_record(
        GammaTest,
        ("p", _BIG),
        ("homogeneous", _BOOL),
        ("g_odd", _BOOL),
        ("quotient_odd", _BOOL),
        ("passes", _BOOL),
    ))),
)
_TRACE_FORM = _record(
    TraceForm,
    ("gram", _BIG_MATRIX),
    ("det", _BIG),
    ("signature", _COUNTS),
)
_DISC_FACTORIZATION = _record(
    PrimeFactorization,
    ("sign", _INT),
    ("factors", _seq(_row(_BIG, _INT))),
)
_ALPHA_ROWS = _seq(_record(
    AlphaRow,
    ("p", _BIG),
    ("left", _INT),
    ("right", _INT),
    ("equal", _BOOL),
    ("informational", _BOOL),
))
_COMPARISON = _record(
    ComparisonResult,
    ("verdict", _AS_IS),
    ("reason", _AS_IS),
    ("disc_equal", _optional(_BOOL)),
    ("signature_equal", _optional(_BOOL)),
    ("alpha", _ALPHA_ROWS, "alpha_rows"),
)
_PREDICTION = _record(
    EquivalencePrediction,
    ("applicable", _BOOL),
    ("reason", _AS_IS),
    ("predicted_same", _optional(_BOOL)),
    ("isometry_claim", _BOOL),
    ("exceptional_union", _BIGS),
)


def analysis_document(analysis, source_text):
    """Canonical AnalysisDocument for one FieldAnalysis."""
    mo = analysis.max_order
    return {
        "schema": ANALYSIS_SCHEMA,
        "input": source_text,
        "polynomial": poly_to_string(analysis.poly),
        "coefficients": _BIGS.encode(analysis.poly.coeffs),
        "degree": _INT.encode(analysis.degree),
        "signature": _COUNTS.encode(analysis.signature),
        "disc": _BIG.encode(analysis.disc),
        "disc_factorization": _DISC_FACTORIZATION.encode(mo.disc_factored),
        "index": _BIG.encode(analysis.index),
        "basis": {
            "denominator": _BIG.encode(mo.order.denom),
            "matrix": _BIG_MATRIX.encode(mo.order.basis_num),
        },
        "splittings": _SPLITTINGS.encode(analysis.splittings),
        "alphas": _ALPHAS.encode(analysis.alphas),
        "gamma": _GAMMA.encode(analysis.gamma),
        "trace_form": _TRACE_FORM.encode(analysis.trace_form),
    }


def analysis_from_document(doc):
    """The FieldAnalysis of a document, rebuilt by field_analysis from its
    primary keys (coefficients, basis, disc_factorization and splittings),
    so that cached documents feed the comparators: everything else is
    derived again, never read."""
    poly = IntPoly(_BIGS.decode(doc["coefficients"]))
    order = Order(
        poly=poly,
        basis_num=_BIG_MATRIX.decode(doc["basis"]["matrix"]),
        denom=_BIG.decode(doc["basis"]["denominator"]),
    )
    disc_factored = _DISC_FACTORIZATION.decode(doc["disc_factorization"])
    return field_analysis(
        MaximalOrder(order=order, disc_factored=disc_factored),
        _SPLITTINGS.decode(doc["splittings"]),
    )


def comparison_document(left_doc, right_doc, crossval):
    """Canonical CompareDocument of one genus.cross_validate result; its
    cross_validation is null unless both decision routes apply."""
    return {
        "schema": COMPARE_SCHEMA,
        "left": left_doc,
        "right": right_doc,
        "comparison": _COMPARISON.encode(crossval.comparison),
        "prediction": _PREDICTION.encode(crossval.prediction),
        "cross_validation": None
        if crossval.consistent is None
        else {"consistent": crossval.consistent},
    }


def error_document(exc):
    """Canonical ErrorDocument of exc, with the factors that a
    ReducibleInputError carries."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ReducibleInputError):
        error["factors"] = [poly_to_string(g) for g in exc.factors]
    return {"schema": ERROR_SCHEMA, "error": error}


def scan_document(records, summary):
    return {
        "schema": SCAN_SCHEMA,
        "count": len(records),
        "ok": sum(1 for r in records if r["ok"]),
        "failed": sum(1 for r in records if not r["ok"]),
        "records": records,
        "summary": summary,
    }


def canonical_bytes(doc):
    """The byte form covered by determinism guarantees: meta stripped,
    compact separators, sorted keys, trailing newline."""
    trimmed = {k: v for k, v in doc.items() if k != "meta"}
    text = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("ascii")


def dump_pretty(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _table(rows):
    widths = [max(len(str(cell)) for cell in col) for col in zip(*rows)]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))  # under the header
    return "\n".join(lines)


def render_analysis(fa):
    """Human-readable rendering of a FieldAnalysis."""
    g = fa.gamma
    factors = " * ".join("%d^%d" % (p, e) if e > 1 else str(p) for p, e in fa.disc_factored)
    exceptional = "" if g.exceptional is None else " (exceptional prime %d)" % g.exceptional
    lines = [
        "polynomial   %s" % poly_to_string(fa.poly),
        "degree       %d" % fa.degree,
        "signature    (r, s) = (%d, %d)" % fa.signature,
        "disc         %d = %s%s" % (fa.disc, "-" if fa.disc < 0 else "", factors or "1"),
        "index        %d" % fa.index,
        "tame         %s" % g.is_tame,
        "gamma        %s%s" % (g.is_gamma, exceptional),
    ]
    if fa.splittings:
        rows = [("p", "pairs (e,f)", "g", "F", "tame", "alpha")]
        for st in fa.splittings:
            pairs = " ".join("(%d,%d)" % pair for pair in st.pairs)
            a = fa.alpha_at(st.p)
            alpha = "" if a is None else "%+d" % a.legendre
            tame = "yes" if st.is_tame else "no"
            rows.append((st.p, pairs, st.g, st.residue_degree_sum, tame, alpha))
        lines += ["", _table(rows)]
    tf = fa.trace_form
    lines += ["", "trace form   det %d, signature %s" % (tf.det, tf.signature)]
    return "\n".join(lines) + "\n"


def render_comparison(doc):
    c = _COMPARISON.decode(doc["comparison"])
    p = _PREDICTION.decode(doc["prediction"])
    lines = [
        "left         %s" % doc["left"]["polynomial"],
        "right        %s" % doc["right"]["polynomial"],
        "verdict      %s%s" % (c.verdict, "" if not c.reason else " (%s)" % c.reason),
    ]
    if c.verdict != NOT_APPLICABLE:
        lines.append("disc equal   %s" % c.disc_equal)
        lines.append("sig equal    %s" % c.signature_equal)
        if c.alpha_rows:
            rows = [("p", "left", "right", "equal")]
            for r in c.alpha_rows:
                rows.append((r.p, "%+d" % r.left, "%+d" % r.right, "yes" if r.equal else "NO"))
            lines.append(_table(rows))
    if p.applicable:
        claim = ", isometry claimed" if p.isometry_claim else ""
        lines.append("prediction   same spinor genus: %s%s" % (p.predicted_same, claim))
    else:
        lines.append("prediction   not applicable (%s)" % p.reason)
    if doc["cross_validation"] is not None:
        lines.append("cross-check  consistent: %s" % doc["cross_validation"]["consistent"])
    return "\n".join(lines) + "\n"


def render_scan(doc):
    lines = [
        "records      %d (%d ok, %d failed)" % (doc["count"], doc["ok"], doc["failed"]),
    ]
    s = doc["summary"]
    lines.append("tame         %d" % s["tame_count"])
    lines.append("gamma        %d" % s["gamma_count"])
    if s["exceptional_histogram"]:
        lines.append(
            "exceptional  "
            + "  ".join("%s:%d" % (p, c) for p, c in s["exceptional_histogram"])
        )
    pairs = s.get("pairs")
    if pairs is not None:
        lines.append(
            "pairs        %d compared, %d consistent, %d inconsistent"
            % (pairs["compared"], pairs["consistent"], pairs["inconsistent"])
        )
    failed = [r for r in doc["records"] if not r["ok"]]
    for r in failed:
        lines.append("FAILED %s: %s" % (r["label"], r["error"]["message"]))
    return "\n".join(lines) + "\n"
