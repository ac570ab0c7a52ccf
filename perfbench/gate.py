"""Correctness gate: committed digests, cross-mode agreement and the
invariants every analysis document must satisfy.

The invariants are recomputed here from the document alone, with code that
shares nothing with the package: a fraction-free determinant with pivoting
and disc(f) from the Sylvester matrix of f and f'.
"""

import hashlib
import json
import os

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

SAME = "same-spinor-genus"
DIFFERENT = "different"
NOT_APPLICABLE = "not-applicable"
VERDICT_EXIT = {SAME: 0, DIFFERENT: 1, NOT_APPLICABLE: 4}


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def canonical(doc):
    """Canonical bytes as the package defines them: meta stripped, compact
    sorted-key JSON, trailing newline."""
    trimmed = {k: v for k, v in doc.items() if k != "meta"}
    return (json.dumps(trimmed, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def digest(canonical_bytes):
    return hashlib.sha256(canonical_bytes).hexdigest()[:16]


def det(matrix):
    """Exact determinant by Bareiss elimination with row pivoting."""
    m = [list(r) for r in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def poly_disc(coeffs):
    """Discriminant of monic f (constant term first): (-1)^(n(n-1)/2) Res(f, f')."""
    n = len(coeffs) - 1
    if n == 1:
        return 1
    df = [k * coeffs[k] for k in range(1, n + 1)]
    hi_f, hi_df = coeffs[::-1], df[::-1]
    size = 2 * n - 1
    rows = []
    for i in range(n - 1):
        rows.append([0] * i + hi_f + [0] * (size - i - len(hi_f)))
    for i in range(n):
        rows.append([0] * i + hi_df + [0] * (size - i - len(hi_df)))
    res = det(rows)
    return -res if (n * (n - 1) // 2) % 2 else res


def check_analysis(doc, disc_f=None):
    """Problems with one analysis document, as a list of strings."""
    problems = []
    try:
        disc = int(doc["disc"])
        gram = [[int(c) for c in row] for row in doc["trace_form"]["gram"]]
        if det(gram) != disc:
            problems.append("det(gram) != disc")
        if int(doc["trace_form"]["det"]) != disc:
            problems.append("trace_form.det != disc")
        fac = doc["disc_factorization"]
        value = fac["sign"]
        for p, e in fac["factors"]:
            value *= int(p) ** e
        if value != disc:
            problems.append("factorization product != disc")
        if disc_f is None:
            disc_f = poly_disc([int(c) for c in doc["coefficients"]])
        if int(doc["index"]) ** 2 * disc != disc_f:
            problems.append("index^2 * disc != disc(f)")
        r, s = doc["signature"]
        if list(doc["trace_form"]["signature"]) != [r + s, s]:
            problems.append("trace form signature != (r+s, s)")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append("malformed document: %r" % (exc,))
    return problems


def check_record(doc, expected_digest, disc_f=None):
    """Invariants plus the committed digest for a pool record."""
    problems = check_analysis(doc, disc_f)
    got = digest(canonical(doc))
    if expected_digest is None:
        problems.append("no committed digest for %r" % doc.get("input"))
    elif got != expected_digest:
        problems.append("digest %s != committed %s" % (got, expected_digest))
    return problems


def check_compare(doc, exit_code, expected_verdict=None, same_field=False):
    """Problems with one compare document. `expected_verdict` is the
    committed verdict of a named pair; `same_field` marks a pair that
    defines one field twice, which can never be told apart."""
    problems = []
    try:
        verdict = doc["comparison"]["verdict"]
        if VERDICT_EXIT.get(verdict) != exit_code:
            problems.append("exit %s does not match verdict %s" % (exit_code, verdict))
        if expected_verdict is not None and verdict != expected_verdict:
            problems.append("verdict %s != expected %s" % (verdict, expected_verdict))
        cv = doc["cross_validation"]
        if cv is not None and not cv["consistent"]:
            problems.append("decision routes disagree")
        if same_field:
            left, right = doc["left"], doc["right"]
            if verdict == DIFFERENT:
                problems.append("one field compared with itself came out different")
            if doc["prediction"]["applicable"] and not doc["prediction"]["predicted_same"]:
                problems.append("one field compared with itself predicted different")
            for key in ("disc", "signature", "disc_factorization", "splittings", "alphas", "gamma"):
                if left[key] != right[key]:
                    problems.append("translate changed %s" % key)
        for side in ("left", "right"):
            problems.extend("%s: %s" % (side, p) for p in check_analysis(doc[side]))
    except (KeyError, TypeError, ValueError) as exc:
        problems.append("malformed document: %r" % (exc,))
    return problems


def check_scan_pairs(doc):
    pairs = doc["summary"]["pairs"]
    if pairs is None:
        return ["scan --pairs produced no pair summary"]
    if pairs["inconsistent"]:
        return ["%d inconsistent pairs in scan" % pairs["inconsistent"]]
    return []
