import itertools

from tracegenus.genus import (
    DIFFERENT,
    NOT_APPLICABLE,
    SAME,
    compare_spinor_genus,
    cross_validate,
    predict_equivalence,
)
from tracegenus.traceform import analyze_field
from tracegenus.polys import parse_poly


def test_quartic_pair_lands_in_different_genera(corpus_analyses):
    left = corpus_analyses["klein-quartic-a"]
    right = corpus_analyses["klein-quartic-b"]
    result = compare_spinor_genus(left, right)
    assert result.verdict == DIFFERENT
    assert result.disc_equal and result.signature_equal
    # the quadratic character of alpha at 5 (and 13) tells them apart
    rows = {row.p: row for row in result.alpha_rows}
    assert rows[5].left == -1 and rows[5].right == 1 and not rows[5].equal
    assert rows[13].left == 1 and rows[13].right == -1
    assert rows[17].equal
    assert not any(row.informational for row in result.alpha_rows)


def test_sextic_pair_lands_in_the_same_genus(corpus_analyses):
    left = corpus_analyses["sextic-pair-a"]
    right = corpus_analyses["sextic-pair-b"]
    result = compare_spinor_genus(left, right)
    assert result.verdict == SAME
    assert all(row.equal for row in result.alpha_rows)
    prediction = predict_equivalence(left, right)
    assert prediction.applicable and prediction.predicted_same
    assert prediction.isometry_claim  # complex embeddings exist (signature (0,3))
    assert prediction.exceptional_union == (107,)
    crossval = cross_validate(left, right)
    assert crossval.consistent


def test_prediction_not_applicable_to_non_gamma_fields(corpus_analyses):
    left = corpus_analyses["klein-quartic-a"]
    right = corpus_analyses["klein-quartic-b"]
    prediction = predict_equivalence(left, right)
    assert not prediction.applicable
    assert prediction.predicted_same is None
    assert not prediction.isometry_claim
    # the invariants decide (different), but with one route out of its
    # domain there is nothing to cross-check
    crossval = cross_validate(left, right)
    assert crossval.consistent is None
    assert crossval.comparison == compare_spinor_genus(left, right)
    assert crossval.prediction == prediction


def test_comparison_is_reflexive_and_symmetric(corpus_analyses):
    labels = ["s4-quartic", "d12-sextic", "sextic-pair-a", "cubic-32009-a"]
    for a in labels:
        analysis = corpus_analyses[a]
        assert compare_spinor_genus(analysis, analysis).verdict == SAME
    for a, b in itertools.combinations(labels, 2):
        left, right = corpus_analyses[a], corpus_analyses[b]
        fwd = compare_spinor_genus(left, right)
        rev = compare_spinor_genus(right, left)
        assert fwd.verdict == rev.verdict
        assert fwd.disc_equal == rev.disc_equal
        assert {r.p for r in fwd.alpha_rows} == {r.p for r in rev.alpha_rows}


def test_degree_gate():
    a = analyze_field(parse_poly("x^2 - 5"))
    b = analyze_field(parse_poly("x^2 - 13"))
    result = compare_spinor_genus(a, b)
    assert result.verdict == NOT_APPLICABLE
    assert result.reason == "degree-too-small"
    assert result.disc_equal is None


def test_degree_mismatch_gate(corpus_analyses):
    result = compare_spinor_genus(
        corpus_analyses["cubic-32009-a"], corpus_analyses["s4-quartic"]
    )
    assert result.verdict == NOT_APPLICABLE
    assert result.reason == "degree-mismatch"


def test_wild_ramification_gate(corpus_analyses):
    wild = corpus_analyses["wild2-quartic"]
    tame = corpus_analyses["s4-quartic"]
    result = compare_spinor_genus(wild, tame)
    assert result.verdict == NOT_APPLICABLE
    assert result.reason == "wild-ramification"
    prediction = predict_equivalence(wild, tame)
    assert not prediction.applicable and prediction.reason == "wild-ramification"


def test_different_disc_rows_are_informational():
    # same degree, both tame, discs differ (-23 vs -1219), both ramified at 23
    a = analyze_field(parse_poly("x^3 - x - 1"))
    b = analyze_field(parse_poly("x^3 - 8*x - 11"))
    result = compare_spinor_genus(a, b)
    assert result.verdict == DIFFERENT
    assert result.disc_equal is False
    assert {row.p for row in result.alpha_rows} == {23}
    for row in result.alpha_rows:
        assert row.informational  # discs already differ; rows are advisory only


def test_distinct_exceptional_primes_block_the_shortcut(corpus_analyses):
    # both gamma fields, but their exceptional primes differ, so the
    # disc+signature shortcut may not be invoked
    d12 = corpus_analyses["d12-sextic"]
    pair = corpus_analyses["sextic-pair-a"]
    prediction = predict_equivalence(d12, pair)
    assert not prediction.applicable
    assert prediction.reason == "distinct-exceptional-primes"
    assert prediction.exceptional_union == (23, 107)


def test_cubic_32009_family(corpus_analyses):
    from tracegenus.splitting import split_prime

    labels = ["cubic-32009-a", "cubic-32009-b", "cubic-32009-c", "cubic-32009-d"]
    analyses = [corpus_analyses[x] for x in labels]
    # a and b generate provably non-isomorphic fields: 5 is inert in one and
    # totally split in the other
    assert split_prime(analyses[0].max_order, 5).pairs == ((1, 3),)
    assert split_prime(analyses[1].max_order, 5).pairs == ((1, 1), (1, 1), (1, 1))
    for left, right in itertools.combinations(analyses, 2):
        result = compare_spinor_genus(left, right)
        assert result.verdict == SAME
        crossval = cross_validate(left, right)
        assert crossval.consistent
        prediction = predict_equivalence(left, right)
        assert prediction.applicable and prediction.predicted_same
        assert not prediction.isometry_claim  # totally real: signature (3, 0)
