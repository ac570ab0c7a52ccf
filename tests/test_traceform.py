import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    alpha_matches_disc_formula,
    brute_legendre,
    brute_nonresidue,
    count_real_roots,
    disc_square_class,
    field_signature,
    frac_det,
    gram_by_products,
    jordan_symbol,
    power_sum_of_roots,
    splitting_at,
    tschirnhaus,
    verify_alpha_formula,
)
from tracegenus import linalg, polys
from tracegenus.errors import InvalidPrimeError, OutOfDomainError, WildRamificationError
from tracegenus.genus import NOT_APPLICABLE, SAME, compare_spinor_genus
from tracegenus.linalg import signature_of_symmetric
from tracegenus.orders import equation_order, maximal_order
from tracegenus.polys import IntPoly, discriminant, parse_poly, poly_gcd
from tracegenus.report import analysis_document, analysis_from_document
from tracegenus.splitting import SplittingType
from tracegenus.traceform import (
    alpha_invariant,
    analyze_field,
    classify_gamma,
    gamma_test,
    gram_matrix,
    power_sums,
)


def poly(*low_to_high):
    return IntPoly(tuple(low_to_high))


# ---------------------------------------------------------------------------
# power sums and traces


@given(st.lists(st.integers(-8, 8), min_size=1, max_size=5))
def test_power_sums_match_explicit_roots(roots):
    f = poly(1)
    for r in roots:
        f = f * poly(-r, 1)
    sums = power_sums(f, 6)
    for k in range(7):
        assert sums[k] == power_sum_of_roots(roots, k)


def test_power_sums_quadratic_recurrence():
    # for x^2 - t x - 1 the power sums satisfy s_k = t s_{k-1} + s_{k-2}
    for t in (1, 2, 5):
        f = poly(-1, -t, 1)
        s = power_sums(f, 8)
        for k in range(2, 9):
            assert s[k] == t * s[k - 1] + s[k - 2]


def test_trace_of_basis_elements():
    # on the power basis the Gram matrix is the Hankel matrix of power sums
    f = parse_poly("x^3 - x^2 - 20*x - 1")
    sums = power_sums(f, 4)
    gram = gram_matrix(equation_order(f))
    assert gram == tuple(tuple(sums[a + b] for b in range(3)) for a in range(3))
    assert gram[0][0] == 3  # Tr(1) = degree
    assert gram[0][1] == 1  # Tr(theta) = -a2


# ---------------------------------------------------------------------------
# Gram matrices of the integral trace


def test_gram_quadratic_hand_values():
    mo = maximal_order(parse_poly("x^2 - 5"))
    tf = gram_matrix(mo.order)
    assert tf == ((2, 1), (1, 3))  # basis 1, (1+sqrt5)/2
    mo = maximal_order(parse_poly("x^2 + 1"))
    assert gram_matrix(mo.order) == ((2, 0), (0, -2))


def test_gram_quartic_frozen():
    mo = maximal_order(parse_poly("x^4 - 41*x^2 + 144"))
    gram = gram_matrix(mo.order)
    assert gram == (
        (4, 0, 41, 2),
        (0, 82, 41, 181),
        (41, 41, 717, 111),
        (2, 181, 111, 414),
    )
    assert frac_det(gram) == 1221025


@pytest.mark.parametrize(
    "text",
    [
        "x^2 - 5",
        "x^3 - x - 1",
        "x^4 - 41*x^2 + 144",
        "x^4 - x^3 - 46*x^2 - 115*x - 35",
        "x^4 - x^3 - 7*x^2 + 11*x + 3",
        "x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5",
        "x^6 - x^5 - 2*x^4 + x^3 + 7*x^2 - 6*x + 4",
    ],
)
def test_gram_det_is_field_disc_and_signature_matches(text):
    f = parse_poly(text)
    mo = maximal_order(f)
    gram = gram_matrix(mo.order)
    assert all(gram[i][j] == gram[j][i] for i in range(len(gram)) for j in range(len(gram)))
    assert frac_det(gram) == mo.disc
    r, s = field_signature(f)
    assert signature_of_symmetric(gram) == ((r + s, s), mo.disc)


def test_gram_matches_polynomial_products_on_corpus(corpus_analyses):
    denoms = set()
    for analysis in corpus_analyses.values():
        order = analysis.max_order.order
        assert gram_matrix(order) == gram_by_products(order)
        denoms.add(order.denom)
    assert len(denoms) > 3  # integral bases well away from the power basis


@pytest.mark.parametrize("text", ["x^32 + 1", "x^40 - 3"])
def test_gram_matches_polynomial_products_in_high_degree(text):
    mo = maximal_order(parse_poly(text))
    assert gram_matrix(mo.order) == gram_by_products(mo.order)


# ---------------------------------------------------------------------------
# signatures


def test_field_signature_frozen():
    assert field_signature(parse_poly("x^4 - 41*x^2 + 144")) == (4, 0)
    assert field_signature(parse_poly("x^4 - x^3 - 7*x^2 + 11*x + 3")) == (2, 1)
    assert field_signature(parse_poly("x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5")) == (2, 2)
    assert field_signature(parse_poly("x^6 - x^5 - 2*x^4 + x^3 + 7*x^2 - 6*x + 4")) == (0, 3)
    assert field_signature(parse_poly("x^5 - x + 1")) == (1, 2)
    assert field_signature(parse_poly("x^3 - x - 1")) == (1, 1)


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=5))
def test_field_signature_matches_root_count(cs):
    # the power-basis trace form of any squarefree f has inertia (r + s, s)
    # and det disc(f), irreducible or not
    f = IntPoly(tuple(cs) + (1,))
    if poly_gcd(f, f.derivative()).degree > 0:
        return
    r, s = field_signature(f)
    assert r + 2 * s == f.degree
    assert r == count_real_roots(f.coeffs)
    assert signature_of_symmetric(gram_matrix(equation_order(f))) == ((r + s, s), discriminant(f))


def test_form_signature_matches_sturm_on_corpus(corpus_analyses):
    for label, fa in corpus_analyses.items():
        assert fa.signature == field_signature(fa.poly), label


def test_no_command_path_calls_sturm_or_bareiss(monkeypatch, corpus_records):
    """analyze_field and a cache decode read det and (r, s) from the one
    elimination: Sturm and the second determinant raise if reached."""

    def unreachable(*args):
        raise AssertionError("called off the analysis path")

    for original in (linalg.det_bareiss, polys.sturm_count_real_roots):
        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] == "tracegenus":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, unreachable)
    for rec in corpus_records:
        fa = analyze_field(parse_poly(rec.text))
        assert analysis_from_document(analysis_document(fa, rec.text)) == fa, rec.label


# ---------------------------------------------------------------------------
# alpha invariants


def test_alpha_frozen_tables(corpus_analyses):
    expect = {
        "klein-quartic-a": {5: -1, 13: 1, 17: -1},
        "klein-quartic-b": {5: 1, 13: -1, 17: -1},
        "s4-quartic": {59: 1},
        "d12-sextic": {3: -1, 23: -1},
        "sextic-pair-a": {3: -1, 107: 1},
        "sextic-pair-b": {3: -1, 107: 1},
    }
    for label, table in expect.items():
        analysis = corpus_analyses[label]
        got = {a.p: a.legendre for a in analysis.alphas}
        assert got == table, label


def test_alpha_structure():
    # shape (2,2) at 5: alpha = 2^2 * u^(2-1) with u = 2, so 8, a nonresidue
    a = alpha_invariant(SplittingType(p=5, pairs=((2, 2),)))
    assert (a.representative - 8) % 5 == 0
    assert a.nonresidue == brute_nonresidue(5) == 2
    assert a.legendre == brute_legendre(8, 5) == -1
    assert a.unit_rep == a.nonresidue  # odd power of u
    # shape (2,1),(2,1) at 13: alpha = 2*2 * u^0 = 4, a square
    a = alpha_invariant(SplittingType(p=13, pairs=((2, 1), (2, 1))))
    assert a.legendre == 1 and a.unit_rep == 1


@given(st.permutations([(2, 1), (1, 2), (2, 2), (1, 1)]))
def test_alpha_is_order_invariant(pairs):
    base = alpha_invariant(SplittingType(p=11, pairs=((2, 1), (1, 2), (2, 2), (1, 1))))
    shuffled = alpha_invariant(SplittingType(p=11, pairs=tuple(pairs)))
    assert shuffled.legendre == base.legendre
    assert shuffled.representative % 11 == base.representative % 11


def test_alpha_of_totally_split_prime_is_trivial():
    a = alpha_invariant(SplittingType(p=7, pairs=((1, 1),) * 4))
    assert a.representative % 7 == 1 and a.legendre == 1


def test_alpha_rejects_bad_primes():
    with pytest.raises(InvalidPrimeError):
        alpha_invariant(SplittingType(p=2, pairs=((2, 1),)))
    with pytest.raises(WildRamificationError):
        alpha_invariant(SplittingType(p=3, pairs=((3, 1),)))


# ---------------------------------------------------------------------------
# alpha from the lattice side: odd-p Jordan symbols of the Gram matrix


def test_alpha_is_the_unimodular_jordan_symbol(corpus_analyses):
    # the scale-1 (p^0) constituent carries alpha; an empty one has symbol +1
    checked = 0
    for label, fa in corpus_analyses.items():
        for a in fa.alphas:
            assert jordan_symbol(fa.trace_form.gram, a.p).get(0, (0, 1))[1] == a.legendre, (
                label,
                a.p,
            )
            checked += 1
    assert checked == 117


def _odd_jordan_differences(left, right):
    return [
        p
        for p, _ in left.disc_factored
        if p != 2 and jordan_symbol(left.trace_form.gram, p) != jordan_symbol(right.trace_form.gram, p)
    ]


def test_klein_quartics_differ_in_jordan_symbol_where_alpha_does(corpus_analyses):
    left, right = corpus_analyses["klein-quartic-a"], corpus_analyses["klein-quartic-b"]
    assert left.disc == right.disc
    assert _odd_jordan_differences(left, right) == [5, 13]
    assert [a.p for a, b in zip(left.alphas, right.alphas) if a.legendre != b.legendre] == [5, 13]


@pytest.mark.parametrize(
    "left, right",
    [
        ("sextic-pair-a", "sextic-pair-b"),
        ("cubic-32009-a", "cubic-32009-b"),
        ("cubic-32009-a", "cubic-32009-c"),
        ("cubic-32009-a", "cubic-32009-d"),
    ],
)
def test_same_genus_pairs_share_odd_jordan_symbols(corpus_analyses, left, right):
    fa, fb = corpus_analyses[left], corpus_analyses[right]
    assert fa.disc == fb.disc
    assert _odd_jordan_differences(fa, fb) == []


# ---------------------------------------------------------------------------
# Tschirnhaus invariance: g, the characteristic polynomial of h(theta),
# defines the same field as f when it is squarefree, so every invariant of
# the field must come out equal


def test_tschirnhaus_transforms_keep_every_invariant(corpus_records, corpus_analyses):
    # 20 fields, one h each, redrawn only when g is not squarefree: the
    # sample is sized by its count, never by how long a record takes
    rng = random.Random(20261019)
    for rec in rng.sample(corpus_records, 20):
        f = parse_poly(rec.text)
        while True:
            h = IntPoly([rng.randint(-2, 2) for _ in range(f.degree)])
            g = tschirnhaus(f, h)
            if discriminant(g) != 0:
                break
        fa, ga = corpus_analyses[rec.label], analyze_field(g)
        where = (rec.label, str(h), str(g))
        assert ga.disc == fa.disc and ga.signature == fa.signature, where
        assert ga.disc_factored == fa.disc_factored, where
        assert ga.splittings == fa.splittings, where
        legendre = [[(a.p, a.legendre) for a in x.alphas] for x in (fa, ga)]
        assert legendre[0] == legendre[1], where
        assert ga.gamma == fa.gamma, where
        assert ga.trace_form.det == fa.trace_form.det, where
        assert ga.trace_form.signature == fa.trace_form.signature, where
        assert _odd_jordan_differences(fa, ga) == [], where
        applies = f.degree >= 3 and fa.gamma.is_tame
        assert compare_spinor_genus(fa, ga).verdict == (SAME if applies else NOT_APPLICABLE), where


# ---------------------------------------------------------------------------
# the square class n/(n - v_p(d)) and its equality with alpha


def test_disc_square_class_worked_example():
    # degree 4, disc valuation 2 at p=5: class of 4/2 = 2, a nonresidue mod 5
    cls = disc_square_class(4, 2, 5)
    assert cls.representative % 5 == 2
    assert cls.legendre == -1
    alpha = alpha_invariant(SplittingType(p=5, pairs=((2, 2),)))
    assert alpha_matches_disc_formula(4, 2, alpha)


def test_disc_square_class_domain():
    with pytest.raises(OutOfDomainError):
        disc_square_class(4, 0, 5)  # unramified
    with pytest.raises(OutOfDomainError):
        disc_square_class(4, 4, 5)  # valuation out of range
    with pytest.raises(OutOfDomainError):
        disc_square_class(6, 4, 3)  # 6/2 = 3 is not a unit mod 3
    with pytest.raises(OutOfDomainError, match=r"^square class of 3 is not a unit at 3$"):
        disc_square_class(9, 6, 3)  # 9/3 reduces to the integer 3
    with pytest.raises(OutOfDomainError, match=r"^square class of 3/2 is not a unit at 3$"):
        disc_square_class(9, 3, 3)


@given(
    st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]),
    st.integers(2, 12),
    st.integers(0, 2).flatmap(lambda k: st.lists(st.integers(1, 4), min_size=2 * k + 1, max_size=2 * k + 1)),
)
def test_alpha_is_the_disc_square_class_at_every_gamma_prime(p, e, residue_degrees):
    # a prime passing the gamma test has one index e and odd g and F = n/e,
    # so alpha_p = e^F u^(F - g) is e mod squares, and so is n/(n - v_p(d_K))
    # as v_p(d_K) = (e - 1) F: the formula is an identity, not a cross-check
    if e % p == 0:
        e += 1  # tame
    fs = list(residue_degrees)
    if sum(fs) % 2 == 0:
        fs[0] += 1  # F odd
    split = SplittingType(p=p, pairs=tuple(sorted((e, f) for f in fs)))
    n = e * sum(fs)
    assert gamma_test(n, split).passes
    alpha = alpha_invariant(split)
    assert alpha.legendre == disc_square_class(n, split.tame_disc_valuation, p).legendre


def test_verify_alpha_formula_on_gamma_fields(corpus_analyses):
    d12 = corpus_analyses["d12-sextic"]
    assert verify_alpha_formula(d12, 3)
    with pytest.raises(OutOfDomainError):
        verify_alpha_formula(d12, 23)  # exceptional prime is out of scope
    klein = corpus_analyses["klein-quartic-a"]
    with pytest.raises(OutOfDomainError):
        verify_alpha_formula(klein, 5)  # not in the classified family


# ---------------------------------------------------------------------------
# gamma classification


def test_gamma_test_bullet_values():
    t = gamma_test(6, SplittingType(p=3, pairs=((2, 3),)))
    assert (t.homogeneous, t.g_odd, t.quotient_odd, t.passes) == (True, True, True, True)
    t = gamma_test(6, SplittingType(p=23, pairs=((2, 1), (2, 2))))
    assert (t.homogeneous, t.g_odd, t.quotient_odd, t.passes) == (True, False, True, False)
    t = gamma_test(4, SplittingType(p=5, pairs=((2, 2),)))
    assert (t.homogeneous, t.g_odd, t.quotient_odd, t.passes) == (True, True, False, False)
    # not homogeneous: the quotient bullet cannot hold either
    t = gamma_test(6, SplittingType(p=107, pairs=((1, 2), (2, 2))))
    assert (t.homogeneous, t.g_odd, t.quotient_odd, t.passes) == (False, False, False, False)


def test_classify_gamma_frozen(corpus_analyses):
    expect = {
        "klein-quartic-a": (True, False, None, (5, 13, 17)),
        "klein-quartic-b": (True, False, None, (5, 13, 17)),
        "s4-quartic": (True, True, None, ()),
        "d12-sextic": (True, True, 23, (23,)),
        "sextic-pair-a": (True, True, 107, (107,)),
        "sextic-pair-b": (True, True, 107, (107,)),
        "wild3-cubic": (False, False, None, ()),
    }
    for label, (tame, gamma, exceptional, failing) in expect.items():
        g = corpus_analyses[label].gamma
        assert (g.is_tame, g.is_gamma, g.exceptional, g.failing) == (
            tame,
            gamma,
            exceptional,
            failing,
        ), label


def test_classify_gamma_failure_counting():
    passing = SplittingType(p=3, pairs=((2, 3),))
    failing_a = SplittingType(p=23, pairs=((2, 1), (2, 2)))
    failing_b = SplittingType(p=107, pairs=((1, 2), (2, 2)))
    # no failing primes: gamma with no exceptional prime
    g = classify_gamma(6, (passing,))
    assert g.is_gamma and g.exceptional is None
    # exactly one failing prime: gamma, that prime is exceptional
    g = classify_gamma(6, (passing, failing_a))
    assert g.is_gamma and g.exceptional == 23
    # two failing primes: not gamma, no exceptional prime reported
    g = classify_gamma(6, (passing, failing_a, failing_b))
    assert not g.is_gamma and g.exceptional is None and g.failing == (23, 107)
    # wild ramification disqualifies regardless of bullet counts
    g = classify_gamma(6, (SplittingType(p=3, pairs=((3, 2),)),))
    assert not g.is_tame and not g.is_gamma


def test_even_prime_never_enters_the_bullet_tests():
    # 2 ramifies tamely when its ramification indices are odd (e.g. a totally
    # ramified cubic); it still never participates in the odd-prime bullets
    g = classify_gamma(3, (SplittingType(p=2, pairs=((3, 1),)),))
    assert g.is_tame and g.is_gamma and g.exceptional is None
    assert all(t.p != 2 for t in g.tests)


# ---------------------------------------------------------------------------
# end-to-end analyze_field plumbing


def test_analyze_field_structure():
    analysis = analyze_field(parse_poly("x^4 - 41*x^2 + 144"))
    assert analysis.degree == 4
    assert analysis.signature == (4, 0)
    assert analysis.disc == 1221025
    assert analysis.index == 48
    assert [sp.p for sp in analysis.splittings] == [5, 13, 17]
    assert splitting_at(analysis, 13).pairs == ((2, 1), (2, 1))
    assert analysis.alpha_at(17).legendre == -1
    assert analysis.alpha_at(19) is None
    assert analysis.trace_form.det == 1221025
    assert analysis.trace_form.signature == (4, 0)


def test_analyze_degree_one():
    analysis = analyze_field(parse_poly("x + 9"))
    assert analysis.degree == 1
    assert analysis.signature == (1, 0)
    assert analysis.disc == 1
    assert analysis.trace_form.gram == ((1,),)
    assert analysis.splittings == ()
    assert analysis.gamma.is_gamma  # vacuously tame, nothing fails
