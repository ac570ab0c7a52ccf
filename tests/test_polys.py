import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_real_roots, quotient_over_q, sylvester_disc, sylvester_resultant
import tracegenus.polys as polys_module
from tracegenus.errors import (
    DegenerateInputError,
    InternalConsistencyError,
    NonMonicInputError,
    OutOfDomainError,
    ParseError,
)
from tracegenus.polys import (
    IntPoly,
    coeff_csv,
    discriminant,
    exact_quotient,
    parse_poly,
    poly_gcd,
    poly_to_string,
    pseudo_rem,
    sturm_count_real_roots,
)


def poly(*low_to_high):
    return IntPoly(tuple(low_to_high))


nonzero_lead = st.integers(-30, 30).filter(lambda c: c != 0)


def polys(min_degree=1, max_degree=5, coeff=st.integers(-30, 30)):
    return st.integers(min_degree, max_degree).flatmap(
        lambda d: st.tuples(st.lists(coeff, min_size=d, max_size=d), nonzero_lead).map(
            lambda t: IntPoly(tuple(t[0]) + (t[1],))
        )
    )


# ---------------------------------------------------------------------------
# parsing and printing


# whitespace inside a number, non-ASCII digits and '_' were once read as
# part of a number: "x^2 + 1 2" as x^2 + 12, "1_0,0,1" as x^2 + 10
MISREAD_NUMBERS = (
    "x^2 + 1 2",
    "x^1 0 + 1",
    "1 0*x + 1",
    "\u0967x+1",
    "x^\u0662+1",
    "1_0,0,1",
    "1,0 1",
)


def test_parse_expression_forms():
    f = parse_poly("x^4 - 41*x^2 + 144")
    assert f.coeffs == (144, 0, -41, 0, 1)
    assert parse_poly("x^4-41x^2+144") == f  # implicit multiplication
    assert parse_poly("144 - 41 x^2 + x^4") == f  # any term order
    assert parse_poly("x ^ 4 - 41 * x ^ 2 + 144") == f  # blanks between tokens
    assert parse_poly("X^4 - 41X^2 + 144") == f  # case-insensitive variable


def test_parse_coefficient_csv():
    f = parse_poly("144,0,-41,0,1")  # low-to-high
    assert f == parse_poly("x^4 - 41*x^2 + 144")
    assert parse_poly("-1,-1,0,1") == parse_poly("x^3 - x - 1")
    assert parse_poly(" 144, 0 ,-41,0, 1 ") == f


def test_parse_rejects_garbage():
    garbage = ("", "   ", "x^2 -", "x^-1", "x^2 + 1/2", "2,x", "y^2 - 1", "x**2", "x^2*2")
    for bad in garbage + MISREAD_NUMBERS:
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_parse_degree_ceiling():
    assert parse_poly("x^10000 + 1").degree == 10000
    assert parse_poly(",".join(["1"] + ["0"] * 9999 + ["1"])).degree == 10000
    too_high = (
        "x^10001 + 1",
        "x^100000000000000000000 + 1",  # once an OverflowError from the dense list
        "x^10001 - x^10001 + 1",  # checked term by term, before terms cancel
        ",".join(["1"] + ["0"] * 10000 + ["1"]),
    )
    for text in too_high:
        with pytest.raises(ParseError, match="above the limit 10000"):
            parse_poly(text)


@pytest.mark.parametrize("text", ["x^2 + %s", "x^%s + 1", "%s,0,1"])
def test_parse_refuses_a_number_too_long_for_int(text):
    # once a ValueError from int(): Python reads at most 4300 digits
    with pytest.raises(ParseError, match="5000 digits"):
        parse_poly(text % ("7" * 5000))


def test_parse_collects_repeated_terms():
    assert parse_poly("x + x + 1") == poly(1, 2)
    assert parse_poly("x^2 - x^2 + 1") == poly(1)  # degree drops to 0


@given(polys(min_degree=0))
def test_print_parse_round_trip(f):
    assert parse_poly(poly_to_string(f)) == f


@given(polys(min_degree=0))
def test_csv_round_trip(f):
    assert parse_poly(coeff_csv(f)) == f
    assert coeff_csv(f) == ",".join(str(c) for c in f.coeffs)


def test_poly_basics():
    f = poly(-1, -1, 0, 1)
    assert f.degree == 3 and f.lc == 1 and f.is_monic
    assert f.derivative() == poly(-1, 0, 3)
    assert poly(4, 6).content() == 2
    assert poly(4, 6).primitive() == (2, poly(2, 3))
    q, r = poly(1, 0, 0, 1).divmod(poly(1, 1))  # x^3+1 = (x^2-x+1)(x+1)
    assert q == poly(1, -1, 1) and r.is_zero
    assert poly(1, 2).divmod(poly(0, 0, 1)) == (IntPoly(), poly(1, 2))
    for divisor in (poly(1, 2), IntPoly()):  # 2*x + 1 and zero are not monic
        with pytest.raises(OutOfDomainError):
            poly(1, 1).divmod(divisor)


# ---------------------------------------------------------------------------
# discriminants against the Sylvester oracle


def monic_polys(min_degree=1, max_degree=5, coeff=st.integers(-30, 30)):
    return st.integers(min_degree, max_degree).flatmap(
        lambda d: st.lists(coeff, min_size=d, max_size=d).map(lambda cs: IntPoly(tuple(cs) + (1,)))
    )


@given(monic_polys(min_degree=2, max_degree=5, coeff=st.integers(-12, 12)))
def test_discriminant_matches_sylvester(f):
    assert discriminant(f) == sylvester_disc(f.coeffs)


def test_discriminant_frozen_values():
    assert discriminant(parse_poly("x^2 - 5")) == 20
    assert discriminant(parse_poly("x^3 - x - 1")) == -23
    assert discriminant(parse_poly("x^4 - 41*x^2 + 144")) == 48**2 * 1221025
    assert discriminant(parse_poly("x^4 - x^3 - 46*x^2 - 115*x - 35")) == 6**2 * 1221025
    assert discriminant(parse_poly("x^4 - x^3 - 7*x^2 + 11*x + 3")) == -205379
    assert discriminant(parse_poly("x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5")) == 187**2 * 328509
    assert discriminant(parse_poly("x^3 - x^2 - 20*x - 1")) == 32009
    assert discriminant(parse_poly("x + 7")) == 1


@given(monic_polys(max_degree=4, coeff=st.integers(-8, 8)), monic_polys(max_degree=3, coeff=st.integers(-8, 8)))
def test_discriminant_of_product_multiplies(f, g):
    # disc(f*g) = disc(f) * disc(g) * Res(f, g)^2
    res = sylvester_resultant(f.coeffs, g.coeffs)
    assert discriminant(f * g) == discriminant(f) * discriminant(g) * res**2


def test_discriminant_of_a_repeated_factor_is_zero():
    assert discriminant(parse_poly("x^2 - 1") * parse_poly("x - 1")) == 0
    assert discriminant(parse_poly("x^2 + 1") * parse_poly("x^2 + 1")) == 0


@pytest.mark.parametrize("text", ["2*x^2 + 1", "-x^3 + x - 1", "3*x + 1"])
def test_discriminant_refuses_a_non_monic_polynomial(text):
    with pytest.raises(NonMonicInputError):
        discriminant(parse_poly(text))


# ---------------------------------------------------------------------------
# gcd, squarefree machinery


@given(polys(max_degree=3, coeff=st.integers(-6, 6)), polys(max_degree=3, coeff=st.integers(-6, 6)))
def test_gcd_divides_both(f, g):
    d = poly_gcd(f, g)
    # d is primitive, so d | h exactly when the pseudo-remainder vanishes
    assert pseudo_rem(f, d).is_zero
    assert pseudo_rem(g, d).is_zero


def test_gcd_of_known_common_factor():
    f = parse_poly("x^2 - 1") * parse_poly("x^2 + 1")
    g = parse_poly("x^2 - 1") * parse_poly("x + 2")
    d = poly_gcd(f, g)
    assert d == parse_poly("x^2 - 1")


def squarefree_part(f):
    """f / gcd(f, f') by division over Q, so f need not be monic; the
    quotient is integral by Gauss's lemma."""
    q = quotient_over_q(f.coeffs, poly_gcd(f, f.derivative()).coeffs)
    assert all(c.denominator == 1 for c in q)
    return IntPoly(int(c) for c in q)


def is_squarefree(f):
    return poly_gcd(f, f.derivative()).degree == 0


@given(polys(max_degree=3, coeff=st.integers(-9, 9)), polys(max_degree=3, coeff=st.integers(-9, 9)))
def test_exact_quotient_inverts_multiplication(a, b):
    b = IntPoly(b.coeffs[:-1] + (1,))  # divmod takes a monic divisor
    assert exact_quotient(a * b, b) == a
    # a remainder of lower degree comes back as it went in
    r0 = IntPoly(a.coeffs[: b.degree])
    assert (a * b + r0).divmod(b) == (a, r0)


def test_exact_quotient_hand_values():
    f = parse_poly("x - 1") * parse_poly("x - 1") * parse_poly("x + 2")
    assert not is_squarefree(f)
    assert squarefree_part(f) == parse_poly("x - 1") * parse_poly("x + 2")
    g = parse_poly("x^3 - x - 1")
    assert is_squarefree(g)
    assert squarefree_part(g) == g
    assert exact_quotient(IntPoly(), g).is_zero
    with pytest.raises(InternalConsistencyError):
        exact_quotient(parse_poly("x^2 + 1"), parse_poly("x + 1"))  # remainder 2
    with pytest.raises(OutOfDomainError):
        exact_quotient(parse_poly("x + 1"), parse_poly("2*x + 1"))  # not monic


# ---------------------------------------------------------------------------
# real root counting against the Descartes-bisection oracle


def test_sturm_frozen_values():
    assert sturm_count_real_roots(parse_poly("x^2 + 1")) == 0
    assert sturm_count_real_roots(parse_poly("x^2 - 5")) == 2
    assert sturm_count_real_roots(parse_poly("x^3 - x - 1")) == 1
    assert sturm_count_real_roots(parse_poly("x^4 - 41*x^2 + 144")) == 4
    assert sturm_count_real_roots(parse_poly("x^6 - x^5 - 2*x^4 + x^3 + 7*x^2 - 6*x + 4")) == 0
    assert sturm_count_real_roots(parse_poly("x^5 - x + 1")) == 1


def test_sturm_sign_recurrence_frozen_values():
    # negative leading coefficients and degree gaps flip the subresultant
    # scale beta, whose sign the Sturm signs must carry
    assert sturm_count_real_roots(parse_poly("-x^7 + x^6 - x^2 + x - 2")) == 1
    assert sturm_count_real_roots(parse_poly("x^9 - 9*x^4 - 4")) == 1
    assert sturm_count_real_roots(parse_poly("-2*x^7 + x^2 - 1")) == 1
    assert sturm_count_real_roots(parse_poly("x^5 - 3*x + 1")) == 3


def sparse_polys():
    """Degree 1-12, 1-3 nonzero lower terms, a small leading coefficient."""
    nonzero = st.integers(-12, 12).filter(lambda c: c != 0)

    def build(d, lead, lower):
        cs = [0] * d + [lead]
        for e, c in lower.items():
            cs[e] = c
        return IntPoly(cs)

    return st.integers(1, 12).flatmap(
        lambda d: st.builds(
            build,
            st.just(d),
            st.sampled_from([1, -1, 2, -3, 5]),
            st.dictionaries(st.integers(0, d - 1), nonzero, min_size=1, max_size=min(3, d)),
        )
    )


@settings(max_examples=150)
@given(sparse_polys())
def test_sign_recurrence_on_sparse_polynomials(f):
    g = squarefree_part(f)
    if g.degree >= 1:
        assert sturm_count_real_roots(g) == count_real_roots(g.coeffs)
    if f.degree >= 2:
        monic = IntPoly(f.coeffs[:-1] + (1,))
        assert discriminant(monic) == sylvester_disc(monic.coeffs)


@pytest.mark.parametrize("text", ["x^3 - x^2", "x^4 + 2*x^2 + 1"])
def test_sturm_refuses_a_repeated_factor(text):
    with pytest.raises(OutOfDomainError, match="squarefree"):
        sturm_count_real_roots(parse_poly(text))


def test_sturm_checks_squarefreeness_in_its_own_chain(monkeypatch):
    def no_gcd(*args):
        raise AssertionError("Sturm count called poly_gcd")

    monkeypatch.setattr(polys_module, "poly_gcd", no_gcd)
    assert sturm_count_real_roots(parse_poly("x^4 - 41*x^2 + 144")) == 4
    with pytest.raises(OutOfDomainError):
        sturm_count_real_roots(parse_poly("x^3 - x^2"))


@given(polys(min_degree=1, max_degree=5, coeff=st.integers(-15, 15)))
def test_sturm_matches_descartes_bisection(f):
    g = squarefree_part(f)
    assert sturm_count_real_roots(g) == count_real_roots(g.coeffs)


@given(st.lists(st.integers(-10, 10), min_size=1, max_size=5, unique=True))
def test_sturm_on_split_polynomials(roots):
    f = poly(1)
    for r in roots:
        f = f * poly(-r, 1)
    assert sturm_count_real_roots(f) == len(roots)


def test_zero_polynomial_rejected():
    with pytest.raises(DegenerateInputError):
        discriminant(IntPoly((3,)))  # constant has no discriminant
