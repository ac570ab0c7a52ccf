import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import is_eisenstein_at, quadratic_is_irreducible
from tracegenus.errors import DegenerateInputError
from tracegenus.polys import IntPoly, parse_poly
from tracegenus.zfactor import factor_over_z, is_irreducible, yun_squarefree


def poly(*low_to_high):
    return IntPoly(tuple(low_to_high))


# strategies producing certified-irreducible monic building blocks
linears = st.integers(-15, 15).map(lambda a: poly(a, 1))

quadratics = (
    st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    .filter(lambda t: quadratic_is_irreducible(t[0], t[1]))
    .map(lambda t: poly(t[1], t[0], 1))
)

eisensteins = (
    st.tuples(st.integers(1, 3), st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    .map(lambda t: poly(*([2 * t[0]] + [2 * c for c in t[1]] + [1])))
    .filter(lambda f: is_eisenstein_at(f.coeffs, 2))
)

blocks = st.one_of(linears, quadratics, eisensteins)


def multiply(factors):
    out = poly(1)
    for f in factors:
        out = out * f
    return out


# ---------------------------------------------------------------------------
# recombination: factor products of known irreducibles


@given(st.lists(blocks, min_size=1, max_size=3))
def test_factor_recovers_known_irreducibles(parts):
    f = multiply(parts)
    content, factors = factor_over_z(f)
    assert content == 1
    expected = {}
    for g in parts:
        expected[g.coeffs] = expected.get(g.coeffs, 0) + 1
    got = {}
    for g, m in factors:
        got[g.coeffs] = got.get(g.coeffs, 0) + m
    assert got == expected


@given(st.lists(blocks, min_size=1, max_size=3), st.integers(-6, 6).filter(lambda c: c != 0))
def test_factor_pulls_out_content(parts, c):
    f = multiply(parts)
    scaled = IntPoly(tuple(c * x for x in f.coeffs))
    content, factors = factor_over_z(scaled)
    assert content == c
    assert multiply([g for g, m in factors for _ in range(m)]) == f


@given(blocks, st.integers(1, 3))
def test_factor_tracks_multiplicity(g, e):
    f = multiply([g] * e)
    _, factors = factor_over_z(f)
    assert factors == [(g, e)]


@given(st.lists(blocks, min_size=1, max_size=4))
def test_factor_product_reconstructs(parts):
    f = multiply(parts)
    content, factors = factor_over_z(f)
    recon = poly(content)
    for g, m in factors:
        assert g.lc > 0
        for _ in range(m):
            recon = recon * g
    assert recon == f


# ---------------------------------------------------------------------------
# frozen examples


def test_factor_cyclotomic_products():
    _, factors = factor_over_z(parse_poly("x^4 - 1"))
    assert {g.coeffs for g, _ in factors} == {(-1, 1), (1, 1), (1, 0, 1)}
    _, factors = factor_over_z(parse_poly("x^6 - 1"))
    assert {g.coeffs for g, _ in factors} == {
        (-1, 1),
        (1, 1),
        (1, -1, 1),
        (1, 1, 1),
    }


def test_is_irreducible_knowns():
    assert is_irreducible(parse_poly("x^4 + 1"))  # reducible mod every prime, not over Z
    assert is_irreducible(parse_poly("x^3 - x - 1"))
    assert is_irreducible(parse_poly("x^6 + x^5 + x^4 + x^3 + x^2 + x + 1"))
    assert is_irreducible(parse_poly("x^5 - x + 1"))
    assert not is_irreducible(parse_poly("x^2 - 1"))
    assert is_irreducible(parse_poly("x^4 - 41*x^2 + 144"))  # large index, still irreducible
    # sextic stress where naive mod-p shapes recombine: (x^2-2)(x^2-3)(x^2-6)
    f = parse_poly("x^2 - 2") * parse_poly("x^2 - 3") * parse_poly("x^2 - 6")
    _, factors = factor_over_z(f)
    assert {g.coeffs for g, _ in factors} == {(-6, 0, 1), (-3, 0, 1), (-2, 0, 1)}


def test_yun_squarefree_structure():
    f = parse_poly("x - 1") * parse_poly("x - 1") * parse_poly("x + 3")
    parts = yun_squarefree(f)
    assert (parse_poly("x + 3"), 1) in parts
    assert (parse_poly("x - 1"), 2) in parts


def test_factor_non_monic_through_the_monicizing_substitution():
    a, b, c = parse_poly("2*x - 1"), parse_poly("3*x^2 - 2"), parse_poly("2*x^2 + 1")
    f = a * a * b * c * 6
    assert factor_over_z(f) == (6, [(a, 2), (b, 1), (c, 1)])
    assert factor_over_z(parse_poly("6*x^2 + x - 2")) == (1, [(a, 1), (parse_poly("3*x + 2"), 1)])
    assert is_irreducible(c)
    assert not is_irreducible(parse_poly("4*x^2 - 1"))


def test_factor_rejects_zero():
    with pytest.raises(DegenerateInputError):
        factor_over_z(IntPoly((0,)))
