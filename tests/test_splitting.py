import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import is_squarefree_int, quadratic_splitting
from tracegenus import modp
from tracegenus.errors import (
    InvalidPrimeError,
    ReducibleInputError,
    WildRamificationError,
)
from tracegenus.linalg import left_kernel_mod_p
from tracegenus.orders import _mul_mod_p, frobenius_matrix, maximal_order, mult_table
from tracegenus.polys import IntPoly, parse_poly
from tracegenus.splitting import SplittingType, algebra_splitting, split_prime

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

# (polynomial, {p: pairs}): shapes verified by hand against the splitting data
KNOWN_SPLITTINGS = [
    ("x^4 - 41*x^2 + 144", {2: ((1, 1),) * 4, 5: ((2, 2),), 13: ((2, 1), (2, 1)), 17: ((2, 2),)}),
    ("x^4 - x^3 - 46*x^2 - 115*x - 35", {5: ((2, 1), (2, 1)), 13: ((2, 2),), 17: ((2, 2),)}),
    ("x^4 - x^3 - 7*x^2 + 11*x + 3", {59: ((4, 1),)}),
    ("x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5", {3: ((2, 3),), 23: ((2, 1), (2, 2))}),
    ("x^6 - x^5 - 2*x^4 + x^3 + 7*x^2 - 6*x + 4", {3: ((2, 3),), 107: ((1, 2), (2, 2))}),
    ("x^6 - 3*x^5 + 10*x^4 - 15*x^3 + 19*x^2 - 12*x + 3", {3: ((2, 1), (2, 1), (2, 1)), 107: ((1, 2), (2, 2))}),
    ("x^3 - x^2 - 20*x - 1", {32009: ((1, 1), (2, 1))}),
    ("x^3 - 41*x - 95", {32009: ((1, 1), (2, 1)), 5: ((1, 1), (1, 1), (1, 1))}),
    ("x^3 - 2", {2: ((3, 1),), 3: ((3, 1),)}),
    ("x^4 + 1", {2: ((4, 1),), 17: ((1, 1), (1, 1), (1, 1), (1, 1))}),
    # 2 divides the index of these three: four idempotents out of F_2, and
    # components with mixed (e, f)
    ("x^8 - 6*x^6 - 5*x^5 + 8", {2: ((1, 1), (1, 2), (5, 1))}),
    ("x^5 + 22*x^3 + 25*x^2 + 16", {2: ((1, 1), (1, 2), (2, 1))}),
]


@pytest.mark.parametrize("text,shapes", KNOWN_SPLITTINGS, ids=[k[0] for k in KNOWN_SPLITTINGS])
def test_known_splittings(text, shapes):
    mo = maximal_order(parse_poly(text))
    for p, pairs in shapes.items():
        assert split_prime(mo, p).pairs == pairs


def test_polynomial_route_reads_only_the_distinct_degree_shape(monkeypatch):
    # no equal-degree splitting, and one Frobenius x^p for a squarefree
    # cubic; at the ramified 32009 the squarefree parts are linear and need none
    mo = maximal_order(parse_poly("x^3 - x^2 - 20*x - 1"))

    def refuse(*args):
        raise AssertionError("the polynomial route split equal degrees")

    powers = []
    pow_mod = modp.pow_mod
    monkeypatch.setattr(modp, "equal_degree", refuse)
    monkeypatch.setattr(modp, "pow_mod", lambda *args: powers.append(args[1]) or pow_mod(*args))
    assert split_prime(mo, 32009).pairs == ((1, 1), (2, 1))
    assert split_prime(mo, 10**9 + 7).pairs == ((1, 1), (1, 1), (1, 1))
    assert powers == [10**9 + 7]


def test_index_divisible_prime_uses_the_algebra_route():
    # 3 divides the index here, so the mod-3 shape of the polynomial lies;
    # the quotient-algebra decomposition must still see three primes with e=2
    mo = maximal_order(parse_poly("x^6 - 3*x^5 + 10*x^4 - 15*x^3 + 19*x^2 - 12*x + 3"))
    assert mo.index == 3
    assert split_prime(mo, 3).pairs == ((2, 1), (2, 1), (2, 1))


squarefree_d = st.integers(-150, 150).filter(
    lambda d: d not in (0, 1) and is_squarefree_int(d)
)


@given(squarefree_d, st.sampled_from(SMALL_PRIMES))
def test_quadratic_splitting_matches_closed_form(d, p):
    mo = maximal_order(IntPoly((-d, 0, 1)))
    assert split_prime(mo, p).pairs == quadratic_splitting(mo.disc, p)


@given(squarefree_d, st.sampled_from((3, 5, 7, 11)))
def test_routes_agree_on_quadratics(d, p):
    mo = maximal_order(IntPoly((-d, 0, 1)))
    assert algebra_splitting(mo, p) == split_prime(mo, p)


def test_routes_agree_on_corpus(corpus_analyses):
    checked = 0
    for analysis in corpus_analyses.values():
        if analysis.degree == 1:
            continue
        for sp in analysis.splittings:
            algebra = algebra_splitting(analysis.max_order, sp.p)
            assert algebra.pairs == sp.pairs
            checked += 1
    assert checked > 60  # many ramified primes across the corpus


def test_routes_agree_at_small_primes_on_corpus(corpus_analyses):
    # unramified primes included: the algebra route then refines 1 into g
    # idempotents with no ramified prime to force it, and g is the dimension
    # of the Frobenius-fixed subalgebra
    split_three_ways = 0
    for analysis in corpus_analyses.values():
        mo = analysis.max_order
        if mo.degree == 1:
            continue
        for p in SMALL_PRIMES:
            algebra = algebra_splitting(mo, p)
            assert algebra == split_prime(mo, p)
            frob = frobenius_matrix(mult_table(mo.order), p)
            shifted = [[(c - (i == j)) % p for j, c in enumerate(row)] for i, row in enumerate(frob)]
            assert len(left_kernel_mod_p(shifted, p)) == algebra.g
            split_three_ways += algebra.g >= 3
    assert split_three_ways > 50


def test_routes_agree_on_random_fields():
    # seeded monic fields of degree 3-6: algebra_splitting against
    # the mod-p shape at every small or ramified prime prime to the index
    rng = random.Random(19)
    fields = checked = 0
    while fields < 60:
        f = IntPoly([rng.randint(-40, 40) for _ in range(rng.randint(3, 6))] + [1])
        try:
            mo = maximal_order(f)
        except ReducibleInputError:
            continue
        fields += 1
        primes = set(SMALL_PRIMES) | {q for q, _ in mo.disc_factored.factors}
        for p in sorted(q for q in primes if mo.index % q):
            assert algebra_splitting(mo, p) == split_prime(mo, p)
            checked += 1
    assert checked > 400


def test_splitting_invariants_on_corpus(corpus_analyses):
    for analysis in corpus_analyses.values():
        n = analysis.degree
        for sp in analysis.splittings:
            assert sum(e * f for e, f in sp.pairs) == n
            assert sp.is_ramified
            if sp.is_tame:
                assert sp.tame_disc_valuation == analysis.max_order.disc_factored.valuation(sp.p)


def test_unramified_prime_has_trivial_shape():
    mo = maximal_order(parse_poly("x^3 - x - 1"))  # disc -23
    for p in (2, 3, 5, 7, 11):
        sp = split_prime(mo, p)
        assert all(e == 1 for e, _ in sp.pairs)
        assert not sp.is_ramified and sp.is_tame


def test_splitting_type_properties():
    sp = SplittingType(p=23, pairs=((2, 1), (2, 2)))
    assert sp.g == 2
    assert sp.residue_degree_sum == 3
    assert sp.is_ramified and sp.is_tame and sp.is_homogeneous
    assert sp.tame_disc_valuation == 1 * 1 + 1 * 2
    wild = SplittingType(p=2, pairs=((4, 1),))
    assert not wild.is_tame
    with pytest.raises(WildRamificationError):
        wild.tame_disc_valuation
    mixed = SplittingType(p=107, pairs=((1, 2), (2, 2)))
    assert not mixed.is_homogeneous and mixed.is_tame


def test_pairs_are_sorted_canonically():
    mo = maximal_order(parse_poly("x^3 - 41*x - 95"))
    sp = split_prime(mo, 32009)
    assert sp.pairs == tuple(sorted(sp.pairs))


def test_degree_one_field_splitting():
    mo = maximal_order(parse_poly("x - 3"))
    assert split_prime(mo, 7).pairs == ((1, 1),)


def test_split_prime_rejects_composite():
    mo = maximal_order(parse_poly("x^2 - 5"))
    with pytest.raises(InvalidPrimeError):
        split_prime(mo, 6)


def test_quotient_algebra_is_commutative_and_associative():
    mo = maximal_order(parse_poly("x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5"))
    table = mult_table(mo.order)
    n, p = mo.degree, 3

    def mul(x, y):
        out = [0] * n
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        for k, c in enumerate(table[i][j]):
                            out[k] = (out[k] + xi * yj * c) % p
        return out

    vecs = [[1 if i == j else 0 for j in range(n)] for i in (0, 1, 3, 5)]
    vecs.append([1, 2, 0, 1, 0, 2])
    for x in vecs:
        for y in vecs:
            assert _mul_mod_p(table, x, y, p) == mul(x, y)
            assert mul(x, y) == mul(y, x)
            for z in vecs[:3]:
                assert mul(mul(x, y), z) == mul(x, mul(y, z))
    one = [1] + [0] * (n - 1)
    assert all(_mul_mod_p(table, one, x, p) == [c % p for c in x] for x in vecs)


@pytest.mark.parametrize("p", [3, 23])
def test_frobenius_matrix_rows_are_pth_powers(p):
    mo = maximal_order(parse_poly("x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5"))
    table = mult_table(mo.order)
    frob = frobenius_matrix(table, p)
    assert len(frob) == mo.degree
    for i, row in enumerate(frob):
        e = [1 if j == i else 0 for j in range(mo.degree)]
        power = e
        for _ in range(p - 1):
            power = _mul_mod_p(table, power, e, p)
        assert row == power
