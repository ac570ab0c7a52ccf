import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import is_squarefree_int, quadratic_splitting
from tracegenus.errors import InvalidPrimeError, OutOfDomainError, WildRamificationError
from tracegenus.orders import frobenius_matrix, maximal_order
from tracegenus.polys import IntPoly, parse_poly
from tracegenus.splitting import SplittingType, quotient_algebra, split_prime

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

# (polynomial, {p: pairs}): shapes verified by hand against the splitting data
KNOWN_SPLITTINGS = [
    ("x^4 - 41*x^2 + 144", {5: ((2, 2),), 13: ((2, 1), (2, 1)), 17: ((2, 2),)}),
    ("x^4 - x^3 - 46*x^2 - 115*x - 35", {5: ((2, 1), (2, 1)), 13: ((2, 2),), 17: ((2, 2),)}),
    ("x^4 - x^3 - 7*x^2 + 11*x + 3", {59: ((4, 1),)}),
    ("x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5", {3: ((2, 3),), 23: ((2, 1), (2, 2))}),
    ("x^6 - x^5 - 2*x^4 + x^3 + 7*x^2 - 6*x + 4", {3: ((2, 3),), 107: ((1, 2), (2, 2))}),
    ("x^6 - 3*x^5 + 10*x^4 - 15*x^3 + 19*x^2 - 12*x + 3", {3: ((2, 1), (2, 1), (2, 1)), 107: ((1, 2), (2, 2))}),
    ("x^3 - x^2 - 20*x - 1", {32009: ((1, 1), (2, 1))}),
    ("x^3 - 41*x - 95", {32009: ((1, 1), (2, 1)), 5: ((1, 1), (1, 1), (1, 1))}),
    ("x^3 - 2", {2: ((3, 1),), 3: ((3, 1),)}),
    ("x^4 + 1", {2: ((4, 1),), 17: ((1, 1), (1, 1), (1, 1), (1, 1))}),
]


@pytest.mark.parametrize("text,shapes", KNOWN_SPLITTINGS, ids=[k[0] for k in KNOWN_SPLITTINGS])
def test_known_splittings(text, shapes):
    mo = maximal_order(parse_poly(text))
    for p, pairs in shapes.items():
        assert split_prime(mo, p).pairs == pairs


def test_index_divisible_prime_uses_the_algebra_route():
    # 3 divides the index here, so the mod-3 shape of the polynomial lies;
    # the quotient-algebra decomposition must still see three primes with e=2
    mo = maximal_order(parse_poly("x^6 - 3*x^5 + 10*x^4 - 15*x^3 + 19*x^2 - 12*x + 3"))
    assert mo.index == 3
    assert split_prime(mo, 3).pairs == ((2, 1), (2, 1), (2, 1))
    with pytest.raises(OutOfDomainError):
        split_prime(mo, 3, method="polynomial")


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
    algebra = split_prime(mo, p, method="algebra")
    assert algebra == split_prime(mo, p, method="auto")
    if mo.index % p != 0:
        assert algebra == split_prime(mo, p, method="polynomial")


def test_routes_agree_on_corpus(corpus_analyses):
    checked = 0
    for analysis in corpus_analyses.values():
        if analysis.degree == 1:
            continue
        for sp in analysis.splittings:
            algebra = split_prime(analysis.max_order, sp.p, method="algebra")
            assert algebra.pairs == sp.pairs
            checked += 1
    assert checked > 60  # many ramified primes across the corpus


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
    with pytest.raises(ValueError):
        split_prime(mo, 5, method="fancy")


def test_quotient_algebra_is_commutative_and_associative():
    mo = maximal_order(parse_poly("x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5"))
    qa = quotient_algebra(mo, 3)
    n, p = qa.dim, qa.p

    def mul(x, y):
        out = [0] * n
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        for k, c in enumerate(qa.table[i][j]):
                            out[k] = (out[k] + xi * yj * c) % p
        return out

    vecs = [[1 if i == j else 0 for j in range(n)] for i in (0, 1, 3, 5)]
    vecs.append([1, 2, 0, 1, 0, 2])
    for x in vecs:
        for y in vecs:
            assert qa.mul(x, y) == mul(x, y)
            assert mul(x, y) == mul(y, x)
            for z in vecs[:3]:
                assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert qa.one() == [1] + [0] * (n - 1)
    assert all(qa.mul(qa.one(), x) == [c % p for c in x] for x in vecs)


@pytest.mark.parametrize("p", [3, 23])
def test_frobenius_matrix_rows_are_pth_powers(p):
    mo = maximal_order(parse_poly("x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5"))
    qa = quotient_algebra(mo, p)
    frob = frobenius_matrix(qa)
    assert len(frob) == qa.dim
    for i, row in enumerate(frob):
        e = [1 if j == i else 0 for j in range(qa.dim)]
        power = e
        for _ in range(p - 1):
            power = qa.mul(power, e)
        assert row == power
