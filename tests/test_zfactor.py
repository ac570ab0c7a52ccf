import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import is_eisenstein_at, quadratic_is_irreducible
from tracegenus.arith import is_prime
from tracegenus.errors import DegenerateInputError, InternalConsistencyError, NonMonicInputError
from tracegenus.polys import IntPoly, parse_poly
import tracegenus.zfactor as zfactor
from tracegenus import modp
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
    factors = factor_over_z(f)
    expected = {}
    for g in parts:
        expected[g.coeffs] = expected.get(g.coeffs, 0) + 1
    got = {}
    for g, m in factors:
        got[g.coeffs] = got.get(g.coeffs, 0) + m
    assert got == expected


@given(st.lists(blocks, min_size=1, max_size=3), st.integers(-6, 6).filter(lambda c: c not in (0, 1)))
def test_factor_refuses_a_scaled_product(parts, c):
    scaled = IntPoly(tuple(c * x for x in multiply(parts).coeffs))
    with pytest.raises(NonMonicInputError):
        factor_over_z(scaled)
    with pytest.raises(NonMonicInputError):
        is_irreducible(scaled)


@given(blocks, st.integers(1, 3))
def test_factor_tracks_multiplicity(g, e):
    f = multiply([g] * e)
    assert factor_over_z(f) == [(g, e)]


@given(st.lists(blocks, min_size=1, max_size=4))
def test_factor_product_reconstructs(parts):
    f = multiply(parts)
    recon = poly(1)
    for g, m in factor_over_z(f):
        assert g.is_monic
        for _ in range(m):
            recon = recon * g
    assert recon == f


# ---------------------------------------------------------------------------
# frozen examples


def test_factor_cyclotomic_products():
    factors = factor_over_z(parse_poly("x^4 - 1"))
    assert {g.coeffs for g, _ in factors} == {(-1, 1), (1, 1), (1, 0, 1)}
    factors = factor_over_z(parse_poly("x^6 - 1"))
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
    factors = factor_over_z(f)
    assert {g.coeffs for g, _ in factors} == {(-6, 0, 1), (-3, 0, 1), (-2, 0, 1)}


# ---------------------------------------------------------------------------
# degree analysis before Hensel lifting


@pytest.fixture()
def lifts(monkeypatch):
    """Count the Hensel lifts factor_over_z runs."""
    calls = []
    lift = zfactor._lift_tree

    def counted(*args):
        calls.append(args)
        return lift(*args)

    monkeypatch.setattr(zfactor, "_lift_tree", counted)
    return calls


@pytest.mark.parametrize(
    "text", ["x^4 + 1", "x^4 - 10*x^2 + 1", "x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576"]
)
def test_reducible_mod_every_prime_still_lifts_and_stays_irreducible(lifts, text):
    assert is_irreducible(parse_poly(text))
    assert lifts


def test_lift_tree_pieces_multiply_to_f_and_reduce_to_local_factors(lifts):
    f = parse_poly("x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576")
    assert is_irreducible(f)
    f_coeffs, local, p, target = lifts[0]
    assert p == 7 and len(local) == 4  # four quadratics at its lift prime
    pieces, m = zfactor._lift_tree(f_coeffs, local, p, target)
    assert m >= target and m == p ** 8
    prod = (1,)
    for piece in pieces:
        assert piece[-1] == 1
        prod = modp.mul(prod, piece, m)
    assert prod == modp.norm(f.coeffs, m)
    assert [modp.norm(piece, p) for piece in pieces] == local


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**30),
    st.sampled_from([2, 3, 5, 7, 101]),
)
def test_bezout_mod_p_is_within_the_degree_bounds(dg, dh, seed, p):
    # the pair drawn once each way round: deg g < deg h and deg g > deg h
    assume(dg != dh)
    rng = random.Random(seed)
    g = modp.norm([rng.randrange(p) for _ in range(dg)] + [1], p)
    h = modp.norm([rng.randrange(p) for _ in range(dh)] + [1], p)
    assume(modp.gcd_p(g, h, p) == (1,))
    for g, h in ((g, h), (h, g)):
        s, t = zfactor._bezout_mod_p(g, h, p)
        assert modp.add(modp.mul(s, g, p), modp.mul(t, h, p), p) == (1,)
        assert modp.deg(s) < modp.deg(h) and modp.deg(t) < modp.deg(g)


def test_degree_analysis_keeps_true_factors():
    a, b = parse_poly("x^4 - 10*x^2 + 1"), parse_poly("x^2 - 2")
    assert factor_over_z(a * b) == [(b, 1), (a, 1)]


def test_dense_quintic_is_decided_without_a_lift(lifts):
    # irreducible mod 7: no proper factor degree survives the first shapes
    assert is_irreducible(parse_poly("x^5 + 3*x^4 - 7*x^3 + 2*x^2 - 5*x + 11"))
    assert not lifts


def test_irreducible_mod_2_is_decided_at_2_without_a_lift(monkeypatch):
    # built as the hard-disc pool builds its fields: x^5 + x^2 + 1, which is
    # irreducible mod 2, plus even coefficients; its shape at 2 allows no
    # proper factor degree, so no other prime is tried and nothing is lifted
    f = poly(-7, 4, 5, -6, 2, 1)
    assert modp.factor_degrees(poly(1, 0, 1, 0, 0, 1), 2) == [(5, 1)]
    assert modp.norm(f.coeffs, 2) == (1, 0, 1, 0, 0, 1)

    def no_lift(*args):
        raise AssertionError("lifted")

    used = []
    blocks = modp.degree_blocks
    monkeypatch.setattr(modp, "degree_blocks", lambda g, p: used.append(p) or blocks(g, p))
    monkeypatch.setattr(zfactor, "_lift_tree", no_lift)
    assert factor_over_z(f) == [(f, 1)]
    assert used == [2]


def test_fewest_local_factors_first_at_2_lifts_at_2(lifts):
    # both factors stay irreducible mod 2, so 2 already has the fewest local
    # factors any prime can have, and ties keep the first prime
    a, b = poly(1, 1, 1), poly(1, 1, 0, 1)
    assert modp.factor_degrees(a * b, 2) == [(2, 1), (3, 1)]
    assert factor_over_z(a * b) == [(a, 1), (b, 1)]
    assert lifts and {args[2] for args in lifts} == {2}  # the tree and its halves


def test_bad_at_every_lift_prime_falls_back_above_67(monkeypatch):
    n = 1
    for p in zfactor._LIFT_PRIMES:
        n *= p
    f = poly(-n, 0, 1)  # x^2 - 3*5*...*67 is x^2 mod each of those primes
    used = []
    blocks = modp.degree_blocks
    monkeypatch.setattr(modp, "degree_blocks", lambda g, p: used.append(p) or blocks(g, p))
    assert factor_over_z(f) == [(f, 1)]
    assert max(used) > 67
    used.clear()
    x_minus_1 = poly(-1, 1)
    assert factor_over_z(x_minus_1 * f) == [(x_minus_1, 1), (f, 1)]
    assert max(used) > 67


def test_degree_analysis_runs_only_at_good_primes(monkeypatch):
    # disc(x^2 + 30) = -120: 2, 3 and 5 are bad, and one gcd(f, f') mod p
    # each rejects them before any distinct-degree splitting
    used = []
    blocks = modp.degree_blocks
    monkeypatch.setattr(modp, "degree_blocks", lambda g, p: used.append(p) or blocks(g, p))
    good = [p for p, _, _ in zfactor._good_blocks(poly(30, 0, 1))]
    assert good == [7, 11, 13, 17, 19]
    assert used == good


def _square_of_lift_prime_product():
    n = 1
    for p in zfactor._LIFT_PRIMES:
        n *= p
    g = poly(-n, 0, 1)
    return g * g


@pytest.mark.parametrize(
    "f",
    [
        parse_poly("x^2 - 2*x + 1"),
        parse_poly("x^4 + 2*x^2 + 1"),
        parse_poly("x^6 - 4*x^3 + 4"),
        _square_of_lift_prime_product(),
    ],
)
def test_non_squarefree_input_stops_the_prime_search(monkeypatch, f):
    # every prime is bad for a square; the search stops once their product
    # passes the Hadamard bound on |disc| that a squarefree f would obey
    used = []
    blocks = modp.degree_blocks
    monkeypatch.setattr(modp, "degree_blocks", lambda g, p: used.append(p) or blocks(g, p))
    with pytest.raises(InternalConsistencyError, match="expected squarefree input"):
        zfactor._factor_monic_squarefree(f)
    assert len(used) < 150


@pytest.mark.parametrize(
    "f",
    [
        parse_poly("x^2 - 2*x + 1"),
        parse_poly("x^4 + 2*x^2 + 1"),
        parse_poly("x^6 - 4*x^3 + 4"),
        _square_of_lift_prime_product(),
    ],
)
def test_prime_search_on_a_square_stops_at_the_hadamard_bound(monkeypatch, f):
    # _good_blocks tries each prime with one gcd(f, f') mod p; for a square
    # every prime is bad, and the search tries 2, 3, 5, ... until their
    # product first passes Hadamard's bound on |disc| for a squarefree f
    tried = []
    derivative = modp.derivative
    monkeypatch.setattr(modp, "derivative", lambda a, p: tried.append(p) or derivative(a, p))
    with pytest.raises(InternalConsistencyError, match="expected squarefree input"):
        zfactor._factor_monic_squarefree(f)
    n = f.degree
    bound_sq = sum(c * c for c in f.coeffs) ** (n - 1) * sum(c * c for c in f.derivative().coeffs) ** n
    assert tried == [p for p in range(2, tried[-1] + 1) if is_prime(p)]
    product = 1
    for p in tried[:-1]:
        product *= p
    assert product**2 <= bound_sq < (product * tried[-1]) ** 2
    assert len(tried) < 150


def test_yun_squarefree_structure():
    f = parse_poly("x - 1") * parse_poly("x - 1") * parse_poly("x + 3")
    parts = yun_squarefree(f)
    assert (parse_poly("x + 3"), 1) in parts
    assert (parse_poly("x - 1"), 2) in parts


def test_factor_and_is_irreducible_refuse_non_monic_input():
    for text in ("2*x^2 + 1", "3*x + 3", "6*x^2 + x - 2", "4*x^2 - 1", "-x^3 + 2"):
        for fn in (factor_over_z, is_irreducible):
            with pytest.raises(NonMonicInputError):
                fn(parse_poly(text))


def test_factor_rejects_zero():
    # zero and every other constant are degenerate before non-monic, 1 too
    for coeffs in ((), (1,), (-1,), (7,)):
        for fn in (factor_over_z, is_irreducible):
            with pytest.raises(DegenerateInputError):
                fn(IntPoly(coeffs))
