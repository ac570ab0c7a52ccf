import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import (
    brute_is_prime,
    is_eisenstein_at,
    quadratic_is_irreducible,
    squarefree_mod_p,
    swinnerton_dyer,
)
from tracegenus.errors import DegenerateInputError, InternalConsistencyError, NonMonicInputError
from tracegenus.polys import IntPoly, discriminant, parse_poly
import tracegenus.zfactor as zfactor
from tracegenus import modp
from tracegenus.zfactor import factor_over_z, is_irreducible


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


def _bad_at_every_lift_prime():
    """x^2 - 2*3*5*...*67, which is x^2 mod each of those primes."""
    n = 1
    for p in zfactor._LIFT_PRIMES:
        n *= p
    return poly(-n, 0, 1)


def test_bad_at_every_lift_prime_falls_back_above_67(monkeypatch):
    f = _bad_at_every_lift_prime()
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
    # disc(x^2 + 30) = -120: 2, 3 and 5 divide it, and are skipped before
    # any distinct-degree splitting
    used = []
    blocks = modp.degree_blocks
    monkeypatch.setattr(modp, "degree_blocks", lambda g, p: used.append(p) or blocks(g, p))
    good = [p for p, _, _ in zfactor._good_blocks(poly(30, 0, 1), -120)]
    assert good == [7, 11, 13, 17, 19]
    assert used == good


def test_good_primes_are_the_squarefree_primes_of_one_gcd_mod_p():
    # seeded differential: disc(f) mod p against gcd(f mod p, f' mod p) = 1,
    # on the same prime schedule; the last input is bad at every lift prime
    rng = random.Random(20261031)
    inputs = []
    while len(inputs) < 200:
        n = rng.randrange(2, 10)
        f = IntPoly(tuple(rng.randrange(-20, 21) for _ in range(n)) + (1,))
        if discriminant(f):
            inputs.append(f)
    inputs.append(_bad_at_every_lift_prime())
    for f in inputs:
        chosen = [p for p, _, _ in zfactor._good_blocks(f, discriminant(f))]
        oracle = [p for p in zfactor._LIFT_PRIMES if squarefree_mod_p(f, p)][:5]
        if not oracle:
            oracle = [next(p for p in range(71, 10**4, 2) if brute_is_prime(p) and squarefree_mod_p(f, p))]
        assert chosen == oracle, f


@pytest.mark.parametrize(
    "f",
    [
        parse_poly("x^2 - 2*x + 1"),
        parse_poly("x^4 + 2*x^2 + 1"),
        parse_poly("x^6 - 4*x^3 + 4"),
        _bad_at_every_lift_prime() * _bad_at_every_lift_prime(),
    ],
)
def test_non_squarefree_input_stops_the_prime_search(monkeypatch, f):
    # every prime divides disc = 0, so a prime search could never end; past
    # the lift primes it would ask is_prime, which here fails at once
    used = []
    blocks = modp.degree_blocks
    monkeypatch.setattr(modp, "degree_blocks", lambda g, p: used.append(p) or blocks(g, p))
    monkeypatch.setattr(zfactor, "is_prime", lambda p: pytest.fail("prime search past %d" % p))
    assert discriminant(f) == 0
    with pytest.raises(InternalConsistencyError, match="expected squarefree input"):
        zfactor._factor_monic_squarefree(f, 0)
    assert used == []


@pytest.mark.parametrize(
    "f",
    [
        parse_poly("x^2 - 2*x + 1"),
        parse_poly("x^4 + 2*x^2 + 1"),
        parse_poly("x^6 - 4*x^3 + 4"),
        _bad_at_every_lift_prime() * _bad_at_every_lift_prime(),
    ],
)
def test_prime_search_on_a_square_stops_at_the_hadamard_bound(monkeypatch, f):
    # factor_over_z searches primes on the square's radical g, never on f;
    # _good_blocks walks the primes upwards and rejects exactly those that
    # divide disc(g) != 0, so the rejected primes multiply to at most
    # |disc(g)|, which Hadamard's bound on the Sylvester matrix of (g, g')
    # caps at |g|^(n-1) |g'|^n
    used = []
    blocks = modp.degree_blocks
    monkeypatch.setattr(modp, "degree_blocks", lambda h, p: used.append((h, p)) or blocks(h, p))
    factors = factor_over_z(f)
    assert [e for _, e in factors] == [2] * len(factors)
    g = IntPoly([1])
    for h, _ in factors:
        g = g * h
    assert {h for h, _ in used} <= {g}
    good = [p for _, p in used]
    disc = discriminant(g)
    rejected = [p for p in range(2, max(good, default=1) + 1) if brute_is_prime(p) and p not in good]
    assert all(disc % p == 0 for p in rejected) and all(disc % p for p in good)
    n = g.degree
    bound_sq = sum(c * c for c in g.coeffs) ** (n - 1) * sum(c * c for c in g.derivative().coeffs) ** n
    product = 1
    for p in rejected:
        product *= p
    assert disc != 0 and product**2 <= disc**2 <= bound_sq


def test_squarefree_input_takes_one_disc_and_no_gcd_over_z(monkeypatch):
    counts = {"discriminant": 0, "poly_gcd": 0}
    for name in counts:
        original = getattr(zfactor, name)

        def spy(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(zfactor, name, spy)
    factor_over_z(parse_poly("x^6 - 1"))
    assert counts == {"discriminant": 1, "poly_gcd": 0}


def test_repeated_factors_come_from_the_radical_by_exact_division():
    f = parse_poly("x - 1") * parse_poly("x - 1") * parse_poly("x + 3")
    assert factor_over_z(f) == [(parse_poly("x - 1"), 2), (parse_poly("x + 3"), 1)]


def test_constant_term_test_prunes_the_subset_search(monkeypatch):
    # degree 32: 16 local quadratics at every good prime, about 39 200
    # subsets of size <= 8, each a division over Z without the test
    divisions = []
    divmod_ = IntPoly.divmod
    monkeypatch.setattr(IntPoly, "divmod", lambda a, b: divisions.append(b) or divmod_(a, b))
    assert is_irreducible(swinnerton_dyer([2, 3, 5, 7, 11]))
    assert len(divisions) < 1000


def test_constant_term_test_keeps_a_zero_constant_term():
    # x divides x * SD16: its lifted piece has constant term 0, and 0 | 0
    x, sd16 = poly(0, 1), swinnerton_dyer([2, 3, 5, 7])
    assert factor_over_z(x * sd16) == [(x, 1), (sd16, 1)]


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
