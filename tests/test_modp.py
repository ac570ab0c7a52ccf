import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import distinct_degree_by_pow_mod, schoolbook_pow_mod
from tracegenus import modp
from tracegenus.errors import DegenerateInputError, InvalidPrimeError
from tracegenus.polys import IntPoly, parse_poly, product

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]
# 2^31 - 1, 10^12 + 39, a 22-digit prime and 10^18 + 3
LARGE_PRIMES = [2**31 - 1, 10**12 + 39, 10**21 + 117, 10**18 + 3]


def random_tuple_poly(p, degree, seed):
    rng = random.Random(seed)
    cs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
    return modp.norm(tuple(cs), p)


def brute_irreducible(fp, p):
    """Degree <= 3 irreducibility by root search; degree 4 by quadratic pairs."""
    d = modp.deg(fp)
    if d <= 1:
        return d == 1
    has_root = any(
        sum(c * pow(x, k, p) for k, c in enumerate(fp)) % p == 0 for x in range(p)
    )
    if d <= 3:
        return not has_root
    if has_root:
        return False
    if d == 4:
        # look for a monic quadratic divisor
        for b in range(p):
            for c in range(p):
                q = modp.norm((c, b, 1), p)
                _, r = modp.divmod_p(fp, q, p)
                if modp.deg(r) < 0:
                    return False
        return True
    raise NotImplementedError


# ---------------------------------------------------------------------------
# arithmetic plumbing


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**30),
    st.sampled_from(SMALL_PRIMES + LARGE_PRIMES),
)
def test_divmod_reconstructs(da, db, seed, p):
    # divisors are monic only by chance: their leading coefficient is random
    a = random_tuple_poly(p, da, seed)
    b = random_tuple_poly(p, db, seed + 1)
    q, r = modp.divmod_p(a, b, p)
    assert modp.deg(r) < modp.deg(b)
    assert modp.norm(modp.add(modp.mul(q, b, p), r, p), p) == a
    assert modp.divmod_p(a, b, p, quotient=False) == ((), r)
    assert modp.mod_p(a, b, p) == r


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**30),
    st.sampled_from(SMALL_PRIMES + LARGE_PRIMES),
)
def test_mod_p_of_unreduced_products(da, db, seed, p):
    # pow_mod reduces products whose coefficients are not yet taken mod p,
    # and whose leading coefficient may vanish mod p
    a = random_tuple_poly(p, da, seed)
    b = random_tuple_poly(p, db, seed + 1)
    raw = product(a, a) + [p * (seed % 3)]
    assert modp.mod_p(raw, b, p) == modp.divmod_p(modp.norm(raw, p), b, p)[1]


@given(st.integers(1, 5), st.integers(0, 2**30), st.sampled_from(SMALL_PRIMES))
def test_gcd_divides(da, seed, p):
    a = random_tuple_poly(p, da, seed)
    b = random_tuple_poly(p, max(1, da - 1), seed + 7)
    g = modp.gcd_p(a, b, p)
    for h in (a, b):
        _, r = modp.divmod_p(h, g, p)
        assert modp.deg(r) < 0


@given(st.integers(1, 4), st.integers(0, 2**30), st.sampled_from([3, 5, 7]))
def test_pow_mod_matches_repeated_multiplication(d, seed, p):
    base = random_tuple_poly(p, d, seed)
    mod = random_tuple_poly(p, d + 1, seed + 3)
    acc = (1,)
    for k in range(6):
        assert modp.pow_mod(base, k, mod, p) == acc
        acc = modp.divmod_p(modp.mul(acc, base, p), mod, p)[1]


@given(
    st.integers(1, 6),
    st.integers(0, 2**30),
    st.sampled_from(SMALL_PRIMES + LARGE_PRIMES),
    st.integers(0, 2**70),
)
def test_pow_mod_adds_exponents(d, seed, p, e):
    # x^p, the Frobenius that distinct-degree splitting reads, and a random
    # large exponent: b^(e + p) = b^e * b^p mod f
    f = random_tuple_poly(p, d, seed)
    b = random_tuple_poly(p, d + 1, seed + 2)
    for base in ((0, 1), b):
        lhs = modp.pow_mod(base, e + p, f, p)
        rhs = modp.mod_p(modp.mul(modp.pow_mod(base, e, f, p), modp.pow_mod(base, p, f, p), p), f, p)
        assert lhs == rhs


# 2^70 - 35, the largest prime below 2^70
PRIME_BELOW_2_70 = 2**70 - 35
KERNEL_PRIMES = [2, 3, 5, 7, 2557, 1000003, 10**12 + 39, 10**20 + 39]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_pow_mod_matches_the_schoolbook_loop(p):
    # moduli of degree 0-9 with a random nonzero leading coefficient, bases
    # up to 4 coefficients longer, x itself, and the exponents the factoring
    # takes: Frobenius p, the Cantor-Zassenhaus (p^d - 1)/2 and random ones
    rng = random.Random(p)
    for _ in range(30):
        n = rng.randrange(10)
        modulus = tuple(rng.randrange(p) for _ in range(n)) + (rng.randrange(1, p),)
        long_base = modp.norm([rng.randrange(p) for _ in range(n + rng.randrange(1, 5))], p)
        for base in (long_base, (0, 1)):
            for e in (0, 1, 2, p, (p ** max(n, 1) - 1) // 2, rng.randrange(10**7)):
                assert modp.pow_mod(base, e, modulus, p) == schoolbook_pow_mod(base, e, modulus, p)


def test_pow_mod_at_the_slot_bound():
    # degree 8, every coefficient p - 1: squaring the base (p - 1,) * 8 puts
    # n*(p - 1)^2, the most a product slot holds, in slot 7. The base
    # (p - 21,) * 8 leaves slot 7 near 8*p^2 and its high slots 441*(15 - k)
    # mod p, so the fold lifts slot 7 past 2^(w - 1): one bit less of slot
    # width than (2n*p^2).bit_length() would carry into slot 8
    p = PRIME_BELOW_2_70
    modulus = (p - 1,) * 9
    for base in ((p - 1,) * 8, (p - 21,) * 8, (p - 1,) * 12, (0, 1)):
        for e in (2, 3, p, p**2 - 1, 2**70 - 1):
            assert modp.pow_mod(base, e, modulus, p) == schoolbook_pow_mod(base, e, modulus, p)


# ---------------------------------------------------------------------------
# the Frobenius rows and distinct-degree splitting

# x^p mod f is the monomial x^p when p < deg f (2..7 may be) and dense
# otherwise (101 and above always are)
FROBENIUS_PRIMES = [2, 3, 5, 7, 101, 10**9 + 7, 2**61 - 1]


def random_monic(p, degree, rng):
    return tuple(rng.randrange(p) for _ in range(degree)) + (1,)


@given(st.integers(1, 10), st.integers(0, 2**30), st.sampled_from(FROBENIUS_PRIMES))
@example(10, 1, 2)  # x^p is the monomial: each row is a shift, reduced
@example(7, 1, 7)  # x^p = x^n mod f from pow_mod
@example(3, 1, 10**9 + 7)  # x^p mod f from pow_mod, dense
def test_frobenius_rows_are_the_powers_x_to_the_ip(n, seed, p):
    f = random_monic(p, n, random.Random(seed))
    rows = modp.frobenius_rows(f, p)
    assert rows == [modp.pow_mod((0, 1), i * p, f, p) for i in range(n)]


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.integers(0, 2**30),
    st.sampled_from(FROBENIUS_PRIMES),
    st.booleans(),
)
def test_distinct_degree_matches_one_pow_mod_per_step(degrees, seed, p, squared):
    # a product of random monic factors, of degree <= 10, with its first
    # factor squared half the time; degree_blocks' squarefree parts go
    # through distinct_degree and through the oracle loop
    rng = random.Random(seed)
    factors = [random_monic(p, d, rng) for d in degrees]
    if squared and sum(degrees) + degrees[0] <= 10:
        factors.append(factors[0])
    f = (1,)
    for g in factors:
        f = modp.mul(f, g, p)
    a, blocks = modp.degree_blocks(IntPoly(f), p)
    expected = [
        (prod, d, mult)
        for sqf, mult in modp.squarefree_decomposition(a, p)
        for prod, d in distinct_degree_by_pow_mod(sqf, p)
    ]
    assert blocks == expected


@pytest.mark.parametrize(
    "p,factors",
    [
        # x * (x^2 + x + 1) * (x^3 + x + 1) over F_2
        (2, [(0, 1), (1, 1, 1), (1, 1, 0, 1)]),
        # x * (x^2 + 1) * (x^3 - 2) over F_7: 7 = 3 mod 4 and 2 is no cube
        (7, [(0, 1), (1, 0, 1), (5, 0, 0, 1)]),
    ],
)
def test_distinct_degree_splits_blocks_off_mid_loop(monkeypatch, p, factors):
    # the linear block splits off at step 1 and the quadratic at step 2,
    # each reducing the rows mod the cofactor; only x^p takes a pow_mod,
    # and only when p >= deg f
    f = (1,)
    for g in factors:
        f = modp.mul(f, g, p)
    expected = [(g, modp.deg(g)) for g in factors]
    assert distinct_degree_by_pow_mod(f, p) == expected
    powers = []
    pow_mod = modp.pow_mod
    monkeypatch.setattr(modp, "pow_mod", lambda *args: powers.append(args[1]) or pow_mod(*args))
    assert modp.distinct_degree(f, p) == expected
    assert powers == ([p] if p >= modp.deg(f) else [])


# ---------------------------------------------------------------------------
# factorization over F_p


def shape_of(f, p):
    return sorted((g.degree, m) for g, m in modp.factor_mod_p(f, p))


@given(st.integers(1, 6), st.integers(0, 2**30), st.sampled_from(SMALL_PRIMES + LARGE_PRIMES))
def test_factor_degrees_is_the_shape_of_factor_mod_p(d, seed, p):
    rng = random.Random(seed)
    a = random_tuple_poly(p, d, seed)
    # a square factor, so the squarefree split has work to do
    b = random_tuple_poly(p, rng.randint(1, 2), seed + 5)
    f = IntPoly(modp.mul(modp.mul(a, b, p), b, p))
    assert modp.factor_degrees(f, p) == shape_of(f, p)


@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**30), st.sampled_from([2, 3]))
def test_factor_degrees_of_inseparable_inputs(da, db, seed, p):
    # g(x^p) is a p-th power over F_p: the squarefree split takes p-th roots
    g = random_tuple_poly(p, da, seed)
    gxp = tuple(c if i % p == 0 else 0 for i in range(p * da + 1) for c in [g[i // p]])
    f = modp.mul(gxp, random_tuple_poly(p, db, seed + 1), p) if db else gxp
    f = IntPoly(f)
    assert modp.factor_degrees(f, p) == shape_of(f, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_factor_degrees_counts_roots(p):
    # each squarefree part has as many linear factors as roots in F_p
    rng = random.Random(p)
    for _ in range(30):
        a = random_tuple_poly(p, rng.randint(1, 5), rng.randrange(2**30))
        b = random_tuple_poly(p, rng.randint(1, 3), rng.randrange(2**30))
        for g, _ in modp.squarefree_decomposition(modp.mul(modp.mul(a, b, p), b, p), p):
            linear = sum(d == 1 for d, _ in modp.factor_degrees(IntPoly(g), p))
            roots = sum(sum(c * x**k for k, c in enumerate(g)) % p == 0 for x in range(p))
            assert linear == roots


def test_factor_degrees_errors():
    with pytest.raises(InvalidPrimeError):
        modp.factor_degrees(parse_poly("x^2 + 1"), 6)
    with pytest.raises(DegenerateInputError):
        modp.factor_degrees(parse_poly("5*x^2 + 10"), 5)
    assert modp.factor_degrees(parse_poly("7"), 5) == []


@given(st.integers(2, 7), st.integers(0, 2**30), st.sampled_from(SMALL_PRIMES))
def test_factor_mod_p_reconstructs(d, seed, p):
    f = IntPoly(random_tuple_poly(p, d, seed))
    factors = modp.factor_mod_p(f, p)
    prod = (1,)
    for g, mult in factors:
        gp = modp.norm(g.coeffs, p)
        assert modp.deg(gp) >= 1
        assert gp[-1] == 1  # monic
        for _ in range(mult):
            prod = modp.mul(prod, gp, p)
    assert prod == modp.monic(modp.norm(f.coeffs, p), p)
    assert sum(g.degree * m for g, m in factors) == d


@given(st.integers(1, 4), st.integers(0, 2**30), st.sampled_from([2, 3, 5]))
def test_factor_mod_p_factors_are_irreducible(d, seed, p):
    f = IntPoly(random_tuple_poly(p, d, seed))
    for g, _ in modp.factor_mod_p(f, p):
        gp = modp.norm(g.coeffs, p)
        assert brute_irreducible(gp, p)
        assert modp.factor_mod_p(g, p) == [(g, 1)]


@given(st.integers(2, 6), st.integers(0, 2**30), st.sampled_from(SMALL_PRIMES))
def test_factor_mod_p_is_deterministic(d, seed, p):
    f = IntPoly(random_tuple_poly(p, d, seed))
    assert modp.factor_mod_p(f, p) == modp.factor_mod_p(f, p)


@pytest.mark.parametrize("seed", [0, 1, 2, 2**64 - 1])
def test_factor_mod_p_does_not_depend_on_the_seed(monkeypatch, corpus_analyses, seed):
    # the corpus fields at their ramified primes (27 of them split a block
    # of equal-degree factors) and the D12 sextic at its exceptional 23
    cases = [(fa.poly, p) for fa in corpus_analyses.values() for p, _ in fa.disc_factored]
    cases.append((corpus_analyses["d12-sextic"].poly, 23))
    expected = [modp.factor_mod_p(f, p) for f, p in cases]
    seeds = []

    def fixed(s):
        seeds.append(s)
        return random.Random(seed)

    monkeypatch.setattr(modp, "random", SimpleNamespace(Random=fixed))
    assert [modp.factor_mod_p(f, p) for f, p in cases] == expected
    assert len(seeds) == len(cases)


def test_factor_mod_p_frozen_examples():
    f = parse_poly("x^4 - 41*x^2 + 144")
    shapes = sorted((g.degree, m) for g, m in modp.factor_mod_p(f, 5))
    assert shapes == [(2, 2)]  # one quadratic, squared
    shapes = sorted((g.degree, m) for g, m in modp.factor_mod_p(f, 13))
    assert shapes == [(1, 2), (1, 2)]
    # x^4 + 1 famously splits mod every prime
    f = parse_poly("x^4 + 1")
    for p in (3, 5, 7, 11, 13, 17):
        assert max(g.degree for g, _ in modp.factor_mod_p(f, p)) <= 2


def test_is_irreducible_mod_p_knowns():
    def shape(text, p):
        return [(g.degree, m) for g, m in modp.factor_mod_p(parse_poly(text), p)]

    assert shape("x^2 + 1", 3) == [(2, 1)]
    assert shape("x^2 + 1", 5) == [(1, 1), (1, 1)]
    assert shape("x^3 - x - 1", 3) == [(3, 1)]  # no roots mod 3
    assert shape("x^2 - 1", 7) == [(1, 1), (1, 1)]


def power(a, k, p):
    out = (1,)
    for _ in range(k):
        out = modp.mul(out, a, p)
    return out


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(0, 2**30),
    st.sampled_from([2, 3, 5]),
)
def test_squarefree_decomposition(da, db, dc, seed, p):
    a = random_tuple_poly(p, da, seed)
    b = random_tuple_poly(p, db, seed + 11)
    c = random_tuple_poly(p, dc, seed + 22)
    # a * b^2, and a * b^p * c^(p^2), which takes two p-th roots
    a_b2 = modp.mul(a, power(b, 2, p), p)
    a_bp_cpp = modp.mul(modp.mul(a, power(b, p, p), p), power(c, p * p, p), p)
    for f in (a_b2, a_bp_cpp):
        f = modp.monic(f, p)
        parts = modp.squarefree_decomposition(f, p)
        prod = (1,)
        for g, mult in parts:
            prod = modp.mul(prod, power(g, mult, p), p)
            # each part is squarefree: gcd with derivative is constant
            der = modp.derivative(g, p)
            if modp.deg(der) >= 0 and modp.deg(g) >= 1:
                assert modp.deg(modp.gcd_p(g, der, p)) <= 0
        assert prod == f
        for i, (g, _) in enumerate(parts):
            for h, _ in parts[i + 1 :]:
                assert modp.gcd_p(g, h, p) == (1,)


def test_squarefree_decomposition_frozen_value():
    # (x+1)^4 * (x^2+x+1)^2 over F_2: f' = 0, so the whole of f is a square
    f = modp.mul(power((1, 1), 4, 2), power((1, 1, 1), 2, 2), 2)
    assert modp.squarefree_decomposition(f, 2) == [((1, 1), 4), ((1, 1, 1), 2)]


def test_factor_mod_p_rejects_composite_modulus():
    with pytest.raises(InvalidPrimeError):
        modp.factor_mod_p(parse_poly("x^2 + 1"), 6)
