import os
import random
import subprocess
import sys
from math import gcd, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import brute_is_prime, brute_legendre, brute_nonresidue, trial_division
import tracegenus.arith as arith
from tracegenus.arith import (
    PrimeFactorization,
    factor_integer,
    is_prime,
    legendre,
    smallest_nonresidue,
)
from tracegenus.errors import DegenerateInputError, FactorizationLimitError, InvalidPrimeError

# psi_k (OEIS A014233): the least odd composite passing Miller-Rabin to the
# first k prime bases, with its prime factors
PSI = [
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)),
    (3317044064679887385961981, (1287836182261, 2575672364521)),
]
MID_PRIMES = [p for p in range(1001, 100000, 2) if brute_is_prime(p)]
ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107]


@given(st.integers(2, 100000))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == brute_is_prime(n)


def test_is_prime_large_knowns():
    assert is_prime(32009)
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # classic composite Mersenne
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


@pytest.mark.parametrize("k", range(1, 14))
def test_is_prime_rejects_psi(k):
    n, factors = PSI[k - 1]
    prod = 1
    for p in factors:
        assert is_prime(p)
        prod *= p
    assert prod == n
    assert not is_prime(n)


def test_is_prime_above_psi13():
    # bases plus strong Lucas decide here: 2^e - 1 is prime for the first four
    # exponents and composite for the other seven
    for e in (89, 107, 127, 521):
        assert is_prime(2**e - 1)
    for e in (83, 97, 101, 103, 109, 113, 131):
        assert not is_prime(2**e - 1)
    assert not is_prime((2**61 - 1) ** 2)
    assert not is_prime((2**61 - 1) * (2**89 - 1))


def test_strong_lucas_pseudoprimes_below_1e5():
    # OEIS A217255: the composites that pass the strong Lucas test with
    # Selfridge parameters; every prime passes
    pseudoprimes = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439}
    for n in range(3, 100000, 2):
        if isqrt(n) ** 2 != n:
            assert arith._strong_lucas(n) == (brute_is_prime(n) or n in pseudoprimes), n


def test_factor_integer_psi12():
    n, factors = PSI[11]
    assert factor_integer(n).factors == tuple((p, 1) for p in factors)


@given(
    st.lists(st.sampled_from(MID_PRIMES), min_size=1, max_size=4),
    st.lists(st.sampled_from(ODD_PRIMES + [2]), max_size=4),
)
def test_factor_integer_finds_mid_size_primes(mid, small):
    # factors in (10^3, 10^5) lie beyond the trial-division primes
    expected = {}
    n = 1
    for p in mid + small:
        expected[p] = expected.get(p, 0) + 1
        n *= p
    assert factor_integer(n).factors == tuple(sorted(expected.items()))


@given(st.integers(2, 10**6))
def test_factor_integer_matches_trial_division(n):
    assert factor_integer(n).factors == tuple(trial_division(n))


@given(st.integers(1, 10**9))
def test_factor_integer_reconstructs(n):
    pf = factor_integer(n)
    assert pf.sign == 1
    prod = 1
    for p, e in pf.factors:
        assert is_prime(p) and e >= 1
        prod *= p**e
    assert prod == n
    assert factor_integer(-n).sign == -1
    assert factor_integer(-n).factors == pf.factors


def test_factor_integer_frozen_values():
    assert factor_integer(1221025).factors == ((5, 2), (13, 2), (17, 2))
    assert factor_integer(-309123) == PrimeFactorization(sign=-1, factors=((3, 3), (107, 2)))
    assert factor_integer(328509).factors == ((3, 3), (23, 3))
    assert factor_integer(-205379).factors == ((59, 3),)
    assert factor_integer(1).factors == ()


def test_factorization_accessors():
    pf = factor_integer(-309123)
    assert pf.value() == -309123
    assert pf.primes() == [3, 107]
    assert pf.valuation(3) == 3 and pf.valuation(107) == 2 and pf.valuation(5) == 0
    assert pf.factors == ((3, 3), (107, 2))


def test_factor_zero_rejected():
    with pytest.raises(DegenerateInputError):
        factor_integer(0)


def test_factorization_limit_is_honest(monkeypatch):
    # shrink the rho schedule so exhaustion is fast, then feed it a semiprime
    # of two 13-digit primes, far beyond the shrunken budget
    import tracegenus.arith as arith

    monkeypatch.setattr(arith, "_RHO_CONSTANTS", 1)
    monkeypatch.setattr(arith, "_RHO_STEP_CAP", 64)
    p, q = 1000000000039, 1000000000061
    with pytest.raises(FactorizationLimitError):
        factor_integer(p * q)
    # the shrunken schedule still factors easy inputs on the trial-division path
    assert factor_integer(2 * 3 * 32009).factors == ((2, 1), (3, 1), (32009, 1))


PM1 = arith._pm1  # the real pass, for spies that record and forward


def test_factorization_limit_follows_one_failed_p_minus_1(monkeypatch):
    # a schedule long enough to reach the trigger: p - 1 runs once, misses
    # (the largest primes of p - 1 and q - 1 are 26005097 and 12667849), and
    # the error comes only after rho's schedule has failed too
    monkeypatch.setattr(arith, "_RHO_CONSTANTS", 2)
    monkeypatch.setattr(arith, "_RHO_STEP_CAP", 2 * arith._PM1_TRIGGER)
    calls = []
    monkeypatch.setattr(arith, "_pm1", lambda n: calls.append(n) or PM1(n))
    n = 1000000000039 * 1000000000061
    with pytest.raises(FactorizationLimitError):
        factor_integer(n)
    assert calls == [n] and PM1(n) is None


def test_p_minus_1_stage_1():
    # 14507425399 - 1 = 2 * 3 * 23 * 43 * 991 * 2467, all below B1
    p, q = 578706377, 14507425399
    assert PM1(p * q) == q


def test_p_minus_1_stage_2():
    # 1565263417 - 1 = 2^3 * 3 * 53 * 61 * 20173, with 20173 in (B1, B2]
    p, q = 1565263417, 3581217007
    assert arith._PM1_B1 < 20173 <= arith._PM1_B2
    assert gcd(pow(2, arith._pm1_tables()[0], p * q) - 1, p * q) == 1
    assert PM1(p * q) == p
    assert factor_integer(p * q).factors == ((p, 1), (q, 1))


def _gcd_spy(monkeypatch):
    seen = []
    monkeypatch.setattr(arith, "gcd", lambda a, b: seen.append(gcd(a, b)) or gcd(a, b))
    return seen


def test_p_minus_1_gives_up_when_stage_1_catches_both_primes(monkeypatch):
    # 1002261353 - 1 = 2^3 * 193 * 761 * 853 and 14507425399 - 1 = 2 * 3 * 23
    # * 43 * 991 * 2467: stage 1's gcd is n, so p - 1 has no factor to give
    # and rho finds one
    p, q = 1002261353, 14507425399
    seen = _gcd_spy(monkeypatch)
    assert PM1(p * q) is None
    assert seen == [p * q]
    monkeypatch.undo()
    assert factor_integer(p * q).factors == ((p, 1), (q, 1))


def test_p_minus_1_gives_up_when_a_block_catches_both_primes(monkeypatch):
    # 600248017 - 1 = 2^4 * 3^3 * 463 * 3001 and 6022030111 - 1 = 2 * 3 * 5
    # * 163 * 409 * 3011: both primes of n fall in the first stage-2 block,
    # whose gcd is n, and rho finds a factor instead
    p, q = 600248017, 6022030111
    seen = _gcd_spy(monkeypatch)
    assert PM1(p * q) is None
    assert seen == [1, p * q]
    monkeypatch.undo()
    assert factor_integer(p * q).factors == ((p, 1), (q, 1))


def test_p_minus_1_misses_and_rho_factors(monkeypatch):
    # 191320219 - 1 = 2 * 3^6 * 131221 and 83307687367 - 1 = 2 * 3 * 17^4 * 37
    # * 4493: 131221 is above B2 and 17^4 above B1
    p, q = 191320219, 83307687367
    assert PM1(p * q) is None
    calls = []
    monkeypatch.setattr(arith, "_pm1", lambda n: calls.append(n) or PM1(n))
    assert factor_integer(p * q).factors == ((p, 1), (q, 1))
    assert calls == [p * q]


def _random_prime(rng, digits):
    while True:
        p = rng.randrange(10 ** (digits - 1), 10**digits) | 1
        if is_prime(p):
            return p


def test_factor_integer_semiprimes_in_the_hard_disc_range():
    # hard-disc's rho cofactors are products of two primes of 7 to 14
    # digits; the smaller one is kept to 9 so that rho stays quick on a miss
    rng = random.Random(29)
    for _ in range(12):
        p, q = sorted((_random_prime(rng, rng.randint(7, 9)), _random_prime(rng, rng.randint(9, 14))))
        assert factor_integer(p * q).factors == ((p, 1), (q, 1))


def test_no_corpus_field_reaches_p_minus_1(monkeypatch, corpus_records):
    from tracegenus import analyze_field, parse_poly

    calls = []
    monkeypatch.setattr(arith, "_pm1", lambda n: calls.append(n) or PM1(n))
    for record in corpus_records:
        analyze_field(parse_poly(record.text))
    assert calls == []


def test_p_minus_1_tables_are_built_on_first_use(repo_root):
    # neither importing the package nor starting the CLI builds them
    code = "import tracegenus.cli, tracegenus.arith as a; print(a._pm1_tables.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
def test_perfect_powers_split_before_rho(monkeypatch, k):
    # rho would need about sqrt(p) steps for p^3, p^5 or p^7
    p = 1000000000000037
    calls = []
    monkeypatch.setattr(arith, "_brent_rho", lambda n: calls.append(n))
    monkeypatch.setattr(arith, "_pm1", lambda n: calls.append(n))
    assert factor_integer(-(2**8) * p**k).factors == ((2, 8), (p, k))
    assert calls == []


def test_perfect_power_roots():
    assert arith._perfect_power(1009**2 * 1013**2) == (1009 * 1013, 2)
    assert arith._perfect_power((10**40 + 1) ** 3) == (10**40 + 1, 3)
    assert arith._perfect_power((10**40 + 1) ** 3 + 1) is None
    assert arith._perfect_power(1009**6) == (1009**3, 2)
    assert arith._perfect_power(1009 * 1013) is None


def test_factor_integer_semiprime_within_reach():
    # two 11-digit primes; Brent rho should crack this quickly
    p, q = 10000000019, 10000000033
    assert factor_integer(p * q).factors == ((p, 1), (q, 1))


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_legendre_matches_square_table(p):
    for a in range(p):
        assert legendre(a, p) == brute_legendre(a, p)


@given(st.integers(-10**6, 10**6))
def test_legendre_periodicity(a):
    for p in (3, 5, 17):
        assert legendre(a, p) == legendre(a % p, p)


@given(st.integers(1, 10**4), st.integers(1, 10**4))
def test_legendre_is_multiplicative(a, b):
    p = 107
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_rejects_non_odd_prime():
    with pytest.raises(InvalidPrimeError):
        legendre(3, 2)
    with pytest.raises(InvalidPrimeError):
        legendre(3, 15)


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_smallest_nonresidue_matches_brute_force(p):
    assert smallest_nonresidue(p) == brute_nonresidue(p)


@pytest.mark.parametrize("p", [1000000000271, 10**12 + 39, 2**61 - 1])
def test_smallest_nonresidue_large_prime(monkeypatch, p):
    # p is validated once, not once per candidate
    calls = []
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    u = 2
    while pow(u, (p - 1) // 2, p) != p - 1:
        u += 1
    assert smallest_nonresidue(p) == u
    assert calls == [p]


def test_a_prime_is_proven_once():
    p = 10**21 + 117  # 22 digits
    is_prime.cache_clear()
    symbols = [legendre(a, p) for a in range(2, 30)]
    assert len(symbols) == 28
    assert is_prime.cache_info().misses == 1


def test_smallest_nonresidue_is_prime_itself():
    # the least nonresidue is always prime: a composite one would have a
    # nonresidue factor below it
    for p in ODD_PRIMES:
        assert is_prime(smallest_nonresidue(p))
