"""Integer arithmetic: primality, factorization, quadratic residues.

Fully deterministic. Primality is Miller-Rabin with the first k prime bases,
k the least index whose bound psi_k (OEIS A014233, Sorenson-Webster 2017)
exceeds n; psi_13 ~ 3.3 * 10^24, and below it the answer is proven. From
psi_13 on, the 13 bases are followed by a strong Lucas test (Selfridge
parameters), which makes the test BPSW (Baillie-Wagstaff 1980): no
counterexample is known, but the answer is probable, not proven.

Factorization trial-divides by the primes below 1000, splits a cofactor
that is an exact power r^k at once, and hands the rest to Brent's variant of
Pollard rho over an escalating, fixed parameter schedule. When rho's first
offset reaches a fixed step count, it pauses for one pass of Pollard's p - 1
(Pollard 1974; stage 1 to B1, stage 2 over the primes up to B2), which splits
a balanced cofactor whenever p - 1 is smooth for one of its primes, and then
resumes where it stopped. A composite cofactor that survives both raises
FactorizationLimitError rather than looping.
"""

from bisect import bisect_right
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from typing import NamedTuple

from .errors import DegenerateInputError, FactorizationLimitError, InvalidPrimeError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k: the least odd composite that is a strong pseudoprime to each of the
# first k prime bases, so those k bases decide every n < psi_k exactly
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def _small_primes(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return list(compress(range(limit + 1), sieve))

_PRIMES_BELOW_1000 = _small_primes(1000)


@lru_cache(maxsize=1024)
def is_prime(n):
    """Primality of an integer: proven for n < psi_13 ~ 3.3e24 by
    Miller-Rabin with size-graded bases, BPSW-probable from psi_13 on.

    Cached for the process (lru_cache, 1024 entries): a prime that
    factor_integer has just proved is re-checked by legendre, factor_mod_p,
    split_prime and pmaximalize at no further cost, and a repeated input,
    as in another field with the same prime, is a hit too."""
    if n < 2:
        return False
    for p in _PRIMES_BELOW_1000:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    k = bisect_right(_MR_PSI, n) + 1
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < _MR_PSI[-1]:
        return True
    return isqrt(n) ** 2 != n and _strong_lucas(n)


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test, Selfridge's method A for (D, P, Q);
    n odd, above 1, and not a perfect square."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:  # D shares a factor with n
            return n == abs(D)
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4  # and P = 1
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # binary ladder for U_d, V_d and Q^d, from the leading bit of d down
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = ((U + n if U & 1 else U) >> 1) % n
            V = ((V + n if V & 1 else V) >> 1) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if V == 0:
            return True
    return False


_RHO_CONSTANTS = 64  # polynomial offsets x^2 + c tried in order
_RHO_STEP_CAP = 1 << 21  # squarings allowed per offset before giving up


_PM1_B1 = 3000  # stage 1 raises 2 to every prime power up to B1
_PM1_B2 = 30000  # stage 2 adds one more prime in (B1, B2]
_PM1_BLOCK = 256  # stage-2 primes per gcd
# rho steps on the first offset before the p - 1 pass; rounds end at
# 2, 6, 14, ..., 4r - 2 steps, and 4094 is the end of the r = 1024 round
_PM1_TRIGGER = 4094


@lru_cache(maxsize=None)
def _pm1_tables():
    """(E, gaps): stage 1's exponent E, the product of p^floor(log_p B1) over
    the primes p <= B1, and stage 2's primes in (B1, B2] as the distances
    from 0 to the first and from each to the next. Built on first use."""
    primes = _small_primes(_PM1_B2)
    split = bisect_right(primes, _PM1_B1)
    exponent = 1
    for p in primes[:split]:
        power = p
        while power * p <= _PM1_B1:
            power *= p
        exponent *= power
    stage2 = primes[split:]
    return exponent, [q - p for p, q in zip([0] + stage2, stage2)]


def _pm1(n):
    """Pollard's p - 1 on an odd composite n that is no perfect power;
    returns a proper factor or None."""
    exponent, gaps = _pm1_tables()
    a = pow(2, exponent, n)
    g = gcd(a - 1, n)
    if g > 1:
        return g if g < n else None
    # stage 2: x runs through a^q for the primes q, one product per block
    powers = {gap: pow(a, gap, n) for gap in set(gaps)}
    x = 1
    for start in range(0, len(gaps), _PM1_BLOCK):
        acc = 1
        for gap in gaps[start : start + _PM1_BLOCK]:
            x = x * powers[gap] % n
            acc = acc * (x - 1) % n
        g = gcd(acc, n)
        if g > 1:
            # g == n: every prime of n fell in one block, and rho goes on
            return g if g < n else None
    return None


def _brent_rho(n):
    """One Brent-rho sweep over the fixed schedule, with one p - 1 pass at
    the trigger; returns a proper factor or None."""
    if n % 2 == 0:
        return 2
    pm1_due = True
    for c in range(1, _RHO_CONSTANTS + 1):
        y, m = 2, 128
        g, r, q = 1, 1, 1
        x = ys = y
        cap = _RHO_STEP_CAP
        steps = 0
        while g == 1 and steps < cap:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    # x - y may be negative: that only flips the sign of q
                    # mod n, and gcd ignores sign
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            steps += r
            if pm1_due and g == 1 and steps >= _PM1_TRIGGER:
                # rho resumes after a miss, so no step is computed twice
                pm1_due = False
                d = _pm1(n)
                if d is not None:
                    return d
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


class PrimeFactorization(NamedTuple):
    """sign * product(p^e); factors is a tuple of (prime, exponent), p ascending."""

    sign: int
    factors: tuple = ()

    def value(self):
        out = self.sign
        for p, e in self.factors:
            out *= p ** e
        return out

    def valuation(self, p):
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def primes(self):
        return [p for p, _ in self.factors]


def _perfect_power(m):
    """(r, k) with r^k == m for the least prime k, or None; m has no prime
    factor below 1000, so r > 1000 and k <= log_1000(m)."""
    for k in _PRIMES_BELOW_1000:
        if 1000**k > m:
            return None
        # Newton's method from above converges to floor(m^(1/k))
        r = 1 << -(-m.bit_length() // k)
        while True:
            s = ((k - 1) * r + m // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
        if r**k == m:
            return r, k
    return None


def factor_integer(n):
    """Full factorization of a nonzero integer as a PrimeFactorization."""
    if n == 0:
        raise DegenerateInputError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    out = {}
    # trial division stops at p^2 > n; rho finds larger factors faster than
    # a longer trial loop would
    for p in _PRIMES_BELOW_1000:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        power = _perfect_power(m)
        if power is not None:
            root, k = power
            stack.extend([root] * k)
            continue
        d = _brent_rho(m)
        if d is None:
            raise FactorizationLimitError(
                "composite cofactor %d exceeds the deterministic schedule" % m
            )
        stack.extend([d, m // d])
    return PrimeFactorization(sign, tuple(sorted(out.items())))


def legendre(a, p):
    """Legendre symbol (a/p) in {-1, 0, 1}; p must be an odd prime."""
    if p == 2 or not is_prime(p):
        raise InvalidPrimeError("Legendre symbol needs an odd prime, got %r" % (p,))
    # at an odd prime the Jacobi symbol is the Legendre symbol
    return _jacobi(a, p)


def smallest_nonresidue(p):
    """Least u >= 2 with (u/p) = -1; p must be an odd prime."""
    if p == 2 or not is_prime(p):
        raise InvalidPrimeError("nonresidue search needs an odd prime, got %r" % (p,))
    # p is checked once; the least nonresidue is below p, so the symbol is
    # never 0 on the way
    u = 2
    while _jacobi(u, p) == 1:
        u += 1
    return u
