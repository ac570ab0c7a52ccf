"""Factorization in Z[x]: Yun squarefree split, degree analysis, quadratic
Hensel lifting of a mod-p factorization above the Mignotte bound, and
Zassenhaus subset recombination. Degree analysis reads the mod-p factor
degrees at up to 5 good primes, tried from 2 up (at 2 distinct-degree
splitting costs almost nothing); when no proper factor degree is allowed by
all of them, f is irreducible and nothing is lifted. Otherwise the lift runs
at the good prime with the fewest local factors, the first on a tie.
The lift and the recombination use modp's arithmetic modulo p^(2^k).

Input is monic, as a defining polynomial of Q(theta) with theta integral
is: every factor over Z is then monic (Gauss), so each exact division is by
a monic polynomial and no content or leading coefficient is split off.
"""

from itertools import chain, combinations, count
from math import isqrt

from . import modp
from .arith import is_prime
from .errors import DegenerateInputError, InternalConsistencyError, NonMonicInputError
from .polys import IntPoly, exact_quotient, poly_gcd

_LIFT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


def yun_squarefree(f):
    """[(monic squarefree factor, multiplicity)] for monic f, char 0."""
    d = f.derivative()
    g = poly_gcd(f, d)
    if g.degree == 0:
        return [(f, 1)]
    # every divisor below is a primitive factor of the monic f, so it is
    # monic too (Gauss) and each quotient is integral
    c = exact_quotient(f, g)
    z = exact_quotient(d, g) - c.derivative()
    out = []
    i = 1
    while c.degree > 0:
        fi = poly_gcd(c, z)
        if fi.degree >= 1:
            out.append((fi, i))
        c = exact_quotient(c, fi)
        z = exact_quotient(z, fi) - c.derivative()
        i += 1
    return out


def _sq_norm(f):
    return sum(c * c for c in f.coeffs)


def _l2_norm_ceil(f):
    s = _sq_norm(f)
    r = isqrt(s)
    return r if r * r == s else r + 1


def _monic_of_degree(a, d, what):
    if modp.deg(a) > d:  # pragma: no cover
        raise InternalConsistencyError("Hensel %s overflowed its degree" % what)
    if modp.deg(a) < d or a[-1] != 1:  # pragma: no cover
        raise InternalConsistencyError("Hensel %s lost monicity" % what)


def _hensel_step(f, g, h, s, t, m):
    """One quadratic Hensel step: from f = gh (mod m) with sg + th = 1 (mod m)
    to the same data mod m^2. g and h stay monic of their degrees."""
    m2 = m * m
    e = modp.sub(f, modp.mul(g, h, m2), m2)
    q, r = modp.divmod_p(modp.mul(s, e, m2), h, m2)
    g1 = modp.add(g, modp.add(modp.mul(t, e, m2), modp.mul(q, g, m2), m2), m2)
    h1 = modp.add(h, r, m2)
    _monic_of_degree(g1, modp.deg(g), "factor")
    _monic_of_degree(h1, modp.deg(h), "cofactor")
    b = modp.sub(modp.add(modp.mul(s, g1, m2), modp.mul(t, h1, m2), m2), (1,), m2)
    c, d = modp.divmod_p(modp.mul(s, b, m2), h1, m2)
    s1 = modp.sub(s, d, m2)
    t1 = modp.sub(t, modp.add(modp.mul(t, b, m2), modp.mul(c, g1, m2), m2), m2)
    return g1, h1, s1, t1


def _bezout_mod_p(g, h, p):
    """s, t with s*g + t*h = 1 mod p, deg s < deg h, deg t < deg g, for
    coprime g and h mod p of positive degree. The extended Euclidean
    algorithm returns them within those bounds once scaled by the inverse of
    the last remainder (von zur Gathen-Gerhard, Modern Computer Algebra,
    ch. 3); the degree check only guards that."""
    r0, r1 = g, h
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = modp.divmod_p(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, modp.sub(s0, modp.mul(q, s1, p), p)
        t0, t1 = t1, modp.sub(t0, modp.mul(q, t1, p), p)
    if modp.deg(r0) != 0:  # pragma: no cover
        raise InternalConsistencyError("lift factors not coprime mod p")
    inv = pow(r0[0], -1, p)
    s, t = modp.scal(s0, inv, p), modp.scal(t0, inv, p)
    if modp.deg(s) >= modp.deg(h) or modp.deg(t) >= modp.deg(g):  # pragma: no cover
        raise InternalConsistencyError("Bezout coefficients exceed their degree bounds")
    return s, t


def _lift_tree(f, factors, p, target):
    """Lift monic factors (tuples mod p) of the monic f (a coefficient
    sequence) to modulus m >= target; returns (list of lifted tuples, m)."""
    if len(factors) == 1:
        m = p
        while m < target:
            m *= m
        return [modp.norm(f, m)], m
    half = len(factors) // 2
    g = (1,)
    for fac in factors[:half]:
        g = modp.mul(g, fac, p)
    h = (1,)
    for fac in factors[half:]:
        h = modp.mul(h, fac, p)
    s, t = _bezout_mod_p(g, h, p)
    m = p
    while m < target:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    # recurse with the halves as the polynomials to refine further
    left, _ = _lift_tree(g, factors[:half], p, target)
    right, _ = _lift_tree(h, factors[half:], p, target)
    return left + right, m


def _good_blocks(f):
    """(p, modp.degree_blocks(f, p)) at up to 5 primes of _LIFT_PRIMES where
    f stays squarefree; failing those, at the first such prime above 67.
    A prime is bad when gcd(f, f') mod p is not 1, and then no degree
    analysis runs there. At a good prime degree_blocks takes that gcd again
    as squarefree_decomposition's first step and returns after it: one gcd
    at each of at most 5 good primes, against a full squarefree and
    distinct-degree split at each bad one.

    Each bad prime of a squarefree monic f divides disc(f) != 0, so the
    search raises once their product passes Hadamard's bound on |disc(f)|,
    the determinant of the Sylvester matrix of f and f'."""
    n = f.degree
    bound_sq = _sq_norm(f) ** (n - 1) * _sq_norm(f.derivative()) ** n
    bad = 1
    found = 0
    for p in chain(_LIFT_PRIMES, filter(is_prime, count(71, 2))):
        if found == 5 or (found and p > 67):
            return
        a = modp.norm(f.coeffs, p)
        if modp.gcd_p(a, modp.derivative(a, p), p) == (1,):
            found += 1
            yield (p, *modp.degree_blocks(f, p))
        else:
            bad *= p
            if bad * bad > bound_sq:
                raise InternalConsistencyError("expected squarefree input")


def _factor_monic_squarefree(f):
    """Irreducible (monic) factors of a monic squarefree integer polynomial."""
    n = f.degree
    if n <= 1:
        return [f]
    # degree analysis: a good prime's shape allows only the subset sums of
    # its local degrees as degrees of a proper factor over Z
    allowed = set(range(1, n))
    best = None
    for p, a, blocks in _good_blocks(f):
        shape = modp.shape(blocks)
        sums = {0}
        for d, _ in shape:
            sums |= {s + d for s in sums}
        allowed &= sums
        if not allowed:
            return [f]
        if best is None or len(shape) < best[0]:
            best = len(shape), p, a, blocks
    _, p, a, blocks = best
    # split_blocks sorts its factors by (degree, coefficients)
    local = [fac.coeffs for fac, _ in modp.split_blocks(a, blocks, p)]
    bound = 2 * (2 ** n) * _l2_norm_ceil(f) + 1
    pieces, m = _lift_tree(f.coeffs, local, p, bound)
    remaining = list(range(len(pieces)))
    result = []
    current = f
    size = 1
    while 2 * size <= len(remaining):
        found = None
        for subset in combinations(remaining, size):
            prod = (1,)
            for i in subset:
                prod = modp.mul(prod, pieces[i], m)
            # prod is reduced into [0, m); lift it to the symmetric range
            cand = IntPoly([c - m if c > m // 2 else c for c in prod])
            q, r = current.divmod(cand)
            if r.is_zero:
                found = (subset, cand, q)
                break
        if found is None:
            size += 1
            continue
        subset, cand, q = found
        result.append(cand)
        current = q
        remaining = [i for i in remaining if i not in subset]
    if current.degree > 0:
        result.append(current)
    return sorted(result, key=lambda g: (g.degree, g.coeffs))


def factor_over_z(f):
    """Complete factorization over Z of a monic f of positive degree.

    Returns [(irreducible monic factor, multiplicity), ...] with
    product(factor^mult) == f exactly, sorted by (degree, coefficients).
    Raises DegenerateInputError for a constant (zero included) and
    NonMonicInputError for any other non-monic f.
    """
    if f.degree < 1:
        raise DegenerateInputError("cannot factor a constant polynomial: %s" % (f,))
    if not f.is_monic:
        raise NonMonicInputError("factor_over_z needs a monic polynomial: %s" % (f,))
    out = {}
    for part, mult in yun_squarefree(f):
        for irr in _factor_monic_squarefree(part):
            out[irr] = out.get(irr, 0) + mult
    factors = sorted(out.items(), key=lambda t: (t[0].degree, t[0].coeffs))
    check = IntPoly([1])
    for g, m in factors:
        for _ in range(m):
            check = check * g
    if check != f:  # pragma: no cover
        raise InternalConsistencyError("factorization failed to re-multiply")
    return factors


def is_irreducible(f):
    """True when the monic f is irreducible over Q; raises as factor_over_z
    does on a constant or a non-monic f."""
    factors = factor_over_z(f)
    return len(factors) == 1 and factors[0][1] == 1
