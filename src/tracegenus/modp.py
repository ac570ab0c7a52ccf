"""Polynomial arithmetic and factorization over prime fields.

Polynomials over F_p are plain tuples of ints in [0, p), lowest degree
first, () meaning zero. Factorization is squarefree decomposition and
distinct-degree splitting (degree_blocks), then Cantor-Zassenhaus
equal-degree splitting (split_blocks); both take their powers in F_p[x]/(g)
from pow_mod, which packs a residue into one int (Kronecker substitution)
so that each product is one integer multiplication. factor_degrees stops
after the distinct-degree step and is deterministic; the only randomness is
the equal-degree step, a random.Random seeded by the repr of (p, coeffs),
which random hashes with SHA-512: identical calls take identical paths on
every platform, and as split_blocks sorts its output, the seed never
changes it.

norm, add, sub, scal, mul and divmod_p are also valid modulo any integer
m >= 2: they only reduce mod m, and divmod_p inverts the divisor's leading
coefficient only when it is not 1. zfactor's Hensel lifting runs them mod
p^(2^k), dividing only by monic polynomials. mul reduces polys.product,
the schoolbook product IntPoly also takes. An IntPoly f enters as
norm(f.coeffs, p), and a tuple a leaves as IntPoly(a).
"""

import random

from .arith import is_prime
from .errors import DegenerateInputError, InternalConsistencyError, InvalidPrimeError
from .polys import IntPoly, product


def norm(coeffs, p):
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def deg(a):
    return len(a) - 1


def add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return norm(out, p)


def sub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return norm(out, p)


def scal(a, k, p):
    k %= p
    return norm([c * k for c in a], p)


def mul(a, b, p):
    return norm(product(a, b), p)


def divmod_p(a, b, p, quotient=True):
    """(q, r) with a = q*b + r over F_p and deg r < deg b. Coefficients are
    reduced mod p only as they become the leading one, and once at the end.
    With quotient false, q is not recorded and () is returned in its place."""
    if not b:
        raise ZeroDivisionError("mod-p division by zero polynomial")
    db = deg(b)
    if deg(a) < db:
        return (), norm(a, p)
    a = list(a)
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    q = [0] * (len(a) - db) if quotient else None
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            if inv != 1:
                c = c * inv % p
            if quotient:
                q[i - db] = c
            for j in range(db):
                a[i - db + j] -= c * b[j]
    return norm(q, p) if quotient else (), norm(a[:db], p)


def mod_p(a, b, p):
    return divmod_p(a, b, p, quotient=False)[1]


def monic(a, p):
    if not a:
        return a
    if a[-1] == 1:
        return a
    return scal(a, pow(a[-1], -1, p), p)


def gcd_p(a, b, p):
    while b:
        a, b = b, mod_p(a, b, p)
    return monic(a, p)


def pow_mod(base, e, modulus, p):
    """base^e mod modulus over F_p, left to right over the bits of e, by
    Kronecker substitution: a residue mod g = modulus (degree n >= 2) is one
    int with w = (2n*p^2).bit_length() bits per coefficient, so a square or
    a product with base is one integer multiplication, and a product with
    base = x is a shift by w. Reduction adds the packed rows x^k mod g
    (k = n .. 2n-2) scaled by the high slots mod p, then takes the n low
    slots mod p. A product's slot is below n*p^2 and a folded one below
    (2n-1)*p^2 < 2^w, so no slot carries into the next."""
    if e == 0:
        return (1,)
    base = mod_p(base, modulus, p)
    n = deg(modulus)
    if n < 2:
        return norm([pow(c, e, p) for c in base], p)
    w = (2 * n * p * p).bit_length()
    mask = (1 << w) - 1
    low = (1 << n * w) - 1
    slots = range(n * w - w, -1, -w)

    def pack(cs):
        return sum(c << i * w for i, c in enumerate(cs))

    def fold(h, rows):
        for shift, row in rows:
            h += (h >> shift & mask) % p * row
        h &= low
        out = 0
        for i in slots:
            out = out << w | (h >> i & mask) % p
        return out

    rows = [(k * w, pack(mod_p((0,) * k + (1,), modulus, p))) for k in range(n, 2 * n - 1)]
    h = b = pack(base)
    for bit in bin(e)[3:]:
        h = fold(h * h, rows)
        if bit == "1":
            h = fold(h << w, rows[:1]) if base == (0, 1) else fold(h * b, rows)
    return norm([h >> i * w & mask for i in range(n)], p)


def derivative(a, p):
    return norm([(i * c) % p for i, c in enumerate(a)][1:], p)


def _pth_root(a, p):
    """For a = h(x^p) over F_p, return h (Frobenius is identity on F_p)."""
    return norm([a[i] for i in range(0, len(a), p)], p)


def squarefree_decomposition(f, p):
    """List of (monic squarefree factor, multiplicity) with product monic(f),
    sorted by (degree, coefficients) (Cohen, GTM 138, Alg. 3.4.2). Each pass
    peels off the factors of multiplicity prime to p; what is left is a
    polynomial in x^p, and its p-th root goes round again with the
    multiplicity scaled by p. When f' = 0, gcd(f, f') = f and the pass
    peels nothing."""
    out = {}
    f, mult = monic(f, p), 1
    while deg(f) >= 1:
        c = gcd_p(f, derivative(f, p), p)
        w = divmod_p(f, c, p)[0]
        i = 1
        while deg(w) > 0:
            y = gcd_p(w, c, p)
            z = divmod_p(w, y, p)[0]
            if deg(z) >= 1:
                out[z] = out.get(z, 0) + i * mult
            w = y
            c = divmod_p(c, y, p)[0]
            i += 1
        f, mult = _pth_root(c, p), mult * p
    return sorted(out.items(), key=lambda t: (deg(t[0]), t[0]))


def distinct_degree(f, p):
    """[(product of irreducible factors of degree d, d)] for squarefree monic f."""
    out = []
    h = (0, 1)  # x
    x = (0, 1)
    d = 0
    while deg(f) > 2 * (d + 1) - 1 and deg(f) > 0:
        d += 1
        h = pow_mod(h, p, f, p)
        g = gcd_p(sub(h, x, p), f, p)
        if deg(g) > 0:
            out.append((g, d))
            f = divmod_p(f, g, p)[0]
            h = mod_p(h, f, p)
    if deg(f) > 0:
        out.append((f, deg(f)))
    return out


def _random_poly(rng, max_deg, p):
    while True:
        cs = [rng.randrange(p) for _ in range(max_deg + 1)]
        t = norm(cs, p)
        if deg(t) >= 1:
            return t


def equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus split of a squarefree monic f whose irreducible
    factors all have degree d."""
    n = deg(f)
    if n == d:
        return [f]
    while True:
        a = _random_poly(rng, n - 1, p)
        g = gcd_p(a, f, p)
        if 0 < deg(g) < n:
            pieces = g, divmod_p(f, g, p)[0]
        else:
            if p == 2:
                t = a
                acc = a
                for _ in range(d - 1):
                    t = pow_mod(t, 2, f, p)
                    acc = add(acc, t, p)
                b = acc
            else:
                b = sub(pow_mod(a, (p ** d - 1) // 2, f, p), (1,), p)
            g = gcd_p(b, f, p)
            if not 0 < deg(g) < n:
                continue
            pieces = g, divmod_p(f, g, p)[0]
        out = []
        for piece in pieces:
            out.extend(equal_degree(monic(piece, p), d, p, rng))
        return out


def degree_blocks(f, p):
    """(monic f mod p, [(distinct-degree block, d, multiplicity)]), checked
    to re-multiply to f. Raises InvalidPrimeError for composite p and
    DegenerateInputError when f vanishes mod p."""
    if not is_prime(p):
        raise InvalidPrimeError("mod-p factoring needs a prime modulus, got %r" % (p,))
    a = norm(f.coeffs, p)
    if not a:
        raise DegenerateInputError("polynomial vanishes mod %d" % p)
    a = monic(a, p)
    blocks = [
        (prod, d, mult)
        for sqf, mult in squarefree_decomposition(a, p)
        for prod, d in distinct_degree(sqf, p)
    ]
    check = (1,)
    for prod, _, mult in blocks:
        for _ in range(mult):
            check = mul(check, prod, p)
    if check != a:  # pragma: no cover
        raise InternalConsistencyError("mod-p factorization failed to re-multiply")
    return a, blocks


def shape(blocks):
    """Sorted [(degree, multiplicity)], one pair per irreducible factor, of
    the blocks of degree_blocks."""
    return sorted((d, mult) for prod, d, mult in blocks for _ in range(deg(prod) // d))


def factor_degrees(f, p):
    """The shape of factor_mod_p(f, p), without splitting equal degrees.
    Raises as factor_mod_p does."""
    return shape(degree_blocks(f, p)[1])


def split_blocks(a, blocks, p):
    """factor_mod_p's result from (a, blocks) = degree_blocks(f, p): each
    block is split by Cantor-Zassenhaus and checked to re-multiply to it."""
    rng = random.Random(repr(("factor_mod_p", p, a)))
    out = {}
    for prod, d, mult in blocks:
        pieces = equal_degree(prod, d, p, rng)
        check = (1,)
        for irr in pieces:
            check = mul(check, irr, p)
        if check != prod:  # pragma: no cover
            raise InternalConsistencyError("mod-p factorization failed to re-multiply")
        for irr in pieces:
            key = IntPoly(irr)
            out[key] = out.get(key, 0) + mult
    return sorted(out.items(), key=lambda t: (t[0].degree, t[0].coeffs))


def factor_mod_p(f, p):
    """Factor f over F_p: sorted [(IntPoly factor with coeffs in [0,p), mult)].

    The product of factor^mult equals f normalized monic (f times lc^-1).
    Raises InvalidPrimeError for composite p, DegenerateInputError when f
    vanishes mod p.
    """
    return split_blocks(*degree_blocks(f, p), p)
