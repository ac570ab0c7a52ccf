"""Independent oracles the test suite checks library code against.

Everything here deliberately reimplements a result by a different route than
the library: determinants via Fraction-Gauss instead of Bareiss, resultants
via the Sylvester matrix instead of the subresultant remainder sequence, real
root counts via Descartes bisection instead of Sturm chains, residue symbols
via explicit square tables instead of Euler's criterion. Slow is fine;
different is the point.
"""

from fractions import Fraction
from math import gcd

# ---------------------------------------------------------------------------
# exact linear algebra over Q


def identity_matrix(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def frac_det(rows):
    """Determinant by plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def frac_solve(rows, rhs):
    """Solve rows^T-free linear system A x = rhs over Q; None if singular/no solution."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, n) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [a * inv for a in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if m[i][cols]:
            return None
    x = [Fraction(0)] * cols
    for row_i, c in enumerate(pivots):
        x[c] = m[row_i][cols]
    return x


def lattice_member(rows, den, vec_num, vec_den):
    """Is vec (numerators over vec_den) in the lattice spanned by rows/den?"""
    target = [Fraction(v, vec_den) for v in vec_num]
    basis = [[Fraction(x, den) for x in row] for row in rows]
    # solve c * basis = target  <=>  basis^T c = target
    bt = [[basis[j][i] for j in range(len(basis))] for i in range(len(basis[0]))]
    coeffs = frac_solve(bt, target)
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def lattice_equal(rows_a, den_a, rows_b, den_b):
    """Mutual membership of two full-rank integer lattices given as rows/den."""
    return all(
        lattice_member(rows_b, den_b, row, den_a) for row in rows_a
    ) and all(lattice_member(rows_a, den_a, row, den_b) for row in rows_b)


# ---------------------------------------------------------------------------
# resultants via the Sylvester matrix


def sylvester_matrix(f_coeffs, g_coeffs):
    """Sylvester matrix of two polynomials given low-to-high."""
    f = list(f_coeffs)
    g = list(g_coeffs)
    m = len(f) - 1
    n = len(g) - 1
    size = m + n
    rows = []
    fh = f[::-1]  # high-to-low
    gh = g[::-1]
    for i in range(n):
        rows.append([0] * i + fh + [0] * (size - i - len(fh)))
    for i in range(m):
        rows.append([0] * i + gh + [0] * (size - i - len(gh)))
    return rows


def sylvester_resultant(f_coeffs, g_coeffs):
    if len(f_coeffs) == 1 or len(g_coeffs) == 1:
        # constant cases: res(c, g) = c^deg(g)
        if len(f_coeffs) == 1:
            return f_coeffs[0] ** (len(g_coeffs) - 1)
        return g_coeffs[0] ** (len(f_coeffs) - 1)
    det = frac_det(sylvester_matrix(f_coeffs, g_coeffs))
    assert det.denominator == 1
    return det.numerator


def sylvester_disc(coeffs):
    """Discriminant from the Sylvester resultant of f and f'."""
    n = len(coeffs) - 1
    deriv = [k * coeffs[k] for k in range(1, n + 1)]
    res = sylvester_resultant(coeffs, deriv)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    val, rem = divmod(sign * res, coeffs[-1])
    assert rem == 0
    return val


# ---------------------------------------------------------------------------
# real root counting by Descartes bisection (squarefree input)


def _sign_variations(coeffs):
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def quotient_over_q(a, b):
    """a / b over Q by long division on Fractions, for coefficient sequences
    (low degree first) with b != 0; asserts that b divides a."""
    rem = [Fraction(c) for c in a]
    db = len(b) - 1
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] / b[-1]
        quot[i - db] = c
        for j, bc in enumerate(b):
            rem[i - db + j] -= c * bc
    assert not any(rem), "b does not divide a over Q"
    return quot


def _eval_frac(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _mobius_coeffs(coeffs, a, b):
    """Coefficients of (1+t)^n f((a+bt)/(1+t)) for the open interval (a, b)."""
    n = len(coeffs) - 1
    lin_num = [Fraction(a), Fraction(b)]  # a + b t
    lin_den = [Fraction(1), Fraction(1)]  # 1 + t
    out = [Fraction(0)] * (n + 1)
    num_pow = [Fraction(1)]
    pows_num = []
    for _ in range(n + 1):
        pows_num.append(num_pow)
        num_pow = _poly_mul(num_pow, lin_num)
    den_pow = [Fraction(1)]
    pows_den = []
    for _ in range(n + 1):
        pows_den.append(den_pow)
        den_pow = _poly_mul(den_pow, lin_den)
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        term = _poly_mul(pows_num[k], pows_den[n - k])
        for i, v in enumerate(term):
            out[i] += c * v
    return out


def _count_open(coeffs, a, b):
    g = _mobius_coeffs(coeffs, a, b)
    v = _sign_variations(g)
    if v <= 1:
        return v
    mid = (a + b) / 2
    bonus = 1 if _eval_frac(coeffs, mid) == 0 else 0
    return _count_open(coeffs, a, mid) + bonus + _count_open(coeffs, mid, b)


def count_real_roots(coeffs):
    """Number of distinct real roots of a squarefree integer polynomial."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    assert len(cs) >= 2, "need positive degree"
    lead = abs(cs[-1])
    bound = Fraction(1) + max(abs(c) for c in cs) / Fraction(lead)
    a, b = -bound, bound
    assert _eval_frac(cs, a) != 0 and _eval_frac(cs, b) != 0
    inner = 1 if _eval_frac(cs, Fraction(0)) == 0 else 0
    if inner:
        return _count_open(cs, a, Fraction(0)) + 1 + _count_open(cs, Fraction(0), b)
    return _count_open(cs, a, b)


# ---------------------------------------------------------------------------
# the field's (r, s) from its polynomial's real roots


def field_signature(f):
    """(r, s): real embeddings and conjugate pairs of squarefree f, by
    Sturm's theorem; the library reads (r, s) from the trace form."""
    from tracegenus.polys import sturm_count_real_roots

    r = sturm_count_real_roots(f)
    s, rem = divmod(f.degree - r, 2)
    assert rem == 0, "degree minus real roots is odd"
    return r, s


# ---------------------------------------------------------------------------
# elementary number theory by brute force


def trial_division(n):
    """Factor a positive integer by trial division: sorted (p, e) list."""
    assert n >= 1
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def square_classes(p):
    """The set of nonzero squares mod an odd prime p."""
    return {(x * x) % p for x in range(1, p)}


def brute_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if a in square_classes(p) else -1


def brute_nonresidue(p):
    squares = square_classes(p)
    return next(u for u in range(2, p) if u not in squares)


# ---------------------------------------------------------------------------
# closed-form quadratic field facts


def quadratic_field_disc(d):
    """Field discriminant of Q(sqrt(d)) for squarefree d != 0, 1."""
    return d if d % 4 == 1 else 4 * d


def quadratic_splitting(disc, p):
    """Splitting shape of p in the quadratic field of discriminant disc."""
    if p == 2:
        if disc % 2 == 0:
            return ((2, 1),)
        return ((1, 1), (1, 1)) if disc % 8 == 1 else ((1, 2),)
    if disc % p == 0:
        return ((2, 1),)
    return ((1, 1), (1, 1)) if brute_legendre(disc, p) == 1 else ((1, 2),)


def is_squarefree_int(n):
    n = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# power sums from explicit roots


def power_sum_of_roots(roots, k):
    return sum(r**k for r in roots)


# ---------------------------------------------------------------------------
# Tschirnhaus transformations from power traces


def tschirnhaus(f, h):
    """The characteristic polynomial g of h(theta), theta a root of monic f,
    as an IntPoly (Cohen, GTM 138, §4.4): M = h(C) for the companion matrix
    C of f acts as multiplication by h(theta) on the power basis, the power
    traces Tr(M^k) are the power sums of the roots of g, and Newton's
    identities k*e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) Tr(M^i) give its
    elementary symmetric functions e_k; the divisions by k are exact."""
    from tracegenus.polys import IntPoly

    n = f.degree
    # row i of C is x * x^i reduced mod f, in the power basis
    companion = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    companion.append([-c for c in f.coeffs[:n]])
    m = [[0] * n for _ in range(n)]
    power = identity_matrix(n)
    for c in h.coeffs:
        m = [[a + c * b for a, b in zip(row, prow)] for row, prow in zip(m, power)]
        power = mat_mul(power, companion)
    traces = []
    power = identity_matrix(n)
    for _ in range(n):
        power = mat_mul(power, m)
        traces.append(sum(power[i][i] for i in range(n)))
    e = [1]
    for k in range(1, n + 1):
        q, r = divmod(sum((-1) ** (i - 1) * e[k - i] * traces[i - 1] for i in range(1, k + 1)), k)
        assert r == 0, "Newton's identities left a remainder"
        e.append(q)
    return IntPoly([(-1) ** k * e[k] for k in range(n, -1, -1)])


# ---------------------------------------------------------------------------
# Gram matrix of the trace form by polynomial products


def gram_by_products(order):
    """Tr(w_i w_j) / d^2 from the products w_i * w_j reduced mod f, each
    traced against the power sums s_0..s_(n-1). None if an entry is not an
    integer."""
    from tracegenus.traceform import power_sums

    n = order.degree
    sums = power_sums(order.poly, n - 1)
    polys = order.basis_polys()
    d2 = order.denom**2
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = (polys[i] * polys[j]).divmod(order.poly)[1]
            q, r = divmod(sum(c * sums[k] for k, c in enumerate(prod.coeffs)), d2)
            if r:
                return None
            gram[i][j] = gram[j][i] = q
    return tuple(tuple(row) for row in gram)


# ---------------------------------------------------------------------------
# certified-irreducible building blocks for factorization tests


def is_eisenstein_at(coeffs, p):
    """Eisenstein criterion: certifies irreducibility independently."""
    lead = coeffs[-1]
    if lead % p == 0:
        return False
    if any(c % p for c in coeffs[:-1]):
        return False
    return coeffs[0] % (p * p) != 0


def quadratic_is_irreducible(b, c):
    """x^2 + b x + c irreducible over Q iff b^2 - 4c is not a perfect square."""
    d = b * b - 4 * c
    if d < 0:
        return True
    r = int(d**0.5)
    while r * r > d:
        r -= 1
    while (r + 1) * (r + 1) <= d:
        r += 1
    return r * r != d


# ---------------------------------------------------------------------------
# powers in F_p[x]/(g) by schoolbook square-and-multiply


def schoolbook_pow_mod(base, e, modulus, p):
    """base^e mod modulus over F_p, left to right over the bits of e: each
    step squares, multiplies by base on a 1 bit and reduces once, on
    coefficient lists. modp.pow_mod must agree with it bit for bit."""
    from tracegenus import modp
    from tracegenus.polys import product

    if e == 0:
        return (1,)
    base = modp.mod_p(base, modulus, p)
    h = base
    for bit in bin(e)[3:]:
        h = product(h, h)
        if bit == "1":
            h = product(h, base)
        h = modp.mod_p(h, modulus, p)
    return h


def distinct_degree_by_pow_mod(f, p):
    """[(product of irreducible factors of degree d, d)] for squarefree monic
    f over F_p, with one pow_mod per step for h = x^(p^d): the loop that
    modp.distinct_degree replaces by its Frobenius rows."""
    from tracegenus import modp

    out = []
    h = x = (0, 1)
    d = 0
    while modp.deg(f) > 2 * d + 1:
        d += 1
        h = modp.pow_mod(h, p, f, p)
        g = modp.gcd_p(modp.sub(h, x, p), f, p)
        if modp.deg(g) > 0:
            out.append((g, d))
            f = modp.divmod_p(f, g, p)[0]
            h = modp.mod_p(h, f, p)
    if modp.deg(f) > 0:
        out.append((f, modp.deg(f)))
    return out


# ---------------------------------------------------------------------------
# odd-p Jordan decomposition of a Gram matrix over Z_(p)


def _p_valuation(x, p):
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def jordan_symbol(gram, p):
    """{k: (dimension, Legendre symbol of the unit part's determinant)} of the
    p^k-modular Jordan constituents of an integral symmetric nondegenerate
    Gram matrix, for an odd prime p (Conway-Sloane, SPLAG, ch. 15 §7).
    Diagonalizes over Z_(p) with exact Fractions: each step pivots on an
    entry of least p-valuation, and when only an off-diagonal (i, j) has it,
    first adds e_j to e_i, which gives the diagonal that valuation as p is
    odd. Every multiplier is then p-integral, so the pivots are the
    constituents' scales times units."""
    m = [[Fraction(x) for x in row] for row in gram]
    symbol = {}
    while m:
        n = len(m)
        v, i, j = min(
            (_p_valuation(m[a][b], p), a, b) for a in range(n) for b in range(a, n) if m[a][b]
        )
        diagonal = [a for a in range(n) if m[a][a] and _p_valuation(m[a][a], p) == v]
        if diagonal:
            i = diagonal[0]
        else:  # only off-diagonal entries reach v: add e_j to e_i
            m[i] = [x + y for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] += row[j]
        pivot = m[i][i]
        unit = pivot / Fraction(p) ** v
        dim, sign = symbol.get(v, (0, 1))
        euler = pow(unit.numerator * unit.denominator % p, (p - 1) // 2, p)
        symbol[v] = (dim + 1, sign * (1 if euler == 1 else -1))
        m = [
            [m[a][b] - m[a][i] * m[i][b] / pivot for b in range(n) if b != i]
            for a in range(n)
            if a != i
        ]
    return symbol


# ---------------------------------------------------------------------------
# lookups on a FieldAnalysis


def splitting_at(analysis, p):
    """The analysis's SplittingType at p, or None if p is unramified."""
    return next((s for s in analysis.splittings if s.p == p), None)


# ---------------------------------------------------------------------------
# the square class n/(n - v_p(d_K)) that a gamma prime's alpha class equals


def disc_square_class(n, disc_valuation, p):
    """Square class of n/(n - v) mod p as an AlphaClass, for 0 < v < n.

    At a prime that passes the gamma test (e homogeneous, F = n/e and g odd)
    alpha_p = e^F u^(F - g) is e mod squares, and e = n/(n - v_p(d_K)) as
    v_p(d_K) = (e - 1) F; so this class restates the definitions rather than
    checking the library by a second route. The quotient is reduced first;
    if p still divides numerator or denominator the class is not a p-adic
    unit and OutOfDomainError is raised, as it is for v outside (0, n).
    """
    from tracegenus.arith import legendre, smallest_nonresidue
    from tracegenus.errors import InvalidPrimeError, OutOfDomainError
    from tracegenus.traceform import AlphaClass

    if p == 2:
        raise InvalidPrimeError("square classes are tracked at odd primes only")
    if not 0 < disc_valuation < n:
        raise OutOfDomainError("disc valuation %d outside (0, %d)" % (disc_valuation, n))
    g = gcd(n, n - disc_valuation)
    num, den = n // g, (n - disc_valuation) // g
    if num % p == 0 or den % p == 0:
        q = num if den == 1 else "%d/%d" % (num, den)
        raise OutOfDomainError("square class of %s is not a unit at %d" % (q, p))
    rep = num * den
    return AlphaClass(
        p=p,
        representative=rep,
        nonresidue=smallest_nonresidue(p),
        legendre=legendre(rep, p),
    )


def alpha_matches_disc_formula(n, disc_valuation, alpha):
    """Whether (alpha_p/p) agrees with the square class of n/(n - v_p(disc))."""
    return disc_square_class(n, disc_valuation, alpha.p).legendre == alpha.legendre


def verify_alpha_formula(analysis, p):
    """Precondition-checked form of alpha_matches_disc_formula for a field
    that passed the gamma classification: p must be odd, ramified, tame and
    not the exceptional prime. Violations raise OutOfDomainError."""
    from tracegenus.errors import OutOfDomainError

    if not analysis.gamma.is_gamma:
        raise OutOfDomainError("field is not in the gamma class")
    if p == 2 or p == analysis.gamma.exceptional:
        raise OutOfDomainError("prime %d is outside the formula's scope" % p)
    alpha = analysis.alpha_at(p)
    if alpha is None:
        raise OutOfDomainError("no alpha invariant at %d (unramified or wild)" % p)
    v = dict(analysis.disc_factored).get(p, 0)
    return alpha_matches_disc_formula(analysis.degree, v, alpha)
