"""Orders in number fields: Round 2 at each prime (Cohen, GTM 138, Alg.
6.1.8), joined into a maximal order with its factored discriminant.
Dedekind's criterion takes the first step: it proves Z[theta] p-maximal, or
gives the first enlargement, from which the radical/multiplier-ring loop
continues. The loop at p stops as soon as its order O has v_p(disc O) < 2,
read from v_p(disc f) and the index alone: disc O = [O_K : O]^2 d_K, so p
then divides no index above O and no further table is built to prove it.

An order is stored as an n x n integer basis matrix over a common
denominator. Rows are coordinates in the power basis 1, x, ..., x^(n-1) of
Q[x]/(f); the matrix is kept in lower-triangular HNF so row 0 is always the
element 1 and the diagonal exposes the elementary divisors, whose product
gives the index of Z[theta].
"""

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from . import modp
from .arith import PrimeFactorization, factor_integer, is_prime
from .errors import (
    DegenerateInputError,
    InternalConsistencyError,
    InvalidPrimeError,
    NonMonicInputError,
    OutOfDomainError,
    ReducibleInputError,
)
from .linalg import hnf_lower, left_kernel_mod_p, solve_lower_unit
from .polys import IntPoly, discriminant, product
from .zfactor import factor_over_z


class Order(NamedTuple):
    """Ring of rank n = deg(poly): rows of basis_num over denom, in the
    power basis of Q[x]/(poly). Lower-triangular HNF; row 0 is 1."""

    poly: IntPoly
    basis_num: tuple
    denom: int

    @property
    def degree(self):
        return self.poly.degree

    def basis_polys(self):
        return [IntPoly(list(row)) for row in self.basis_num]

    def index_in(self):
        """Index [O : Z[theta]] of the equation order Z[theta] = Z[x]/(poly)
        in this order: denom^n over the product of the diagonal."""
        det = 1
        for i in range(self.degree):
            det *= self.basis_num[i][i]
        q, r = divmod(self.denom ** self.degree, det)
        if r:  # pragma: no cover
            raise InternalConsistencyError("order determinant does not divide denom^n")
        return q


class MaximalOrder(NamedTuple):
    """The maximal order's HNF basis and its factored discriminant; index
    and disc are derived from them."""

    order: Order
    disc_factored: PrimeFactorization

    @property
    def poly(self):
        return self.order.poly

    @property
    def degree(self):
        return self.order.degree

    @property
    def index(self):
        return self.order.index_in()

    @property
    def disc(self):
        return self.disc_factored.value()


def equation_order(f):
    """Z[x]/(f) with the power basis."""
    n = f.degree
    basis = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return Order(poly=f, basis_num=basis, denom=1)


def order_from_rows(f, rows, denom):
    """Canonical Order from spanning rows (power-basis numerators over denom)."""
    n = f.degree
    h = hnf_lower(rows, n)
    if len(h) != n:  # pragma: no cover
        raise InternalConsistencyError("order lattice lost rank")
    content = denom
    for row in h:
        for c in row:
            content = gcd(content, c)
    if content > 1:
        h = [[c // content for c in row] for row in h]
        denom //= content
    return Order(poly=f, basis_num=tuple(tuple(r) for r in h), denom=denom)


@lru_cache(maxsize=128)
def mult_table(order):
    """Structure constants: table[i][j] = coordinates of w_i * w_j in the
    order's own basis (integers; integrality is exactly ring closure). The
    ring is commutative, so only j >= i is computed."""
    n = order.degree
    d = order.denom
    # w_i * w_j = prod / d^2, so its coordinates x solve x * (d * basis_num) = prod
    basis = [[d * c for c in row] for row in order.basis_num]
    polys = order.basis_polys()
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = (polys[i] * polys[j]).divmod(order.poly)[1]
            vec = list(prod.coeffs) + [0] * (n - len(prod.coeffs))
            coords = solve_lower_unit(basis, vec)
            if coords is None:
                raise InternalConsistencyError(
                    "order is not multiplicatively closed at basis (%d,%d)" % (i, j)
                )
            table[i][j] = table[j][i] = tuple(coords)
    return tuple(tuple(row) for row in table)


def _multiply_in_order(table, x, y):
    """Product of coordinate vectors x, y via the structure constants."""
    n = len(table)
    out = [0] * n
    for i, xi in enumerate(x):
        if xi:
            row = table[i]
            for j, yj in enumerate(y):
                if yj:
                    c = xi * yj
                    tij = row[j]
                    for k in range(n):
                        out[k] += c * tij[k]
    return out


def _mul_mod_p(table, x, y, p):
    """Product in O/pO: coordinate vectors x, y on the order's basis, whose
    row 0 is the unit, multiplied by the integer table and reduced mod p."""
    return [c % p for c in _multiply_in_order(table, x, y)]


def frobenius_matrix(table, p):
    """Rows of the F_p-linear map x -> x^p on O/pO, for the order with
    structure constants table, by square-and-multiply on the exponent p."""
    n = len(table)
    rows = []
    for i in range(n):
        base = [1 if j == i else 0 for j in range(n)]
        result = None
        k = p
        while k:
            if k & 1:
                result = base if result is None else _mul_mod_p(table, result, base, p)
            k >>= 1
            if k:
                base = _mul_mod_p(table, base, base, p)
        rows.append(result)
    return rows


def _dedekind_witness(f, p):
    """Dedekind's criterion at a prime p for the equation order of monic f:
    None when Z[theta] is p-maximal, otherwise the lift U of f_bar/u_bar,
    for which U(theta)/p lies in the p-maximal order but not in Z[theta].
    """
    f_bar = modp.norm(f.coeffs, p)
    # g_bar is the product of the distinct irreducible factors of f_bar
    g_bar = (1,)
    for part, _ in modp.squarefree_decomposition(f_bar, p):
        g_bar = modp.mul(g_bar, part, p)
    h_bar = modp.divmod_p(f_bar, g_bar, p)[0]
    # t = (g*h - f)/p over Z, for the lifts g and h of g_bar and h_bar with
    # coefficients in [0, p); g*h and f are both monic of degree n
    t_coeffs = []
    for c, a in zip(product(g_bar, h_bar), f.coeffs):
        q, r = divmod(c - a, p)
        if r:  # pragma: no cover
            raise InternalConsistencyError("lifted product not congruent to f")
        t_coeffs.append(q)
    t_bar = modp.norm(t_coeffs, p)
    u_bar = modp.gcd_p(modp.gcd_p(t_bar, g_bar, p), h_bar, p)
    if modp.deg(u_bar) <= 0:
        return None
    return IntPoly(modp.divmod_p(f_bar, u_bar, p)[0])


def _require_field_poly(f):
    if not f.is_monic:
        raise NonMonicInputError("defining polynomial must be monic: %s" % (f,))
    if f.degree < 1:
        raise DegenerateInputError("defining polynomial must be nonconstant")


def _radical_kernel(frob, p):
    """Basis (mod p) of the nilradical of O/pO from its Frobenius matrix
    frob: the kernel of x -> x^(p^k) with p^k >= dim."""
    n = len(frob)
    power = frob
    k = 1
    while p ** k < n:
        power = [[sum(power[i][t] * frob[t][j] for t in range(n)) % p for j in range(n)] for i in range(n)]
        k += 1
    return left_kernel_mod_p(power, p)


def pmaximalize(f, p, v):
    """p-maximal order containing Z[x]/(f), for a prime p whose square
    divides disc(f) and v = v_p(disc f) (Cohen, GTM 138, Alg. 6.1.8).

    Dedekind's criterion comes first: a p-maximal Z[theta] is returned with
    no multiplication table. Otherwise the radical/multiplier loop starts
    from Dedekind's enlargement O_1 = Z[theta] + (U(theta)/p) Z[theta],
    which is the loop's own first step from Z[theta] (Cohen, Thm. 6.1.4).
    Before each step the loop stops on an order O with v_p(disc O) < 2:
    disc O = [O_K : O]^2 d_K, and v_p(disc O) = v - 2 v_p([O : Z[theta]]),
    so p does not divide [O_K : O] and O is p-maximal already.

    The result is proven p-maximal only for the true v, which maximal_order,
    the one caller, passes. A v above it costs steps that end on a fixed
    point; a v below it is refused once the index outgrows it (v_p(disc O)
    < 0), but may stop early on an order that is not p-maximal. Raises
    OutOfDomainError for v < 2.
    """
    _require_field_poly(f)
    if not is_prime(p):
        raise InvalidPrimeError("pmaximalize needs a prime, got %r" % (p,))
    if v < 2:
        raise OutOfDomainError("pmaximalize needs v = v_p(disc f) >= 2, got %r" % (v,))
    u = _dedekind_witness(f, p)
    if u is None:
        return equation_order(f)
    n = f.degree
    # p*Z[theta] + U*Z[theta] over p: as f = U*U_bar mod p, the products
    # U*x^i with i < deg(U_bar) = n - deg(U) span U*Z[theta] mod p*Z[theta]
    m = n - u.degree
    rows = [[p if i == j else 0 for j in range(n)] for i in range(n)]
    rows.extend([0] * i + list(u.coeffs) + [0] * (m - 1 - i) for i in range(m))
    order = order_from_rows(f, rows, p)
    while True:
        left = v - 2 * _valuation(order.index_in(), p)  # v_p(disc order)
        if left < 0:
            raise InternalConsistencyError("index at %d exceeds v = %d" % (p, v))
        if left < 2:
            return order
        bigger = _round_two_step(order, p)
        if bigger == order:
            return order
        order = bigger


def _valuation(m, p):
    """v_p(m) for a nonzero integer m."""
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def _round_two_step(order, p):
    """One radical/multiplier step at p: the ring of multipliers of the
    p-radical of order, which equals order exactly when order is p-maximal."""
    f = order.poly
    n = f.degree
    table = mult_table(order)
    radical = _radical_kernel(frobenius_matrix(table, p), p)
    # ideal I_p: radical lifts plus p*O, as a lattice in O-coordinates
    ideal_rows = [list(v) for v in radical]
    ideal_rows.extend([p if i == j else 0 for j in range(n)] for i in range(n))
    ideal = hnf_lower(ideal_rows, n)
    # multiplier condition: y * m in p*I for every ideal basis row m,
    # linear in y over F_p
    images = []
    for i in range(n):
        e = [1 if j == i else 0 for j in range(n)]
        cols = []
        for m_row in ideal:
            prod = _multiply_in_order(table, e, m_row)
            coords = solve_lower_unit(ideal, prod)
            if coords is None:  # pragma: no cover
                raise InternalConsistencyError("radical lattice is not an ideal")
            cols.extend(c % p for c in coords)
        images.append(cols)
    kernel = left_kernel_mod_p(images, p)
    new_rows = [list(v) for v in kernel]
    new_rows.extend([p if i == j else 0 for j in range(n)] for i in range(n))
    j_basis = hnf_lower(new_rows, n)  # J in O-coordinates; new order U = J/p
    # convert to power-basis coordinates over denominator p * denom
    power_rows = []
    for row in j_basis:
        acc = [0] * n
        for coeff, brow in zip(row, order.basis_num):
            if coeff:
                for t in range(n):
                    acc[t] += coeff * brow[t]
        power_rows.append(acc)
    return order_from_rows(f, power_rows, p * order.denom)


def maximal_order(f):
    """The maximal order of Q[x]/(f) for monic irreducible f.

    Round-2 enlargement at every prime whose square divides disc(f), then a
    single lattice join of the local orders that Round 2 enlarged. Degree 1
    is accepted (the order is Z).
    """
    _require_field_poly(f)
    factors = factor_over_z(f)
    if len(factors) != 1 or factors[0][1] != 1:
        raise ReducibleInputError(
            "polynomial is reducible: %s" % (f,),
            factors=[g for g, _ in factors],
        )
    disc_fact = factor_integer(discriminant(f))
    # a local order over denominator 1 contains Z[theta] and lies in it, so
    # it is Z[theta], which lies in every order: it adds nothing to the join,
    # and as a ring it needs no closure proof
    locals_ = [pmaximalize(f, p, e) for p, e in disc_fact.factors if e >= 2]
    locals_ = [o for o in locals_ if o.denom > 1]
    if not locals_:
        return MaximalOrder(order=equation_order(f), disc_factored=disc_fact)
    common = 1
    for o in locals_:
        common = common * o.denom // gcd(common, o.denom)
    rows = []
    for o in locals_:
        scale = common // o.denom
        for row in o.basis_num:
            rows.append([c * scale for c in row])
    joined = order_from_rows(f, rows, common)
    index = joined.index_in()
    exponents = []
    for p, e in disc_fact.factors:
        v = e - 2 * _valuation(index, p)
        if v < 0:  # pragma: no cover
            raise InternalConsistencyError("index valuation exceeds disc valuation")
        if v:
            exponents.append((p, v))
    disc_factored = PrimeFactorization(disc_fact.sign, tuple(exponents))
    # ring closure is exercised here; raises if the join is not a ring
    mult_table(joined)
    return MaximalOrder(order=joined, disc_factored=disc_factored)
