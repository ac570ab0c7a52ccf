"""Orders in number fields: the Dedekind p-maximality test and the
radical/multiplier-ring enlargement loop (Round-2), joined into a maximal
order with its index and factored discriminant.

An order is stored as an n x n integer basis matrix over a common
denominator. Rows are coordinates in the power basis 1, x, ..., x^(n-1) of
Q[x]/(f); the matrix is kept in lower-triangular HNF so row 0 is always the
element 1 and the diagonal exposes the elementary divisors.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import modp
from .arith import PrimeFactorization, factor_integer, is_prime
from .errors import (
    InternalConsistencyError,
    InvalidPrimeError,
    NonMonicInputError,
    ReducibleInputError,
)
from .linalg import hnf_lower, left_kernel_mod_p, solve_lower_unit
from .polys import IntPoly, discriminant
from .zfactor import factor_over_z


@dataclass(frozen=True)
class Order:
    """Ring of rank n = deg(poly): rows of basis_num over denom, in the
    power basis of Q[x]/(poly). Lower-triangular HNF; row 0 is 1."""

    poly: IntPoly
    basis_num: tuple
    denom: int
    disc: int

    @property
    def degree(self):
        return self.poly.degree

    def basis_polys(self):
        return [IntPoly(list(row)) for row in self.basis_num]

    def index_in(self):
        """Index [O : Z[x]/(poly)] ... of Z[theta] inside this order."""
        det = 1
        for i in range(self.degree):
            det *= self.basis_num[i][i]
        q, r = divmod(self.denom ** self.degree, det)
        if r:  # pragma: no cover
            raise InternalConsistencyError("order determinant does not divide denom^n")
        return q

    def __contains__(self, element):
        """element: (IntPoly numerator, int denominator)."""
        num, den = element
        if num.degree >= self.degree:
            num = num.mod_monic(self.poly)
        # x * (basis_num / denom) = num / den  <=>  x * (den * basis_num) = num * denom
        rhs = [c * self.denom for c in num.coeffs] + [0] * (self.degree - len(num.coeffs))
        basis = [[den * c for c in row] for row in self.basis_num]
        return solve_lower_unit(basis, rhs) is not None


@dataclass(frozen=True)
class MaximalOrder:
    order: Order
    index: int
    disc_factored: PrimeFactorization

    @property
    def poly(self):
        return self.order.poly

    @property
    def degree(self):
        return self.order.degree

    @property
    def disc(self):
        return self.order.disc


def equation_order(f, disc_f=None):
    """Z[x]/(f) with the power basis."""
    n = f.degree
    basis = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    if disc_f is None:
        disc_f = discriminant(f)
    return Order(poly=f, basis_num=basis, denom=1, disc=disc_f)


def order_from_rows(f, rows, denom, disc_f):
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
    det = 1
    for i in range(n):
        det *= h[i][i]
    index_sq, rem = divmod(denom ** n, det)
    if rem:  # pragma: no cover
        raise InternalConsistencyError("lattice does not contain Z[theta] scaled")
    disc, rem = divmod(disc_f, index_sq * index_sq)
    if rem:  # pragma: no cover
        raise InternalConsistencyError("index squared does not divide disc(f)")
    return Order(poly=f, basis_num=tuple(tuple(r) for r in h), denom=denom, disc=disc)


@lru_cache(maxsize=128)
def mult_table(order):
    """Structure constants: table[i][j] = coordinates of w_i * w_j in the
    order's own basis (integers; integrality is exactly ring closure)."""
    n = order.degree
    d = order.denom
    # w_i * w_j = prod / d^2, so its coordinates x solve x * (d * basis_num) = prod
    basis = [[d * c for c in row] for row in order.basis_num]
    polys = order.basis_polys()
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = (polys[i] * polys[j]).mod_monic(order.poly)
            vec = list(prod.coeffs) + [0] * (n - len(prod.coeffs))
            coords = solve_lower_unit(basis, vec)
            if coords is None:
                raise InternalConsistencyError(
                    "order is not multiplicatively closed at basis (%d,%d)" % (i, j)
                )
            row.append(tuple(coords))
        table.append(tuple(row))
    return tuple(table)


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


@dataclass(frozen=True)
class QuotientAlgebra:
    """The F_p-algebra O/pO of an order O. Elements are coordinate lists
    mod p on the order's basis, whose row 0 is the element 1.

    table[i][j] holds the coordinates of w_i * w_j, read mod p: Round 2 and
    split_prime pass the order's integer mult_table as it is, since mul
    reduces every product, and splitting.quotient_algebra stores it reduced.
    """

    p: int
    dim: int
    table: tuple

    def mul(self, a, b):
        p = self.p
        return [c % p for c in _multiply_in_order(self.table, a, b)]

    def one(self):
        return [1] + [0] * (self.dim - 1)


def frobenius_matrix(alg):
    """Rows of the F_p-linear map x -> x^p on the basis of a commutative
    F_p-algebra, by square-and-multiply on the exponent p. alg is any of the
    algebras here (QuotientAlgebra and the splitting route's quotient and
    component algebras); this uses only its p, dim and mul(a, b)."""
    p = alg.p
    rows = []
    for i in range(alg.dim):
        base = [1 if j == i else 0 for j in range(alg.dim)]
        result = None
        k = p
        while k:
            if k & 1:
                result = base if result is None else alg.mul(result, base)
            k >>= 1
            if k:
                base = alg.mul(base, base)
        rows.append(result)
    return rows


def dedekind_is_pmaximal(f, p):
    """Dedekind's criterion at p for the equation order of monic f.

    Returns (is_pmaximal, witness_generators) where each witness g means the
    element g(theta)/p lies in the p-enlarged order but not in Z[theta].
    """
    _require_field_poly(f)
    if not is_prime(p):
        raise InvalidPrimeError("Dedekind criterion needs a prime, got %r" % (p,))
    facs = modp.factor_mod_p(f, p)
    g_bar = (1,)
    for fac, _ in facs:
        g_bar = modp.mul(g_bar, modp.from_intpoly(fac, p), p)
    h_bar = modp.divmod_p(modp.from_intpoly(f, p), g_bar, p)[0]
    g_lift = IntPoly([c % p for c in g_bar])
    h_lift = IntPoly([c % p for c in h_bar])
    prod = g_lift * h_lift
    diff = prod - f
    t_coeffs = []
    for c in diff.coeffs:
        q, r = divmod(c, p)
        if r:  # pragma: no cover
            raise InternalConsistencyError("lifted product not congruent to f")
        t_coeffs.append(q)
    t_bar = modp.norm(t_coeffs, p)
    u_bar = modp.gcd_p(modp.gcd_p(t_bar, g_bar, p), h_bar, p)
    if modp.deg(u_bar) <= 0:
        return True, []
    enlarge = modp.divmod_p(modp.from_intpoly(f, p), u_bar, p)[0]
    witness = IntPoly([c % p for c in enlarge])
    return False, [witness]


def _require_field_poly(f):
    if not f.is_monic:
        raise NonMonicInputError("defining polynomial must be monic: %s" % (f,))
    if f.degree < 1:
        raise NonMonicInputError("defining polynomial must be nonconstant")


def _radical_kernel(alg):
    """Basis (mod p) of the nilradical of the algebra alg = O/pO, via
    iterated Frobenius: kernel of x -> x^(p^k) with p^k >= dim."""
    p, n = alg.p, alg.dim
    frob = frobenius_matrix(alg)
    power = frob
    k = 1
    while p ** k < n:
        power = [[sum(power[i][t] * frob[t][j] for t in range(n)) % p for j in range(n)] for i in range(n)]
        k += 1
    return left_kernel_mod_p(power, p)


def pmaximalize(f, p):
    """p-maximal order containing Z[x]/(f), by radical/multiplier enlargement.

    Independent of dedekind_is_pmaximal on purpose: the agreement of the two
    routes is a tested invariant, not an internal shortcut.
    """
    _require_field_poly(f)
    if not is_prime(p):
        raise InvalidPrimeError("pmaximalize needs a prime, got %r" % (p,))
    disc_f = discriminant(f)
    order = equation_order(f, disc_f)
    n = f.degree
    while True:
        table = mult_table(order)
        radical = _radical_kernel(QuotientAlgebra(p=p, dim=n, table=table))
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
        new_order = order_from_rows(f, power_rows, p * order.denom, disc_f)
        if new_order.basis_num == order.basis_num and new_order.denom == order.denom:
            return order
        order = new_order


def maximal_order(f):
    """The maximal order of Q[x]/(f) for monic irreducible f.

    Round-2 enlargement at every prime whose square divides disc(f), then a
    single lattice join. Degree 1 is accepted (the order is Z).
    """
    _require_field_poly(f)
    const, factors = factor_over_z(f)
    if len(factors) != 1 or factors[0][1] != 1:
        raise ReducibleInputError(
            "polynomial is reducible: %s" % (f,),
            factors=[g for g, _ in factors],
        )
    n = f.degree
    disc_f = discriminant(f)
    if n == 1:
        order = equation_order(f, disc_f)
        return MaximalOrder(order=order, index=1, disc_factored=PrimeFactorization(1, ()))
    disc_fact = factor_integer(disc_f)
    square_primes = [p for p, e in disc_fact.factors if e >= 2]
    locals_ = [pmaximalize(f, p) for p in square_primes]
    if not locals_:
        order = equation_order(f, disc_f)
        return MaximalOrder(order=order, index=1, disc_factored=disc_fact)
    common = 1
    for o in locals_:
        common = common * o.denom // gcd(common, o.denom)
    rows = []
    for o in locals_:
        scale = common // o.denom
        for row in o.basis_num:
            rows.append([c * scale for c in row])
    joined = order_from_rows(f, rows, common, disc_f)
    index = joined.index_in()
    exponents = []
    for p, e in disc_fact.factors:
        v = e
        idx = index
        while idx % p == 0:
            v -= 2
            idx //= p
        if v < 0:  # pragma: no cover
            raise InternalConsistencyError("index valuation exceeds disc valuation")
        if v:
            exponents.append((p, v))
    disc_factored = PrimeFactorization(disc_fact.sign, tuple(exponents))
    if disc_factored.value() != joined.disc:  # pragma: no cover
        raise InternalConsistencyError("factored disc does not match disc")
    # ring closure is exercised here; raises if the join is not a ring
    mult_table(joined)
    return MaximalOrder(order=joined, index=index, disc_factored=disc_factored)
