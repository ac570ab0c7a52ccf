"""Splitting of rational primes in the maximal order.

For each prime p this computes the multiset of pairs (e_i, f_i): the
ramification indices and residue degrees of the primes above p. When p does
not divide the index of the equation order the factorization shape of the
defining polynomial mod p already is the answer. Otherwise the artinian
algebra A = O/pO is decomposed directly: nilradical by iterated Frobenius,
semisimple quotient split into fields along its Frobenius-fixed subalgebra,
and lifted idempotents to measure each local dimension e_i * f_i.

Every algebra on this route is a QuotientAlgebra: A itself, the quotient
A/N by the nilradical and each component eps*B of an idempotent eps get
their own structure constants, built once from products in the parent.
"""

from typing import NamedTuple

from . import modp
from .arith import is_prime
from .errors import (
    InternalConsistencyError,
    InvalidPrimeError,
    OutOfDomainError,
    WildRamificationError,
)
from .linalg import left_kernel_mod_p, rref_mod_p
from .orders import QuotientAlgebra, _radical_kernel, frobenius_matrix, mult_table


class SplittingType(NamedTuple):
    """How p splits: pairs is the sorted tuple of (e_i, f_i)."""

    p: int
    pairs: tuple

    @property
    def g(self):
        return len(self.pairs)

    @property
    def residue_degree_sum(self):
        return sum(f for _, f in self.pairs)

    @property
    def is_ramified(self):
        return any(e > 1 for e, _ in self.pairs)

    @property
    def is_tame(self):
        return all(e % self.p != 0 for e, _ in self.pairs)

    @property
    def is_homogeneous(self):
        """All ramification indices equal (the splitting is e-split)."""
        return len({e for e, _ in self.pairs}) == 1

    @property
    def tame_disc_valuation(self):
        """v_p(disc) = sum (e_i - 1) f_i; only valid for tame p."""
        if not self.is_tame:
            raise WildRamificationError(
                "disc valuation formula needs tame ramification at %d" % self.p
            )
        return sum((e - 1) * f for e, f in self.pairs)


def _shape_from_modp_factors(p, factors):
    pairs = sorted((mult, modp_deg) for modp_deg, mult in factors)
    return SplittingType(p=p, pairs=tuple(pairs))


def _basis_vectors(n):
    return [[1 if j == i else 0 for j in range(n)] for i in range(n)]


def _reduce(v, rows, pivots, p):
    """Eliminate v against reduced echelon rows mod p: returns the
    coefficient taken at each pivot and the remainder."""
    v = [c % p for c in v]
    taken = []
    for row, j in zip(rows, pivots):
        c = v[j]
        taken.append(c)
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return taken, v


def _lift(reps, u, p):
    """sum u_i * reps_i: an element of a derived algebra, back in its parent."""
    v = [0] * len(reps[0])
    for c, rep in zip(u, reps):
        if c:
            v = [(a + c * b) % p for a, b in zip(v, rep)]
    return v


def _derived_algebra(alg, reps, coords, one):
    """An algebra derived from alg (the quotient A/N or a component eps*B)
    as a QuotientAlgebra with its own structure constants. reps represent
    its basis in alg, coords maps an element of alg to coordinates on that
    basis, and one is its unit in alg; the dim^2 products are made once."""
    table = tuple(tuple(tuple(coords(alg.mul(a, b))) for b in reps) for a in reps)
    return QuotientAlgebra(p=alg.p, dim=len(reps), table=table, unit=tuple(coords(one)))


def _min_poly_mod_p(alg, vec):
    """Minimal polynomial of vec in the algebra, by echelon insertion of its
    powers. Returns low-to-high coefficient tuple, monic."""
    p = alg.p
    echelon = {}
    power = alg.one()
    k = 0
    while True:
        v = list(power)
        combo = [0] * (k + 1)
        combo[k] = 1
        for j in sorted(echelon):
            c = v[j]
            if c:
                row, rcombo = echelon[j]
                for t in range(len(v)):
                    v[t] = (v[t] - c * row[t]) % p
                for t, rc in enumerate(rcombo):
                    combo[t] = (combo[t] - c * rc) % p
        pivot = next((j for j, c in enumerate(v) if c % p), None)
        if pivot is None:
            inv_lead = pow(combo[k], -1, p) if combo[k] != 1 else 1
            coeffs = [(c * inv_lead) % p for c in combo]
            return modp.norm(coeffs, p)
        inv = pow(v[pivot], -1, p)
        v = [(c * inv) % p for c in v]
        combo = [(c * inv) % p for c in combo] + [0]
        echelon[pivot] = (v, combo[: k + 1])
        k += 1
        if k > alg.dim:  # pragma: no cover
            raise InternalConsistencyError("minimal polynomial exceeded dimension")
        power = alg.mul(power, vec)


def _split_semisimple(alg):
    """Field components of a semisimple commutative F_p-algebra.

    Returns a list of (idempotent, f) with idempotent in algebra coordinates
    and f the component's degree over F_p. Splits along eigenvalues of
    Frobenius-fixed elements; every non-scalar fixed element has at least two
    eigenvalues, so recursion always makes progress.
    """
    p = alg.p
    frob = frobenius_matrix(alg)
    fixed = [[(c - (1 if j == i else 0)) % p for j, c in enumerate(row)] for i, row in enumerate(frob)]
    kernel = left_kernel_mod_p(fixed, p)
    g = len(kernel)
    if g == 0:  # pragma: no cover
        raise InternalConsistencyError("semisimple algebra with no fixed points")
    one = alg.one()
    if g == 1:
        return [(one, alg.dim)]
    # scalar multiples of 1 do not separate components; v is one of them
    # exactly when (v, 1) has rank 1
    splitter = next((v for v in kernel if len(rref_mod_p([v, one], p)[0]) == 2), None)
    if splitter is None:  # pragma: no cover
        raise InternalConsistencyError("fixed space of dimension >1 is all scalars")
    mp = _min_poly_mod_p(alg, splitter)
    roots = [
        (modp.from_intpoly(fac, p), mult)
        for fac, mult in modp.factor_mod_p(modp.to_intpoly(mp), p)
    ]
    components = []
    for root_factor, mult in roots:
        if mult != 1 or modp.deg(root_factor) != 1:  # pragma: no cover
            raise InternalConsistencyError("fixed element minimal polynomial not split")
        a = (-root_factor[0]) % p
        # idempotent of the eigen-block: prod over other roots of (v-b)/(a-b)
        eps = one
        for other, _ in roots:
            b = (-other[0]) % p
            if b == a:
                continue
            shift = [(c - b * o) % p for c, o in zip(splitter, one)]
            inv = pow((a - b) % p, -1, p)
            shift = [(c * inv) % p for c in shift]
            eps = alg.mul(eps, shift)
        components.append(eps)
    result = []
    for eps in components:
        # eps*B with unit eps, on the echelon rows of eps*B
        rows, pivots = rref_mod_p([alg.mul(eps, e) for e in _basis_vectors(alg.dim)], p)

        def coords(v):
            taken, rest = _reduce(v, rows, pivots, p)
            if any(rest):  # pragma: no cover
                raise InternalConsistencyError("product left the idempotent component")
            return taken

        for sub_eps, f in _split_semisimple(_derived_algebra(alg, rows, coords, eps)):
            result.append((_lift(rows, sub_eps, p), f))
    return result


def _lift_idempotent(alg, e0):
    """Hensel-lift an idempotent of A/N back to A = alg: e <- 3e^2 - 2e^3."""
    p = alg.p
    e = e0
    for _ in range(2 * alg.dim + 4):
        e2 = alg.mul(e, e)
        if e2 == e:
            return e
        e3 = alg.mul(e2, e)
        e = [(3 * a - 2 * b) % p for a, b in zip(e2, e3)]
    raise InternalConsistencyError("idempotent lift did not stabilize")  # pragma: no cover


def split_prime(max_order, p, method="auto"):
    """SplittingType of p in the given MaximalOrder.

    method selects the route: "auto" uses the mod-p factorization shape of
    the defining polynomial whenever p does not divide the index and falls
    back to the quotient-algebra decomposition otherwise; "polynomial" and
    "algebra" force one route (the former is only valid when p is prime to
    the index).
    """
    if not is_prime(p):
        raise InvalidPrimeError("split_prime needs a prime, got %r" % (p,))
    if method not in ("auto", "polynomial", "algebra"):
        raise ValueError("unknown method %r" % (method,))
    f = max_order.poly
    n = max_order.degree
    if n == 1:
        return SplittingType(p=p, pairs=((1, 1),))
    if method == "polynomial" and max_order.index % p == 0:
        raise OutOfDomainError(
            "mod-%d polynomial shape is unreliable: %d divides the index" % (p, p)
        )
    if method != "algebra" and max_order.index % p != 0:
        return _shape_from_modp_factors(p, modp.factor_degrees(f, p))
    alg = QuotientAlgebra(p=p, dim=n, table=mult_table(max_order.order))
    # A/N on the unit vectors off the pivots of the nilradical's echelon basis
    rad, pivots = rref_mod_p([list(r) for r in _radical_kernel(alg)], p)
    free = [j for j in range(n) if j not in pivots]
    basis = _basis_vectors(n)
    reps = [basis[j] for j in free]

    def coords(v):
        rest = _reduce(v, rad, pivots, p)[1]
        return [rest[j] for j in free]

    semisimple = _derived_algebra(alg, reps, coords, alg.one())
    components = _split_semisimple(semisimple)
    if sum(fdeg for _, fdeg in components) != semisimple.dim:  # pragma: no cover
        raise InternalConsistencyError("component degrees do not sum to quotient dim")
    pairs = []
    total = 0
    for eps, fdeg in components:
        lifted = _lift_idempotent(alg, _lift(reps, eps, p))
        rank = len(rref_mod_p([alg.mul(lifted, e) for e in basis], p)[0])
        e_i, rem = divmod(rank, fdeg)
        if rem:  # pragma: no cover
            raise InternalConsistencyError("local dimension not divisible by f")
        pairs.append((e_i, fdeg))
        total += rank
    if total != n:  # pragma: no cover
        raise InternalConsistencyError("local dimensions do not sum to the degree")
    return SplittingType(p=p, pairs=tuple(sorted(pairs)))
