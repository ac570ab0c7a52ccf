"""Splitting of rational primes in the maximal order.

For each prime p this computes the multiset of pairs (e_i, f_i): the
ramification indices and residue degrees of the primes above p. When p does
not divide the index of the equation order the factorization shape of the
defining polynomial mod p already is the answer. Otherwise the artinian
algebra A = O/pO is read through its Frobenius matrix, once: the fixed
space ker(phi - 1) is the subalgebra F_p^g spanned by the primitive
idempotents eps_i (Berlekamp's subalgebra, Cohen, GTM 138, 3.4 and 6.2), and
the nilradical N is the kernel of a power of phi. Then e_i * f_i is the rank
of eps_i * A and f_i = rank(eps_i * A) - rank(eps_i * N). A is the order's
integer mult_table read mod p; no quotient or component gets structure
constants.
"""

from typing import NamedTuple

from . import modp
from .arith import is_prime
from .errors import InternalConsistencyError, InvalidPrimeError, WildRamificationError
from .linalg import left_kernel_mod_p, rref_mod_p
from .orders import _mul_mod_p, _radical_kernel, frobenius_matrix, mult_table
from .polys import IntPoly


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


def _primitive_idempotents(table, p, fixed):
    """Primitive idempotents of O/pO, for the order with structure constants
    table, from a basis of its Frobenius-fixed subalgebra, which is F_p^g:
    1 is refined by the eigen-idempotents of each basis vector until there
    are g of them. A fixed element v has degree at most g, so the first
    left-kernel vector over the powers 1, v, ..., v^g is its monic minimal
    polynomial (the rref's first free column is the least dependent power).
    That polynomial is a product of distinct linear factors, and the
    eigen-idempotent of its root a is the Lagrange product over the other
    roots b of (v - b)/(a - b)."""
    g = len(fixed)
    one = [1] + [0] * (len(table) - 1)
    idempotents = [one]
    for v in fixed:
        if len(idempotents) == g:
            break
        powers = [one]
        for _ in range(g):
            powers.append(_mul_mod_p(table, powers[-1], v, p))
        min_poly = left_kernel_mod_p(powers, p)[0]
        roots = []
        for fac, mult in modp.factor_mod_p(IntPoly(min_poly), p):
            if mult != 1 or fac.degree != 1:  # pragma: no cover
                raise InternalConsistencyError("fixed element minimal polynomial not split")
            roots.append(-fac.coeffs[0] % p)
        refined = []
        for a in roots:
            eig = one
            for b in roots:
                if b != a:
                    inv = pow(a - b, -1, p)
                    factor = [(c - b * o) * inv % p for c, o in zip(v, one)]
                    eig = _mul_mod_p(table, eig, factor, p)
            refined.extend(q for q in (_mul_mod_p(table, eps, eig, p) for eps in idempotents) if any(q))
        idempotents = refined
    if len(idempotents) != g:  # pragma: no cover
        raise InternalConsistencyError("fixed subalgebra did not split into g idempotents")
    return idempotents


def _rank(rows, p):
    return len(rref_mod_p(rows, p)[0])


def split_prime(max_order, p):
    """SplittingType of p in the given MaximalOrder: the mod-p factorization
    shape of the defining polynomial when p does not divide the index, the
    quotient-algebra decomposition (algebra_splitting) otherwise."""
    if not is_prime(p):
        raise InvalidPrimeError("split_prime needs a prime, got %r" % (p,))
    if max_order.index % p:
        return _shape_from_modp_factors(p, modp.factor_degrees(max_order.poly, p))
    return algebra_splitting(max_order, p)


def algebra_splitting(max_order, p):
    """SplittingType of the prime p read from A = O/pO alone, valid at every
    p; split_prime takes it where p divides the index, and tests compare it
    with the mod-p shape elsewhere."""
    n = max_order.degree
    table = mult_table(max_order.order)
    frob = frobenius_matrix(table, p)
    fixed = left_kernel_mod_p(
        [[(c - (i == j)) % p for j, c in enumerate(row)] for i, row in enumerate(frob)], p
    )
    radical = _radical_kernel(frob, p)
    basis = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    pairs = []
    total = 0
    for eps in _primitive_idempotents(table, p, fixed):
        # eps*A is the local factor, of dimension e*f; eps*A / eps*N is its
        # residue field, of dimension f
        local = _rank([_mul_mod_p(table, eps, w, p) for w in basis], p)
        fdeg = local - _rank([_mul_mod_p(table, eps, r, p) for r in radical], p)
        e_i, rem = divmod(local, fdeg)
        if rem:  # pragma: no cover
            raise InternalConsistencyError("local dimension not divisible by f")
        pairs.append((e_i, fdeg))
        total += local
    if total != n:  # pragma: no cover
        raise InternalConsistencyError("local dimensions do not sum to the degree")
    return SplittingType(p=p, pairs=tuple(sorted(pairs)))
