"""Trace form of the maximal order and the square-class invariants of its
ramified primes.

The Gram matrix of (x, y) -> Tr(xy) on an integral basis has determinant
equal to the field discriminant and signature (r+s, s) where (r, s) counts
real and conjugate complex embeddings; one elimination of it gives both, so
(r, s) is read from the form. At each odd tamely ramified prime the
splitting data compresses into a square class

    alpha_p = prod e_i^(f_i) * u^(F - g)   (u the least nonresidue mod p)

whose Legendre symbol is what the spinor-genus comparison consumes.
"""

from typing import NamedTuple

from .arith import legendre, smallest_nonresidue
from .errors import (
    InternalConsistencyError,
    InvalidPrimeError,
    WildRamificationError,
)
from .linalg import signature_of_symmetric
from .orders import maximal_order, order_from_rows
from .polys import IntPoly
from .splitting import split_prime


def power_sums(f, upto):
    """Traces of powers: s_k = Tr(theta^k) for k = 0..upto, by Newton's
    identities. All integers for monic integral f."""
    n = f.degree
    coeffs = f.coeffs  # low to high, coeffs[n] == 1
    s = [n]
    for k in range(1, upto + 1):
        if k <= n:
            acc = -k * coeffs[n - k]
            for i in range(1, k):
                acc -= coeffs[n - i] * s[k - i]
        else:
            acc = 0
            for i in range(1, n + 1):
                acc -= coeffs[n - i] * s[k - i]
        s.append(acc)
    return s


def gram_matrix(order):
    """Gram matrix Tr(w_i w_j) of the order's basis; integer entries.

    With B = basis_num, d = denom and the Hankel matrix H[a][b] = s_(a+b) =
    Tr(theta^(a+b)) of power sums, the Gram matrix is B H B^T / d^2; no
    product is reduced mod f.
    """
    n = order.degree
    d2 = order.denom ** 2
    sums = power_sums(order.poly, 2 * n - 2)
    basis = order.basis_num
    # rows of B H
    bh = [[sum(c * sums[a + b] for a, c in enumerate(row) if c) for b in range(n)] for row in basis]
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            q, r = divmod(sum(x * y for x, y in zip(bh[i], basis[j])), d2)
            if r:
                raise InternalConsistencyError(
                    "trace pairing of basis elements is not integral"
                )
            gram[i][j] = gram[j][i] = q
    return tuple(tuple(row) for row in gram)


class TraceForm(NamedTuple):
    gram: tuple
    det: int
    signature: tuple  # (positive, negative), no zero eigenvalues

    @classmethod
    def of_order(cls, order):
        gram = gram_matrix(order)
        signature, det = signature_of_symmetric(gram)
        return cls(gram=gram, det=det, signature=signature)


class AlphaClass(NamedTuple):
    """A unit square class mod an odd prime, as carried by the alpha
    invariant or by the discriminant-valuation formula."""

    p: int
    representative: int  # an exact integer representative of the class
    nonresidue: int
    legendre: int  # +1 or -1

    @property
    def unit_rep(self):
        """Canonical class representative: 1 for squares, else the least
        nonresidue."""
        return 1 if self.legendre == 1 else self.nonresidue

    def __str__(self):
        return "class of %d mod %d (legendre %+d)" % (self.representative, self.p, self.legendre)


def alpha_invariant(splitting):
    """AlphaClass of an odd prime's splitting; needs p odd and tame."""
    p = splitting.p
    if p == 2:
        raise InvalidPrimeError("alpha invariant is defined at odd primes only")
    if not splitting.is_tame:
        raise WildRamificationError(
            "alpha invariant needs tame ramification at %d" % p
        )
    u = smallest_nonresidue(p)
    rep = u ** (splitting.residue_degree_sum - splitting.g)
    for e, f in splitting.pairs:
        rep *= e ** f
    # tameness and u < p keep p out of rep, so one symbol gives the class
    sym = legendre(rep, p)
    if sym == 0:  # pragma: no cover
        raise InternalConsistencyError("alpha class is not a unit square class")
    return AlphaClass(p=p, representative=rep, nonresidue=u, legendre=sym)


class GammaTest(NamedTuple):
    """The three per-prime conditions at an odd ramified prime."""

    p: int
    homogeneous: bool  # all ramification indices equal
    g_odd: bool  # odd number of primes above p
    quotient_odd: bool  # n/e odd for the common index e; False if no common e

    @property
    def passes(self):
        return self.homogeneous and self.g_odd and self.quotient_odd


def gamma_test(n, splitting):
    homogeneous = splitting.is_homogeneous
    quotient_odd = False
    if homogeneous:
        e = splitting.pairs[0][0]
        q, rem = divmod(n, e)
        if rem:  # pragma: no cover
            raise InternalConsistencyError("common ramification index does not divide n")
        quotient_odd = q % 2 == 1
    return GammaTest(
        p=splitting.p,
        homogeneous=homogeneous,
        g_odd=splitting.g % 2 == 1,
        quotient_odd=quotient_odd,
    )


class GammaClassification(NamedTuple):
    is_tame: bool  # every ramified prime (2 included) is tame
    is_gamma: bool
    exceptional: int | None  # the single failing odd prime, if any
    failing: tuple  # all odd ramified primes whose test fails
    tests: tuple  # GammaTest per odd ramified prime, ascending p


def classify_gamma(n, splittings):
    """Classification from the splitting types of all ramified primes."""
    tame = all(s.is_tame for s in splittings)
    tests = tuple(
        gamma_test(n, s)
        for s in sorted(splittings, key=lambda s: s.p)
        if s.p != 2 and s.is_ramified
    )
    failing = tuple(t.p for t in tests if not t.passes)
    is_gamma = tame and len(failing) <= 1
    exceptional = failing[0] if (is_gamma and len(failing) == 1) else None
    return GammaClassification(
        is_tame=tame,
        is_gamma=is_gamma,
        exceptional=exceptional,
        failing=failing,
        tests=tests,
    )


class FieldAnalysis(NamedTuple):
    """Everything the comparators and reports consume, for one field."""

    poly: IntPoly
    degree: int
    signature: tuple  # (r, s)
    disc: int
    disc_factored: tuple  # ((p, e), ...) of |disc|; sign kept in disc
    index: int
    max_order: object  # MaximalOrder
    splittings: tuple  # SplittingType per ramified prime, ascending p
    alphas: tuple  # AlphaClass per odd tame ramified prime, ascending p
    gamma: GammaClassification
    trace_form: TraceForm

    def alpha_at(self, p):
        for a in self.alphas:
            if a.p == p:
                return a
        return None


def field_analysis(max_order, splittings):
    """The FieldAnalysis of a maximal order and its splitting types at the
    disc primes, computed or decoded. The trace form, disc, signature, index,
    degree, alphas and gamma are derived here; one elimination of the form
    gives disc as its determinant and (r, s) = (pos - neg, neg) from its
    inertia (pos, neg) = (r + s, s). Raises InternalConsistencyError if the
    parts contradict each other, or if the basis is not the canonical HNF
    that order_from_rows makes of it; a disc factor is proven prime only
    where an alpha class needs it.
    """
    mo = max_order
    order = mo.order
    if order.denom < 1 or order_from_rows(order.poly, order.basis_num, order.denom) != order:
        raise InternalConsistencyError("basis is not in canonical form")
    n = mo.degree
    trace_form = TraceForm.of_order(order)
    pos, neg = trace_form.signature
    disc = trace_form.det
    factored = mo.disc_factored
    last = 1
    for p, e in factored.factors:
        # p >= 2 divides disc at most bit_length times; this also keeps an
        # edited exponent from making p**e huge
        if p <= last or not 0 < e <= abs(disc).bit_length():
            raise InternalConsistencyError("disc factors do not ascend as prime powers")
        last = p
    if factored.sign not in (1, -1) or factored.value() != disc:
        raise InternalConsistencyError("factored disc does not match the Gram determinant")
    if [st.p for st in splittings] != factored.primes():
        raise InternalConsistencyError("splittings are not at the disc primes")
    for st in splittings:
        if sum(e * f for e, f in st.pairs) != n:
            raise InternalConsistencyError("splitting at %d does not have degree %d" % (st.p, n))
        if st.is_tame and st.tame_disc_valuation != factored.valuation(st.p):
            raise InternalConsistencyError(
                "tame valuation formula disagrees with factored disc at %d" % st.p
            )
    return FieldAnalysis(
        poly=mo.poly,
        degree=n,
        signature=(pos - neg, neg),
        disc=disc,
        disc_factored=factored.factors,
        index=mo.index,
        max_order=mo,
        splittings=splittings,
        alphas=tuple(
            alpha_invariant(st)
            for st in splittings
            if st.p != 2 and st.is_tame and st.is_ramified
        ),
        gamma=classify_gamma(n, splittings),
        trace_form=trace_form,
    )


def analyze_field(f):
    """Full analysis of the field defined by monic irreducible f.

    Raises NonMonicInputError / ReducibleInputError on bad input, and
    InternalConsistencyError if a cross-check of field_analysis fails.
    """
    mo = maximal_order(f)
    splittings = tuple(split_prime(mo, p) for p in mo.disc_factored.primes())
    return field_analysis(mo, splittings)
