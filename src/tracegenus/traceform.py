"""Trace form of the maximal order and the square-class invariants of its
ramified primes.

The Gram matrix of (x, y) -> Tr(xy) on an integral basis has determinant
equal to the field discriminant and signature (r+s, s) where (r, s) counts
real and conjugate complex embeddings. At each odd tamely ramified prime the
splitting data compresses into a square class

    alpha_p = prod e_i^(f_i) * u^(F - g)   (u the least nonresidue mod p)

whose Legendre symbol is what the spinor-genus comparison consumes.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arith import legendre, smallest_nonresidue
from .errors import (
    InternalConsistencyError,
    InvalidPrimeError,
    OutOfDomainError,
    WildRamificationError,
)
from .linalg import det_bareiss, signature_of_symmetric
from .orders import maximal_order
from .polys import IntPoly, sturm_count_real_roots
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


def trace_of_poly(g, sums):
    """Tr(g(theta)) given the power sums; g must be reduced mod f."""
    return sum(c * sums[k] for k, c in enumerate(g.coeffs))


def gram_matrix(order):
    """Gram matrix Tr(w_i w_j) of the order's basis; integer entries.

    Accepts an Order or a MaximalOrder.
    """
    order = getattr(order, "order", order)
    n = order.degree
    d = order.denom
    sums = power_sums(order.poly, max(n - 1, 0))
    polys = order.basis_polys()
    d2 = d * d
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = (polys[i] * polys[j]).mod_monic(order.poly)
            t = trace_of_poly(prod, sums)
            q, r = divmod(t, d2)
            if r:
                raise InternalConsistencyError(
                    "trace pairing of basis elements is not integral"
                )
            gram[i][j] = gram[j][i] = q
    return tuple(tuple(row) for row in gram)


@dataclass(frozen=True)
class TraceForm:
    gram: tuple
    det: int
    signature: tuple  # (positive, negative), no zero eigenvalues

    @classmethod
    def of_order(cls, order):
        gram = gram_matrix(order)
        det = det_bareiss([list(r) for r in gram])
        return cls(gram=gram, det=det, signature=form_signature(gram))


def form_signature(gram):
    """(positive, negative) inertia counts of a nonsingular symmetric integer
    matrix, by exact congruence diagonalization."""
    return signature_of_symmetric([list(r) for r in gram])


def field_signature(f):
    """(r, s): real embeddings and conjugate pairs, by Sturm's theorem."""
    r = sturm_count_real_roots(f)
    s, rem = divmod(f.degree - r, 2)
    if rem:  # pragma: no cover
        raise InternalConsistencyError("degree minus real roots is odd")
    return r, s


@dataclass(frozen=True)
class AlphaClass:
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


def disc_square_class(n, disc_valuation, p):
    """Square class of n/(n - v) mod p as an AlphaClass, for 0 < v < n.

    The quotient is reduced first; if p still divides numerator or
    denominator the class is not a p-adic unit and OutOfDomainError is
    raised, as it is for v outside (0, n).
    """
    if p == 2:
        raise InvalidPrimeError("square classes are tracked at odd primes only")
    if not 0 < disc_valuation < n:
        raise OutOfDomainError(
            "disc valuation %d outside (0, %d)" % (disc_valuation, n)
        )
    q = Fraction(n, n - disc_valuation)
    if q.numerator % p == 0 or q.denominator % p == 0:
        raise OutOfDomainError("square class of %s is not a unit at %d" % (q, p))
    rep = q.numerator * q.denominator
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
    if not analysis.gamma.is_gamma:
        raise OutOfDomainError("field is not in the gamma class")
    if p == 2 or p == analysis.gamma.exceptional:
        raise OutOfDomainError("prime %d is outside the formula's scope" % p)
    alpha = analysis.alpha_at(p)
    if alpha is None:
        raise OutOfDomainError("no alpha invariant at %d (unramified or wild)" % p)
    v = dict(analysis.disc_factored).get(p, 0)
    return alpha_matches_disc_formula(analysis.degree, v, alpha)


@dataclass(frozen=True)
class GammaTest:
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


@dataclass(frozen=True)
class GammaClassification:
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


@dataclass(frozen=True)
class FieldAnalysis:
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

    def splitting_at(self, p):
        for s in self.splittings:
            if s.p == p:
                return s
        return None

    def alpha_at(self, p):
        for a in self.alphas:
            if a.p == p:
                return a
        return None


def analyze_field(f):
    """Full analysis of the field defined by monic irreducible f.

    Raises NonMonicInputError / ReducibleInputError on bad input, and
    InternalConsistencyError if any of the cross-checks between independent
    computations (trace form vs discriminant, signature vs disc sign, tame
    valuations vs factored disc) fails.
    """
    mo = maximal_order(f)
    n = mo.degree
    r, s = field_signature(f)
    disc = mo.disc
    sign = -1 if disc < 0 else 1
    if sign != (1 if s % 2 == 0 else -1):
        raise InternalConsistencyError("disc sign contradicts signature")
    splittings = tuple(
        split_prime(mo, p) for p in sorted(mo.disc_factored.primes())
    )
    for st in splittings:
        if st.is_tame and st.tame_disc_valuation != mo.disc_factored.valuation(st.p):
            raise InternalConsistencyError(
                "tame valuation formula disagrees with factored disc at %d" % st.p
            )
    alphas = tuple(
        alpha_invariant(st)
        for st in splittings
        if st.p != 2 and st.is_tame and st.is_ramified
    )
    gamma = classify_gamma(n, splittings)
    tf = TraceForm.of_order(mo.order)
    if tf.det != disc:
        raise InternalConsistencyError("trace form determinant is not the discriminant")
    if tf.signature != (r + s, s):
        raise InternalConsistencyError("trace form signature contradicts embeddings")
    return FieldAnalysis(
        poly=f,
        degree=n,
        signature=(r, s),
        disc=disc,
        disc_factored=mo.disc_factored.factors,
        index=mo.index,
        max_order=mo,
        splittings=splittings,
        alphas=alphas,
        gamma=gamma,
        trace_form=tf,
    )
