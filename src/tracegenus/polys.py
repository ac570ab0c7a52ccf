"""Exact univariate polynomials over Z.

Coefficients are arbitrary-precision ints, stored lowest degree first. The
zero polynomial has an empty coefficient tuple and degree -1. Everything here
is pure and deterministic. gcd, discriminant and Sturm count read one
subresultant PRS (_subresultant_prs), whose intermediate coefficients stay
polynomially bounded, rather than a determinant expansion or separate
remainder loops. IntPoly.divmod is the one exact division, by a monic
divisor, and product the one schoolbook product, which modp shares; the
PRS takes general input through pseudo_rem, as f' is not monic. IntPoly
arithmetic takes IntPoly operands only.
"""

import re
from math import gcd

from .errors import (
    DegenerateInputError,
    InternalConsistencyError,
    NonMonicInputError,
    OutOfDomainError,
    ParseError,
)

# the largest degree parse_poly reads; it bounds the dense coefficient list
# built from the text, not the run time of an analysis
MAX_DEGREE = 10_000


class IntPoly:
    """Immutable integer polynomial, coefficients low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("IntPoly coefficients must be ints, got %r" % (c,))
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("IntPoly", self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return IntPoly(product(self.coeffs, other.coeffs))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, b):
        """(q, r) with self = q*b + r and deg r < deg b, for a monic b, so
        q and r are integral. Raises OutOfDomainError for any other b."""
        if not b.is_monic:
            raise OutOfDomainError("polynomial division needs a monic divisor: %s" % (b,))
        db = b.degree
        rem = list(self.coeffs)
        if len(rem) - 1 < db:
            return IntPoly(), self
        quot = [0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                quot[i - db] = c
                for j, bc in enumerate(b.coeffs):
                    rem[i - db + j] -= c * bc
        return IntPoly(quot), IntPoly(rem[:db])

    def content(self):
        c = 0
        for a in self.coeffs:
            c = gcd(c, a)
        return c

    def primitive(self):
        """(content-with-sign, primitive part with positive leading coeff)."""
        if self.is_zero:
            return 0, self
        c = self.content()
        if self.lc < 0:
            c = -c
        return c, IntPoly([a // c for a in self.coeffs])

    def __repr__(self):
        return "IntPoly(%r)" % (list(self.coeffs),)

    def __str__(self):
        return poly_to_string(self)


def product(a, b):
    """Schoolbook product of coefficient sequences a and b (low degree
    first) as an unreduced list, [] when either is zero. IntPoly's product
    and modp.mul both take it."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


# ---------------------------------------------------------------------------
# parsing and printing

_TERM_RE = re.compile(r"^([+-])([0-9]*)(?:x(?:\^([0-9]+))?)?$")
_COEFF_RE = re.compile(r"^[+-]?[0-9]+$")


def parse_poly(text):
    """Parse either grammar: 'c0,c1,...,cn' or symbolic like 'x^4 - 41*x^2 + 144'.

    Integer coefficients in ASCII digits only, no number split by whitespace
    or '*', and degree at most MAX_DEGREE; raises ParseError otherwise, also
    for a number longer than int() reads (sys.get_int_max_str_digits).
    """
    if not isinstance(text, str):
        raise ParseError("polynomial input must be a string")
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial input")
    if "," in s:
        parts = [p.strip() for p in s.split(",")]
        if not all(_COEFF_RE.match(p) for p in parts):
            raise ParseError("bad coefficient list: %r" % (text,))
        if len(parts) > MAX_DEGREE + 1:
            raise ParseError("degree %d is above the limit %d" % (len(parts) - 1, MAX_DEGREE))
        poly = IntPoly([_read_int(p) for p in parts])
        if poly.is_zero:
            raise ParseError("zero polynomial: %r" % (text,))
        return poly
    if re.search(r"[0-9][\s*]+[0-9]", s):
        raise ParseError("whitespace or '*' inside a number in %r" % (text,))
    compact = s.replace(" ", "").replace("\t", "").replace("*", "").lower()
    if not compact:
        raise ParseError("empty polynomial input")
    if compact[0] not in "+-":
        compact = "+" + compact
    terms = re.findall(r"[+-][^+-]*", compact)
    if "".join(terms) != compact:
        raise ParseError("cannot tokenize %r" % (text,))
    coeffs = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError("bad term %r in %r" % (term, text))
        sign, digits, exp = m.groups()
        has_x = "x" in term
        if not has_x and not digits:
            raise ParseError("bad term %r in %r" % (term, text))
        coef = _read_int(digits) if digits else 1
        if sign == "-":
            coef = -coef
        e = _read_int(exp) if exp else (1 if has_x else 0)
        if e > MAX_DEGREE:
            raise ParseError("degree %d is above the limit %d" % (e, MAX_DEGREE))
        coeffs[e] = coeffs.get(e, 0) + coef
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    poly = IntPoly(out)
    if poly.is_zero:
        raise ParseError("zero polynomial: %r" % (text,))
    return poly


def _read_int(digits):
    try:
        return int(digits)
    except ValueError:  # more digits than int() reads
        raise ParseError("a number of %d digits is too long to read" % len(digits)) from None


def poly_to_string(f):
    """Symbolic form, highest degree first, matching the input grammar."""
    if f.is_zero:
        return "0"
    parts = []
    for e in range(f.degree, -1, -1):
        c = f.coeffs[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        a = abs(c)
        if e == 0:
            body = str(a)
        elif e == 1:
            body = "x" if a == 1 else "%d*x" % a
        else:
            body = "x^%d" % e if a == 1 else "%d*x^%d" % (a, e)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += " %s %s" % (sign, body)
    return out


def coeff_csv(f):
    """Canonical 'c0,c1,...,cn' form used for hashing and cache keys."""
    return ",".join(str(c) for c in f.coeffs)


# ---------------------------------------------------------------------------
# gcd / discriminant over Z

def pseudo_rem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a modulo b, over Z.

    b is f' or a member of its PRS, not monic in general, so this is its
    own loop rather than IntPoly.divmod; scaling the remainder one step at
    a time keeps its entries smaller than scaling a up front."""
    da, db = a.degree, b.degree
    if db < 0:
        raise ZeroDivisionError("pseudo_rem by zero")
    if da < db:
        return a
    rem = list(a.coeffs)
    lcb = b.lc
    for i in range(da, db - 1, -1):
        c = rem[i]
        for j in range(len(rem)):
            rem[j] *= lcb
        if c:
            for j, bc in enumerate(b.coeffs):
                rem[i - db + j] -= c * bc
        # rem[i] is now exactly zero
    return IntPoly(rem[:db])


def _subresultant_prs(a, b):
    """The subresultant PRS of a and b, deg a >= deg b >= 0: (members, signs, h).

    members runs a, b, ..., with a_(i+1) = prem(a_(i-1), a_i) / beta_i and
    beta_i = g * h^d_i, d_i = deg a_(i-1) - deg a_i, and stops at the last
    nonzero member; h is the final subresultant scale. signs[i] * members[i]
    is a positive multiple of the i-th member of the signed remainder
    sequence a, b, -rem(a, b), ...: as prem = lc(b)^(d+1) * (a mod b),
    sigma_(i+1) = -sigma_(i-1) * sign(lc a_i)^(d_i+1) * sign(beta_i).
    """
    members = [a, b]
    signs = [1, 1]
    g = h = 1
    while b.degree > 0:
        d = a.degree - b.degree
        r = pseudo_rem(a, b)
        if r.is_zero:
            break
        beta = g * h ** d
        sign = -signs[-2]
        if b.lc < 0 and d % 2 == 0:
            sign = -sign
        if beta < 0:
            sign = -sign
        a, b = b, IntPoly([c // beta for c in r.coeffs])
        members.append(b)
        signs.append(sign)
        g = a.lc
        if d:
            h = g ** d // h ** (d - 1)
    return members, signs, h


def poly_gcd(a, b):
    """gcd in Z[x], primitive with positive leading coefficient, times the
    gcd of the contents."""
    if a.degree < b.degree:
        a, b = b, a
    ca, pa = a.primitive()
    if b.is_zero:
        return IntPoly([abs(ca) * c for c in pa.coeffs])
    cb, pb = b.primitive()
    cont = gcd(ca, cb)
    last = _subresultant_prs(pa, pb)[0][-1]
    return IntPoly([cont * c for c in last.primitive()[1].coeffs])


def discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') for monic f of degree n >= 1.

    With f' = c*g, g primitive, Res(f, f') = c^n Res(f, g), read from the
    subresultant PRS of f and g. Raises DegenerateInputError for a
    constant and NonMonicInputError for any other non-monic f.
    """
    n = f.degree
    if n < 1:
        raise DegenerateInputError("discriminant of a constant polynomial")
    if not f.is_monic:
        raise NonMonicInputError("discriminant needs a monic polynomial: %s" % (f,))
    c, g = f.derivative().primitive()
    members, _, h = _subresultant_prs(f, g)
    last = members[-1]
    if last.degree > 0:  # f and f' share a factor
        return 0
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    for u, v in zip(members, members[1:]):
        if u.degree % 2 == 1 and v.degree % 2 == 1:
            sign = -sign
    k = members[-2].degree
    return sign * c ** n * (last.lc ** k // h ** (k - 1))


def exact_quotient(a, b):
    """a / b in Z[x] for a monic b. Raises InternalConsistencyError unless b
    divides a, and OutOfDomainError (from IntPoly.divmod) for a non-monic b."""
    q, r = a.divmod(b)
    if not r.is_zero:
        raise InternalConsistencyError("polynomial division is not exact")
    return q


def sturm_count_real_roots(f):
    """Number of distinct real roots of a squarefree f, by Sturm's theorem."""
    if f.degree < 1:
        raise DegenerateInputError("Sturm count of a constant polynomial")
    # f and f' have contents of one sign, so their primitive parts give the
    # same sign variations
    members, signs, _ = _subresultant_prs(f.primitive()[1], f.derivative().primitive()[1])
    if members[-1].degree > 0:
        # the chain stopped at gcd(f, f') of positive degree
        raise OutOfDomainError("Sturm count requires a squarefree polynomial")
    at_pos = [s if v.lc > 0 else -s for s, v in zip(signs, members)]
    at_neg = [s if v.degree % 2 == 0 else -s for s, v in zip(at_pos, members)]

    def variations(signs):
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return variations(at_neg) - variations(at_pos)
