"""Exact univariate polynomials over Z and Q.

Coefficients are arbitrary-precision ints (or Fractions in the helpers that
need them), stored lowest degree first. The zero polynomial has an empty
coefficient tuple and degree -1. Everything here is pure and deterministic;
resultants use the subresultant PRS rather than any determinant expansion so
intermediate coefficients stay polynomially bounded.
"""

import re
from fractions import Fraction
from math import gcd

from .errors import (
    DegenerateInputError,
    InternalConsistencyError,
    OutOfDomainError,
    ParseError,
)


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

    def __reduce__(self):
        return (IntPoly, (self.coeffs,))

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
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod_monic(self, g):
        """Exact (quotient, remainder) over Z for monic g."""
        if not g.is_monic:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        dg = g.degree
        if len(rem) - 1 < dg:
            return IntPoly(), self
        quot = [0] * (len(rem) - dg)
        for i in range(len(rem) - 1, dg - 1, -1):
            c = rem[i]
            if c:
                quot[i - dg] = c
                for j, gc in enumerate(g.coeffs):
                    rem[i - dg + j] -= c * gc
        return IntPoly(quot), IntPoly(rem[:dg])

    def mod_monic(self, g):
        return self.divmod_monic(g)[1]

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


def _coerce(v):
    if isinstance(v, IntPoly):
        return v
    if isinstance(v, int):
        return IntPoly([v])
    raise TypeError("cannot coerce %r to IntPoly" % (v,))


X = IntPoly([0, 1])


# ---------------------------------------------------------------------------
# parsing and printing

_TERM_RE = re.compile(r"^([+-])(\d*)(?:x(?:\^(\d+))?)?$")


def parse_poly(text):
    """Parse either grammar: 'c0,c1,...,cn' or symbolic like 'x^4 - 41*x^2 + 144'.

    Integer coefficients only; raises ParseError otherwise.
    """
    if not isinstance(text, str):
        raise ParseError("polynomial input must be a string")
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial input")
    if "," in s:
        parts = s.split(",")
        try:
            coeffs = [int(p.strip()) for p in parts]
        except ValueError:
            raise ParseError("bad coefficient list: %r" % (text,)) from None
        poly = IntPoly(coeffs)
        if poly.is_zero:
            raise ParseError("zero polynomial: %r" % (text,))
        return poly
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
        coef = int(digits) if digits else 1
        if sign == "-":
            coef = -coef
        e = int(exp) if exp else (1 if has_x else 0)
        coeffs[e] = coeffs.get(e, 0) + coef
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    poly = IntPoly(out)
    if poly.is_zero:
        raise ParseError("zero polynomial: %r" % (text,))
    return poly


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
# gcd / resultant / discriminant over Z

def pseudo_rem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a modulo b, over Z."""
    da, db = a.degree, b.degree
    if db < 0:
        raise ZeroDivisionError("pseudo_rem by zero")
    rem = list(a.coeffs)
    lcb = b.lc
    if da < db:
        mul = lcb ** (da - db + 1) if da - db + 1 > 0 else 1
        return IntPoly([mul * c for c in rem])
    for i in range(da, db - 1, -1):
        c = rem[i]
        for j in range(len(rem)):
            rem[j] *= lcb
        if c:
            for j, bc in enumerate(b.coeffs):
                rem[i - db + j] -= c * bc
        # rem[i] is now exactly zero
    return IntPoly(rem[:db])


def poly_gcd(a, b):
    """gcd in Z[x], primitive with positive leading coefficient.

    Primitive PRS; plenty at the degrees this package handles.
    """
    if a.is_zero and b.is_zero:
        return IntPoly()
    ca, pa = a.primitive() if not a.is_zero else (0, a)
    cb, pb = b.primitive() if not b.is_zero else (0, b)
    cont = gcd(abs(ca), abs(cb))
    if a.is_zero:
        return IntPoly([cont * c for c in pb.coeffs])
    if b.is_zero:
        return IntPoly([cont * c for c in pa.coeffs])
    while not pb.is_zero:
        r = pseudo_rem(pa, pb)
        pa, pb = pb, r.primitive()[1] if not r.is_zero else IntPoly()
    if pa.lc < 0:
        pa = -pa
    return IntPoly([cont * c for c in pa.coeffs])


def _scalar_div(f, k):
    return IntPoly([c // k for c in f.coeffs])


def resultant(a, b):
    """Res(a, b) over Z via the subresultant PRS."""
    if a.is_zero or b.is_zero:
        return 0
    da, db = a.degree, b.degree
    if da == 0 and db == 0:
        return 1
    if da == 0:
        return a.coeffs[0] ** db
    if db == 0:
        return b.coeffs[0] ** da
    sign = 1
    if da < db:
        a, b = b, a
        da, db = db, da
        if (da * db) % 2 == 1:
            sign = -sign
    ca, a = a.primitive()
    cb, b = b.primitive()
    # contents enter as lc-style powers; their signs ride along correctly
    t = (ca ** b.degree) * (cb ** a.degree)
    g = 1
    h = 1
    while True:
        da, db = a.degree, b.degree
        d = da - db
        if (da % 2 == 1) and (db % 2 == 1):
            sign = -sign
        r = pseudo_rem(a, b)
        a = b
        if r.is_zero:
            # nontrivial common factor (deg a > 0 here)
            return 0
        b = _scalar_div(r, g * h ** d)
        g = a.lc
        if d == 0:
            pass  # h unchanged: h = g^0 * h^1
        elif d == 1:
            h = g
        else:
            num = g ** d
            den = h ** (d - 1)
            h = num // den
        if b.degree == 0:
            break
    da = a.degree
    lb = b.coeffs[0]
    if da == 0:
        hf = 1  # cannot happen: loop keeps deg a > 0
    elif da == 1:
        hf = lb
    else:
        hf = (lb ** da) // (h ** (da - 1))
    return sign * t * hf


def discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) * Res(f, f') / lc(f); errors on constants."""
    n = f.degree
    if n < 1:
        raise DegenerateInputError("discriminant of a constant polynomial")
    r = resultant(f, f.derivative())
    s = -1 if (n * (n - 1) // 2) % 2 else 1
    val = s * r
    q, rem = divmod(val, f.lc)
    if rem:  # pragma: no cover
        raise InternalConsistencyError("resultant not divisible by leading coefficient")
    return q


def squarefree_part(f):
    """f / gcd(f, f'), primitive, positive lc."""
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return f.primitive()[1]
    q, r = _frac_divmod(_to_frac(f), _to_frac(g))
    assert all(x == 0 for x in r)
    return _from_frac_primitive(q)


def is_squarefree(f):
    return poly_gcd(f, f.derivative()).degree == 0


# ---------------------------------------------------------------------------
# rational-coefficient helpers (lists of Fractions, low degree first)

def _to_frac(f):
    return [Fraction(c) for c in f.coeffs]


def _frac_trim(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def _frac_divmod(a, b):
    a = list(a)
    b = _frac_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    lb = b[-1]
    _frac_trim(a)
    if len(a) - 1 < db:
        return [], a
    quot = [Fraction(0)] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] / lb
        if c:
            quot[i - db] = c
            for j, bc in enumerate(b):
                a[i - db + j] -= c * bc
    return _frac_trim(quot), _frac_trim(a[:db])


def _from_frac_primitive(v):
    """Clear denominators and strip content; positive lc."""
    den = 1
    for c in v:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in v]
    return IntPoly(ints).primitive()[1]


def sturm_count_real_roots(f):
    """Number of distinct real roots of a squarefree f, by Sturm's theorem."""
    if f.degree < 1:
        raise DegenerateInputError("Sturm count of a constant polynomial")
    if not is_squarefree(f):
        raise OutOfDomainError("Sturm count requires a squarefree polynomial")
    chain = [_to_frac(f), _to_frac(f.derivative())]
    while True:
        last = chain[-1]
        if not last or len(last) - 1 <= 0:
            break
        _, r = _frac_divmod(chain[-2], last)
        r = [-c for c in r]
        if not _frac_trim(r):
            break  # cannot happen for squarefree input
        chain.append(r)

    def variations(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0)

    at_pos = []
    at_neg = []
    for v in chain:
        if not v:
            continue
        lead = v[-1]
        deg = len(v) - 1
        sp = 1 if lead > 0 else -1
        at_pos.append(sp)
        at_neg.append(sp if deg % 2 == 0 else -sp)
    return variations(at_neg) - variations(at_pos)
