"""Exact dense linear algebra over Z, Q and F_p.

Matrices are tuples/lists of row lists. Everything follows the row-vector
convention: vectors multiply matrices from the left, and a matrix's rows are
the images or basis elements. Sizes here never exceed a few hundred entries,
so the simple cubic algorithms with bigint entries are the right tool.
"""

from fractions import Fraction

from .errors import RankError, SingularFormError


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(cols):
                    oi[j] += c * bk[j]
    return out


# ---------------------------------------------------------------------------
# Hermite normal form

def _hnf_core(rows, ncols):
    """Row-lattice HNF, upper triangular staircase, zero rows dropped."""
    work = [list(r) for r in rows if any(r)]
    result = []
    for col in range(ncols):
        live = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            new_live = [base]
            for r in live[1:]:
                q = r[col] // base[col]
                if q:
                    for j in range(ncols):
                        r[j] -= q * base[j]
                if r[col] != 0:
                    new_live.append(r)
                elif any(r):
                    rest.append(r)
            live = new_live
        pivot = live[0]
        if pivot[col] < 0:
            for j in range(ncols):
                pivot[j] = -pivot[j]
        result.append(pivot)
        work = rest
    # reduce entries above each pivot into [0, pivot)
    pivots = []
    for r in result:
        c = next(j for j in range(ncols) if r[j] != 0)
        pivots.append(c)
    for idx in range(len(result)):
        for below in range(idx + 1, len(result)):
            pc = pivots[below]
            q = result[idx][pc] // result[below][pc]
            if q:
                for j in range(ncols):
                    result[idx][j] -= q * result[below][j]
    return result


def hnf(matrix):
    """Row-style HNF of a full-row-rank matrix; upper triangular staircase,
    positive pivots, entries above each pivot reduced mod the pivot."""
    rows = list(matrix)
    if not rows:
        return []
    ncols = len(rows[0])
    out = _hnf_core(rows, ncols)
    if len(out) != len(rows):
        raise RankError("matrix does not have full row rank")
    return out


def hnf_row_lattice(rows, ncols):
    """HNF basis of the lattice generated by possibly dependent rows."""
    return _hnf_core(rows, ncols)


def hnf_lower(rows, ncols):
    """Lower-triangular HNF of the row lattice: pivot of row i in column i
    once square, entries below each pivot reduced. This is the integral-basis
    convention where row 0 is the first power-basis coordinate."""
    reversed_rows = [list(reversed(r)) for r in rows]
    upper = _hnf_core(reversed_rows, ncols)
    return [list(reversed(r)) for r in reversed(upper)]


# ---------------------------------------------------------------------------
# determinants and exact solving

def det_bareiss(matrix):
    """Fraction-free determinant (Bareiss)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(r) for r in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_lower_unit(basis, rhs):
    """Integer x with x * basis = rhs for a lower-triangular integer basis
    with nonzero diagonal, or None when rhs is not in the row lattice.

    Back-substitution with exact division. The triangular system has exactly
    one rational solution, so the first inexact division proves that rhs is
    outside the lattice.
    """
    n = len(basis)
    x = [0] * n
    for j in range(n - 1, -1, -1):
        acc = rhs[j]
        for k in range(j + 1, n):
            if basis[k][j]:
                acc -= x[k] * basis[k][j]
        q, r = divmod(acc, basis[j][j])
        if r:
            return None
        x[j] = q
    return x


def solve_exact(matrix, rhs):
    """Solve x * matrix = rhs over Q; None if inconsistent. matrix is square
    or tall (rows >= rank); rhs a row vector."""
    # transpose system: matrix^T x^T = rhs^T, augmented Gaussian elimination
    n = len(matrix)
    ncols = len(matrix[0])
    aug = [[Fraction(matrix[i][j]) for i in range(n)] + [Fraction(rhs[j])] for j in range(ncols)]
    pivot_cols = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, len(aug)):
            if aug[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][c]
        aug[r] = [v / inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][-1] != 0:
            return None
    x = [Fraction(0)] * n
    for row_i, c in enumerate(pivot_cols):
        x[c] = aug[row_i][-1]
    return x


# ---------------------------------------------------------------------------
# F_p linear algebra

def rref_mod_p(matrix, p):
    """Reduced row echelon form over F_p; returns (rows, pivot_columns)."""
    m = [[c % p for c in row] for row in matrix]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def left_kernel_mod_p(matrix, p):
    """Basis rows of {x in F_p^rows : x * matrix == 0 (mod p)}."""
    nrows = len(matrix)
    if nrows == 0:
        return []
    # right kernel of the transpose
    t = [[matrix[i][j] % p for i in range(nrows)] for j in range(len(matrix[0]))]
    rref, pivots = rref_mod_p(t, p)
    free = [c for c in range(nrows) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * nrows
        v[fc] = 1
        for row_i, pc in enumerate(pivots):
            v[pc] = (-rref[row_i][fc]) % p
        basis.append(v)
    return basis


def signature_of_symmetric(gram):
    """Signature (positives, negatives) of a nonsingular symmetric integer
    matrix by exact congruence diagonalization over Q.

    Zero-diagonal stretches are handled by splitting off a hyperbolic 2x2
    block, which contributes (+1, -1) exactly.
    """
    n = len(gram)
    m = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    live = list(range(n))
    pos = neg = 0
    while live:
        k = next((i for i in live if m[i][i] != 0), None)
        if k is not None:
            d = m[k][k]
            if d > 0:
                pos += 1
            else:
                neg += 1
            live.remove(k)
            for i in live:
                f = m[i][k] / d
                if f:
                    for j in live:
                        m[i][j] -= f * m[k][j]
                    m[i][k] = Fraction(0)
            for i in live:
                m[k][i] = Fraction(0)
            continue
        # all remaining diagonal entries are zero
        found = None
        for i in live:
            for j in live:
                if i != j and m[i][j] != 0:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            raise SingularFormError("symmetric matrix is singular")
        i, j = found
        b = m[i][j]
        pos += 1
        neg += 1
        live.remove(i)
        live.remove(j)
        for a in live:
            ca = m[a][i]
            cb = m[a][j]
            if ca or cb:
                for t in live:
                    m[a][t] -= (ca * m[j][t] + cb * m[i][t]) / b
        for a in live:
            m[i][a] = m[j][a] = m[a][i] = m[a][j] = Fraction(0)
    return pos, neg
