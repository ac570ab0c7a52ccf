"""Exact dense linear algebra over Z and F_p.

Matrices are tuples/lists of row lists. Everything follows the row-vector
convention: vectors multiply matrices from the left, and a matrix's rows are
the images or basis elements. Sizes here never exceed a few hundred entries,
so the simple cubic algorithms with bigint entries are the right tool.
"""

from .errors import SingularFormError


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
    """Fraction-free determinant (Bareiss). No command calls it (the trace
    form's det comes from signature_of_symmetric); perfbench/tracer.py traces
    it and tests use it as a reference until ROADMAP item 5 step 3."""
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
    """((positives, negatives), det) of a nonsingular symmetric integer
    matrix, by fraction-free symmetric Bareiss elimination.

    The live block is always prev times the rational Schur complement of the
    pivots taken so far, so every division is exact and the rational pivot
    d / prev is positive exactly when d * prev > 0. When every live diagonal
    entry is zero, adding row and column j to row and column i (a unimodular
    congruence) puts 2 * m[i][j] on the diagonal. Neither that nor the order
    of the pivots changes the det, which the last pivot is (1 for n = 0).
    """
    m = [list(r) for r in gram]
    live = list(range(len(m)))
    prev = 1
    pos = neg = 0
    while live:
        k = next((i for i in live if m[i][i]), None)
        if k is None:
            k, j = next(((i, j) for i in live for j in live if m[i][j]), (None, None))
            if k is None:
                raise SingularFormError("symmetric matrix is singular")
            for t in live:
                m[k][t] += m[j][t]
            for t in live:
                m[t][k] += m[t][j]
        d = m[k][k]
        if d * prev > 0:
            pos += 1
        else:
            neg += 1
        live.remove(k)
        mk = m[k]
        for i in live:
            mi = m[i]
            c = mi[k]
            for j in live:
                mi[j] = (d * mi[j] - c * mk[j]) // prev
        prev = d
    return (pos, neg), prev
