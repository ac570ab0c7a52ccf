import random

from hypothesis import given
from hypothesis import strategies as st

from helpers import frac_det, frac_solve, identity_matrix, lattice_equal, mat_mul
from tracegenus.linalg import (
    det_bareiss,
    hnf_lower,
    left_kernel_mod_p,
    rref_mod_p,
    signature_of_symmetric,
    solve_lower_unit,
)


def square_matrices(n_max=5, bound=20):
    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def unimodular(n, seed):
    """Random product of elementary integer row operations (det = +-1)."""
    rng = random.Random(seed)
    u = identity_matrix(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    if rng.random() < 0.5 and n > 1:
        u[0], u[1] = u[1], u[0]
    return u


# ---------------------------------------------------------------------------
# determinants


@given(square_matrices())
def test_det_bareiss_matches_fraction_gauss(m):
    assert det_bareiss(m) == frac_det(m)


def test_det_hand_values():
    assert det_bareiss([[5]]) == 5
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[0, 0], [0, 0]]) == 0


# ---------------------------------------------------------------------------
# Hermite forms


def nonsingular_matrices(n_max=4, bound=12):
    return square_matrices(n_max, bound).filter(lambda m: frac_det(m) != 0)


@given(nonsingular_matrices(), st.integers(0, 2**30))
def test_hnf_is_canonical_under_row_operations(m, seed):
    n = len(m)
    u = unimodular(n, seed)
    assert hnf_lower(mat_mul(u, m), n) == hnf_lower(m, n)


@given(nonsingular_matrices())
def test_hnf_spans_the_same_lattice(m):
    h = hnf_lower(m, len(m))
    assert lattice_equal(m, 1, h, 1)


@given(nonsingular_matrices())
def test_hnf_shape(m):
    n = len(m)
    h = hnf_lower(m, n)
    assert len(h) == n
    for i in range(n):
        assert h[i][i] > 0
        for j in range(i + 1, n):
            assert h[i][j] == 0  # lower triangular
        for r in range(i + 1, n):
            assert 0 <= h[r][i] < h[i][i]  # reduced below the pivot
    assert hnf_lower(h, n) == h  # idempotent


@given(nonsingular_matrices())
def test_hnf_lower_mirrors_hnf(m):
    n = len(m)
    h = hnf_lower(m, n)
    assert lattice_equal(m, 1, h, 1)
    for i in range(n):
        assert h[i][i] > 0
        for j in range(i + 1, n):
            assert h[i][j] == 0  # lower triangular
        for r in range(i + 1, n):
            assert 0 <= h[r][i] < h[i][i]  # reduced below the pivot
    # determinant magnitude is preserved
    assert abs(det_bareiss(m)) == det_bareiss(h) if n > 0 else True


def test_hnf_row_lattice_drops_dependent_rows():
    rows = [[2, 0], [4, 0], [0, 1], [2, 1]]
    h = hnf_lower(rows, 2)
    assert h == [[2, 0], [0, 1]]
    # every original row is a member of the reduced lattice
    assert lattice_equal(h, 1, [[2, 0], [0, 1]], 1)


# ---------------------------------------------------------------------------
# exact solving


@given(st.integers(1, 4), st.integers(0, 2**30))
def test_solve_lower_unit_reconstructs(n, seed):
    rng = random.Random(seed)
    basis = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            basis[i][j] = rng.randint(-9, 9)
        basis[i][i] = rng.choice([1, 2, 3, 5])
    x0 = [rng.randint(-20, 20) for _ in range(n)]
    image = [sum(x0[i] * basis[i][j] for i in range(n)) for j in range(n)]
    assert solve_lower_unit(basis, image) == x0
    # a random rhs lies in the row lattice exactly when its rational
    # coordinates (basis^T c = rhs, by the Fraction oracle) are integers
    rhs = [rng.randint(-20, 20) for _ in range(n)]
    exact = frac_solve([[basis[i][j] for i in range(n)] for j in range(n)], rhs)
    x = solve_lower_unit(basis, rhs)
    if all(c.denominator == 1 for c in exact):
        assert x == exact
    else:
        assert x is None


# ---------------------------------------------------------------------------
# mod-p kernels and echelon forms


@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**30))
def test_left_kernel_mod_p(nrows, ncols, seed):
    p = 5
    rng = random.Random(seed)
    m = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    kernel = left_kernel_mod_p(m, p)
    rank = len(rref_mod_p(m, p)[0])
    assert len(kernel) == nrows - rank
    for v in kernel:
        prod = [sum(v[i] * m[i][j] for i in range(nrows)) % p for j in range(ncols)]
        assert all(c == 0 for c in prod)


@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**30))
def test_rref_mod_p_is_reduced(nrows, ncols, seed):
    p = 7
    rng = random.Random(seed)
    m = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    rows, pivots = rref_mod_p(m, p)
    assert len(rows) == len(pivots)
    assert pivots == sorted(pivots)
    for r, c in zip(rows, pivots):
        assert r[c] == 1
        assert all(r[j] == 0 for j in range(c))
        assert all(other[c] == 0 for other in rows if other is not r)


# ---------------------------------------------------------------------------
# signatures of symmetric forms


def jacobi_signature(gram):
    """Sign-change count over leading principal minors (Jacobi's criterion).

    Only valid when every leading principal minor is nonzero.
    """
    n = len(gram)
    minors = [frac_det([row[: k + 1] for row in gram[: k + 1]]) for k in range(n)]
    if any(m == 0 for m in minors):
        return None
    seq = [1] + minors
    negatives = sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))
    return (n - negatives, negatives)


def test_signature_hand_values():
    assert signature_of_symmetric([[1, 0], [0, -1]]) == (1, 1)
    assert signature_of_symmetric([[0, 1], [1, 0]]) == (1, 1)  # hyperbolic plane
    assert signature_of_symmetric([[-2]]) == (0, 1)
    assert signature_of_symmetric([[2, 1], [1, 3]]) == (2, 0)
    assert signature_of_symmetric([[2, 0], [0, -2]]) == (1, 1)


@given(st.integers(1, 5), st.integers(0, 2**30))
def test_signature_matches_jacobi_minors(n, seed):
    rng = random.Random(seed)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = rng.randint(-9, 9)
    expected = jacobi_signature(gram)
    if expected is None or frac_det(gram) == 0:
        return
    assert signature_of_symmetric(gram) == expected


@given(st.integers(1, 4), st.integers(0, 2**30), st.integers(0, 2**30))
def test_signature_is_congruence_invariant(n, seed1, seed2):
    rng = random.Random(seed1)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = rng.randint(-6, 6)
    if frac_det(gram) == 0:
        return
    u = unimodular(n, seed2)
    ut = [[u[j][i] for j in range(n)] for i in range(n)]
    transformed = mat_mul(mat_mul(u, gram), ut)
    assert signature_of_symmetric(transformed) == signature_of_symmetric(gram)


@given(
    st.integers(1, 3),
    st.lists(st.integers(-7, 7).filter(bool), max_size=3),
    st.integers(0, 2**30),
)
def test_signature_of_hyperbolic_planes(h, diag, seed):
    """h hyperbolic planes (zero diagonal) plus diag(a_i), as given and
    conjugated by a unimodular matrix, has signature (pos + h, neg + h)."""
    n = 2 * h + len(diag)
    form = [[0] * n for _ in range(n)]
    for k in range(h):
        form[2 * k][2 * k + 1] = form[2 * k + 1][2 * k] = 1
    for k, a in enumerate(diag):
        form[2 * h + k][2 * h + k] = a
    pos = sum(a > 0 for a in diag)
    expected = (pos + h, len(diag) - pos + h)
    u = unimodular(n, seed)
    ut = [[u[j][i] for j in range(n)] for i in range(n)]
    assert signature_of_symmetric(form) == expected
    assert signature_of_symmetric(mat_mul(mat_mul(u, form), ut)) == expected

