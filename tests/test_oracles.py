"""Sanity checks for the oracle implementations in helpers.py.

Every value here is small enough to verify by hand; if these fail nothing
else in the suite can be trusted.
"""

from fractions import Fraction

from helpers import (
    brute_is_prime,
    brute_legendre,
    brute_nonresidue,
    count_real_roots,
    frac_det,
    frac_solve,
    is_eisenstein_at,
    jordan_symbol,
    lattice_equal,
    lattice_member,
    power_sum_of_roots,
    quadratic_field_disc,
    quadratic_is_irreducible,
    quadratic_splitting,
    sylvester_disc,
    sylvester_resultant,
    trial_division,
)


def test_frac_det_hand_values():
    assert frac_det([[2]]) == 2
    assert frac_det([[1, 2], [3, 4]]) == -2
    assert frac_det([[0, 1], [1, 0]]) == -1
    assert frac_det([[1, 2], [2, 4]]) == 0
    assert frac_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30


def test_frac_solve_hand_values():
    assert frac_solve([[2, 0], [0, 4]], [6, 8]) == [3, 2]
    assert frac_solve([[1, 1], [1, 1]], [1, 2]) is None  # inconsistent
    x = frac_solve([[1, 1], [1, -1]], [3, 1])
    assert x == [2, 1]


def test_lattice_membership_hand_values():
    # lattice 2Z x 2Z
    rows = [[2, 0], [0, 2]]
    assert lattice_member(rows, 1, [4, 6], 1)
    assert not lattice_member(rows, 1, [1, 0], 1)
    # (1/2)Z x Z contains Z x Z but not conversely
    assert lattice_equal([[1, 0], [0, 1]], 1, [[2, 0], [0, 2]], 2)
    assert not lattice_equal([[1, 0], [0, 2]], 2, [[1, 0], [0, 1]], 1)


def test_sylvester_resultant_hand_values():
    # res(x-a, x-b) = a - b: evaluate the second polynomial at the first's root
    assert sylvester_resultant((-2, 1), (-3, 1)) == 2 - 3
    # res(x^2+1, x^2-1) = product of g over roots of f = (i^2-1)(-i^2... = 4
    assert sylvester_resultant((1, 0, 1), (-1, 0, 1)) == 4
    # shared root => 0
    assert sylvester_resultant((-1, 0, 1), (-1, 1)) == 0


def test_sylvester_disc_hand_values():
    assert sylvester_disc((-5, 0, 1)) == 20  # x^2 - 5
    assert sylvester_disc((1, 0, 1)) == -4  # x^2 + 1
    assert sylvester_disc((-1, -1, 0, 1)) == -23  # x^3 - x - 1
    assert sylvester_disc((1, 1, 1)) == -3
    # non-monic: disc(2x^2+2) = (4ac - b^2 scaled) ... = -16
    assert sylvester_disc((2, 0, 2)) == -16


def test_count_real_roots_hand_values():
    assert count_real_roots((-2, 0, 1)) == 2  # x^2 - 2
    assert count_real_roots((1, 0, 1)) == 0  # x^2 + 1
    assert count_real_roots((-1, -1, 0, 1)) == 1  # x^3 - x - 1
    assert count_real_roots((0, -1, 0, 1)) == 3  # x^3 - x, root at 0
    assert count_real_roots((144, 0, -41, 0, 1)) == 4  # (x^2-16)(x^2-9)... roots ±4, ±3
    assert count_real_roots((1, 0, 0, 0, 1)) == 0  # x^4 + 1
    # tight cluster: (x-1)(x-2)(x-3) forces the bisection deep enough
    assert count_real_roots((-6, 11, -6, 1)) == 3


def test_trial_division_and_primality():
    assert trial_division(1) == []
    assert trial_division(12) == [(2, 2), (3, 1)]
    assert trial_division(32009) == [(32009, 1)]
    assert brute_is_prime(2) and brute_is_prime(107) and not brute_is_prime(1221025)


def test_brute_residue_symbols():
    assert brute_legendre(4, 5) == 1
    assert brute_legendre(2, 5) == -1
    assert brute_legendre(10, 5) == 0
    assert brute_nonresidue(5) == 2
    assert brute_nonresidue(7) == 3
    assert brute_nonresidue(17) == 3
    assert brute_nonresidue(23) == 5


def test_quadratic_closed_forms():
    assert quadratic_field_disc(5) == 5
    assert quadratic_field_disc(-1) == -4
    assert quadratic_field_disc(-5) == -20
    # 11 splits in Q(sqrt 5) since 5 is a square mod 11 (4^2=16=5)
    assert quadratic_splitting(5, 11) == ((1, 1), (1, 1))
    assert quadratic_splitting(5, 3) == ((1, 2),)
    assert quadratic_splitting(5, 5) == ((2, 1),)
    assert quadratic_splitting(-4, 2) == ((2, 1),)
    assert quadratic_splitting(17, 2) == ((1, 1), (1, 1))
    assert quadratic_splitting(5, 2) == ((1, 2),)


def test_power_sum_of_roots():
    assert power_sum_of_roots([1, 2, 3], 0) == 3
    assert power_sum_of_roots([1, 2, 3], 2) == 14
    assert power_sum_of_roots([Fraction(1, 2), Fraction(-1, 2)], 2) == Fraction(1, 2)


def test_irreducibility_certificates():
    assert is_eisenstein_at((2, 2, 1), 2)  # x^2 + 2x + 2
    assert not is_eisenstein_at((4, 2, 1), 2)  # p^2 divides the constant term
    assert not is_eisenstein_at((2, 1, 1), 2)  # middle coefficient not divisible
    assert quadratic_is_irreducible(0, 1)  # x^2 + 1
    assert quadratic_is_irreducible(0, -2)  # x^2 - 2
    assert not quadratic_is_irreducible(0, -4)  # x^2 - 4 = (x-2)(x+2)
    assert not quadratic_is_irreducible(-3, 2)  # (x-1)(x-2)


def test_jordan_symbol_hand_values():
    # diag(1, 3, 9) at 3: one constituent at each scale, all of unit part 1
    assert jordan_symbol([[1, 0, 0], [0, 3, 0], [0, 0, 9]], 3) == {
        0: (1, 1),
        1: (1, 1),
        2: (1, 1),
    }
    # diag(2, 5) at 5: unit part 2 is a nonresidue, 5 = 5 * 1
    assert jordan_symbol([[2, 0], [0, 5]], 5) == {0: (1, -1), 1: (1, 1)}
    # 3 times a hyperbolic plane: only off-diagonal pivots; its unit part
    # has determinant -1, a nonresidue mod 3
    assert jordan_symbol([[0, 3], [3, 0]], 3) == {1: (2, -1)}
    # the same plane mod 7, where -1 is a nonresidue too, and mod 5, where
    # it is a residue
    assert jordan_symbol([[0, 1], [1, 0]], 7) == {0: (2, -1)}
    assert jordan_symbol([[0, 1], [1, 0]], 5) == {0: (2, 1)}
