import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import is_squarefree_int, lattice_equal, lattice_member, quadratic_field_disc
from tracegenus import modp, orders
from tracegenus.arith import PrimeFactorization, factor_integer
from tracegenus.errors import (
    DegenerateInputError,
    InternalConsistencyError,
    NonMonicInputError,
    OutOfDomainError,
    ReducibleInputError,
)
from tracegenus.orders import (
    equation_order,
    maximal_order,
    mult_table,
    order_from_rows,
    pmaximalize,
)
from tracegenus.polys import IntPoly, discriminant, parse_poly
from tracegenus.splitting import algebra_splitting, split_prime

# (label, polynomial, index, field disc): quartets pinned by hand
KNOWN_FIELDS = [
    ("quartic with index 48", "x^4 - 41*x^2 + 144", 48, 1221025),
    ("quartic with index 6", "x^4 - x^3 - 46*x^2 - 115*x - 35", 6, 1221025),
    ("monogenic quartic", "x^4 - x^3 - 7*x^2 + 11*x + 3", 1, -205379),
    ("sextic with index 187", "x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5", 187, 328509),
    ("sextic with index 40", "x^6 - x^5 - 2*x^4 + x^3 + 7*x^2 - 6*x + 4", 40, -309123),
    ("sextic with index 3", "x^6 - 3*x^5 + 10*x^4 - 15*x^3 + 19*x^2 - 12*x + 3", 3, -309123),
    ("seventh cyclotomic", "x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", 1, -16807),
    ("eighth cyclotomic", "x^4 + 1", 1, 256),
    ("cubic disc 32009", "x^3 - x^2 - 20*x - 1", 1, 32009),
    ("golden ratio quadratic", "x^2 - 5", 2, 5),
    # disc(x^n + a) = (-1)^(n(n-1)/2) n^n a^(n-1)
    ("64th cyclotomic", "x^32 + 1", 1, 2**160),
    ("pure degree 40", "x^40 - 3", 1, -(40**40) * 3**39),
]


def in_order(order, num, den):
    """Whether num / den (num reduced mod the polynomial) lies in the order,
    by the Fraction oracle."""
    vec = list(num.coeffs) + [0] * (order.degree - len(num.coeffs))
    return lattice_member(order.basis_num, order.denom, vec, den)


@pytest.mark.parametrize("label,text,index,disc", KNOWN_FIELDS, ids=[k[0] for k in KNOWN_FIELDS])
def test_known_maximal_orders(label, text, index, disc):
    f = parse_poly(text)
    mo = maximal_order(f)
    assert mo.index == index
    assert mo.disc == disc
    assert mo.disc_factored == factor_integer(disc)
    assert discriminant(f) == index * index * disc


def test_golden_ratio_basis():
    mo = maximal_order(parse_poly("x^2 - 5"))
    assert mo.order.denom == 2
    assert mo.order.basis_num == ((2, 0), (1, 1))  # 1 and (1 + sqrt5)/2
    assert in_order(mo.order, IntPoly((1, 1)), 2)
    assert not in_order(mo.order, IntPoly((0, 1)), 2)


squarefree_d = st.integers(-120, 120).filter(
    lambda d: d not in (0, 1) and is_squarefree_int(d)
)


@given(squarefree_d)
def test_quadratic_fields_match_closed_form(d):
    mo = maximal_order(IntPoly((-d, 0, 1)))
    assert mo.disc == quadratic_field_disc(d)
    assert mo.index == (2 if d % 4 == 1 else 1)


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=4))
def test_disc_index_identity(cs):
    f = IntPoly(tuple(cs) + (1,))
    try:
        mo = maximal_order(f)
    except ReducibleInputError:
        return
    assert discriminant(f) == mo.index**2 * mo.disc
    assert mo.disc != 0


def test_power_basis_is_contained():
    mo = maximal_order(parse_poly("x^4 - 41*x^2 + 144"))
    for k in range(4):
        assert in_order(mo.order, IntPoly((0,) * k + (1,)), 1)


def test_order_is_multiplicatively_closed():
    mo = maximal_order(parse_poly("x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5"))
    basis = mo.order.basis_polys()
    d = mo.order.denom
    for wi in basis:
        for wj in basis:
            assert (wi * wj).divmod(mo.poly)[1] is not None
            assert in_order(mo.order, (wi * wj).divmod(mo.poly)[1], d * d)
    # the structure constants give every product, the mirrored half too:
    # basis rows are numerators over d, so d * sum(c_k * w_k) is w_i * w_j
    table = mult_table(mo.order)
    for i, wi in enumerate(basis):
        for j, wj in enumerate(basis):
            combo = sum((IntPoly([d * c]) * wk for c, wk in zip(table[i][j], basis)), IntPoly([0]))
            assert combo == (wi * wj).divmod(mo.poly)[1], (i, j)


def test_mult_table_refuses_a_lattice_that_is_no_ring():
    # 1 and x/2 over x^2 - 5: (x/2)^2 = 5/4 is not in the lattice
    f = parse_poly("x^2 - 5")
    lattice = orders.Order(poly=f, basis_num=((2, 0), (0, 1)), denom=2)
    with pytest.raises(InternalConsistencyError, match=r"closed at basis \(1,1\)"):
        mult_table(lattice)


def test_dedekind_agrees_with_round2_index():
    for _, text, index, _ in KNOWN_FIELDS:
        f = parse_poly(text)
        for p, v in _square_primes(f):
            witness = orders._dedekind_witness(f, p)
            assert (witness is None) == (index % p != 0)
            if witness is not None:  # U(theta)/p enlarges Z[theta]
                assert 0 < witness.degree < f.degree
                enlarged = pmaximalize(f, p, v)
                # the p-maximal order strictly contains Z[theta]
                assert enlarged.denom % p == 0


def _square_primes(f):
    """(p, v_p(disc f)) for every p whose square divides disc(f)."""
    return [(p, e) for p, e in factor_integer(discriminant(f)).factors if e >= 2]


def round_two_without_stop(f, p):
    """The radical/multiplier loop from Z[theta] until the order is its own
    ring of multipliers: no Dedekind step and no stop on v_p(disc O)."""
    order = equation_order(f)
    while True:
        bigger = orders._round_two_step(order, p)
        if bigger == order:
            return order
        order = bigger


def test_pmaximalize_equals_round_two_from_the_equation_order(corpus_records):
    checked = 0
    for rec in corpus_records:
        f = parse_poly(rec.text)
        for p, v in _square_primes(f):
            assert pmaximalize(f, p, v) == round_two_without_stop(f, p), (rec.label, p)
            checked += 1
    assert checked == 69


def test_dedekind_maximal_prime_builds_no_table(corpus_records):
    settled = 0
    for rec in corpus_records:
        f = parse_poly(rec.text)
        for p, v in _square_primes(f):
            if orders._dedekind_witness(f, p) is not None:
                continue
            mult_table.cache_clear()
            assert pmaximalize(f, p, v) == equation_order(f)
            assert mult_table.cache_info().misses == 0, (rec.label, p)
            settled += 1
    assert settled >= 40


# the corpus square primes where Dedekind's enlargement O_1 already has
# v_p(disc O_1) <= 1, and so is p-maximal
O1_IS_PMAXIMAL = [
    ("d12-sextic", 11),
    ("d12-sextic", 17),
    ("klein-quartic-a", 3),
    ("klein-quartic-b", 2),
    ("klein-quartic-b", 3),
    ("quad-5", 2),
    ("r2-02", 7),
    ("r3-02", 3),
    ("r4-08", 13),
    ("r5-05", 3),
    ("sextic-pair-a", 5),
]


def test_pmaximal_dedekind_enlargement_builds_no_table(corpus_records):
    # O_1 is the loop's own first step from Z[theta] (Cohen, Thm. 6.1.4);
    # where v_p(disc O_1) < 2 it is returned before any table is built
    settled = []
    for rec in corpus_records:
        f = parse_poly(rec.text)
        for p, v in _square_primes(f):
            if orders._dedekind_witness(f, p) is None:
                continue
            o1 = orders._round_two_step(equation_order(f), p)
            if v - 2 * orders._valuation(o1.index_in(), p) >= 2:
                continue
            mult_table.cache_clear()
            assert pmaximalize(f, p, v) == o1, (rec.label, p)
            assert mult_table.cache_info().misses == 0, (rec.label, p)
            settled.append((rec.label, p))
    assert sorted(settled) == O1_IS_PMAXIMAL


def test_round_two_table_count_on_the_corpus(corpus_records):
    # 69 square primes: 49 settled by Dedekind or by v_p(disc O_1) < 2 with
    # no table, and 20 tables at the rest (34 when every loop ended on a
    # check-only step that rebuilt the table of an order proven p-maximal)
    primes = tables = 0
    for rec in corpus_records:
        f = parse_poly(rec.text)
        for p, v in _square_primes(f):
            mult_table.cache_clear()
            pmaximalize(f, p, v)
            tables += mult_table.cache_info().misses
            primes += 1
    assert (primes, tables) == (69, 20)


def test_unenlarged_field_builds_no_table(corpus_records):
    # every square prime settled with Z[theta] p-maximal: no join and no
    # closure table, as for a field with no square prime
    settled = []
    for rec in corpus_records:
        f = parse_poly(rec.text)
        primes = _square_primes(f)
        if not primes or any(orders._dedekind_witness(f, p) for p, _ in primes):
            continue
        mult_table.cache_clear()
        assert maximal_order(f).order == equation_order(f), rec.label
        assert mult_table.cache_info().misses == 0, rec.label
        settled.append(rec.label)
    assert len(settled) == 20 and "cyclo7" in settled


def test_enlarged_field_builds_its_closure_table(monkeypatch):
    # klein-quartic-a, index 48: 2 and 3 are enlarged and joined, and the
    # join's closure is proven by its table
    tabled = []
    monkeypatch.setattr(orders, "mult_table", lambda order: tabled.append(order) or mult_table(order))
    mo = maximal_order(parse_poly("x^4 - 41*x^2 + 144"))
    assert mo.index == 48
    assert tabled[-1] == mo.order


def test_dedekind_squarefree_parts_match_factor_mod_p(corpus_records, monkeypatch):
    # g_bar, the product of the distinct irreducible factors of f mod p, read
    # from Cantor-Zassenhaus factors instead of the squarefree parts
    cases = []
    factored = {}
    for rec in corpus_records:
        f = parse_poly(rec.text)
        ramified = [p for p, _ in factor_integer(discriminant(f)).factors]
        for p in sorted(set(ramified) | {2, 3, 5, 7}):
            cases.append((f, p, orders._dedekind_witness(f, p)))
            factored[modp.norm(f.coeffs, p), p] = [
                (modp.norm(g.coeffs, p), m) for g, m in modp.factor_mod_p(f, p)
            ]

    monkeypatch.setattr(modp, "squarefree_decomposition", lambda f_bar, p: factored[f_bar, p])
    for f, p, witness in cases:
        assert orders._dedekind_witness(f, p) == witness, (f, p)
    assert any(w is not None for _, _, w in cases)


def test_pmaximalize_reaches_full_p_index():
    f = parse_poly("x^4 - 41*x^2 + 144")  # index 48 = 2^4 * 3, disc 2^8 3^2 d_K
    o2 = pmaximalize(f, 2, 8)
    o3 = pmaximalize(f, 3, 2)
    assert o2.index_in() == 16
    assert o3.index_in() == 3


def test_pmaximalize_checks_the_v_it_is_given():
    # v_2(disc f) = 8 and Dedekind's O_1 has 2-index 2^2: a v of 2 or 3
    # leaves v_p(disc O_1) < 0, and a v above 8 only costs steps
    f = parse_poly("x^4 - 41*x^2 + 144")
    for v in (2, 3):
        with pytest.raises(InternalConsistencyError, match="index at 2 exceeds v"):
            pmaximalize(f, 2, v)
    for v in (-1, 0, 1):
        with pytest.raises(OutOfDomainError):
            pmaximalize(f, 2, v)
    for v in (9, 10, 20):
        assert pmaximalize(f, 2, v) == pmaximalize(f, 2, 8)


def test_maximal_order_is_deterministic():
    f = parse_poly("x^6 - x^5 - 2*x^4 + x^3 + 7*x^2 - 6*x + 4")
    a = maximal_order(f)
    b = maximal_order(f)
    assert a.order.basis_num == b.order.basis_num
    assert a.order.denom == b.order.denom


def test_order_from_rows_normalizes_scaling():
    f = parse_poly("x^2 - 5")
    a = order_from_rows(f, [[2, 0], [1, 1]], 2)
    b = order_from_rows(f, [[6, 0], [3, 3]], 6)  # same lattice, scaled rows
    assert a.basis_num == b.basis_num and a.denom == b.denom
    assert lattice_equal(a.basis_num, a.denom, [[2, 0], [1, 1]], 2)


def test_degree_one_field():
    # the general path: index 1, disc 1, no factors, and one prime of
    # degree 1 above every p on every route
    for text in ("x", "x - 3", "x + 7"):
        mo = maximal_order(parse_poly(text))
        assert mo.disc == 1 and mo.index == 1 and mo.degree == 1
        assert mo.disc_factored.factors == ()
        for p in (2, 3, 7, 101):
            assert split_prime(mo, p).pairs == ((1, 1),)
            assert algebra_splitting(mo, p).pairs == ((1, 1),)


def test_rejects_bad_inputs():
    with pytest.raises(NonMonicInputError):
        maximal_order(parse_poly("2*x^2 + 1"))
    with pytest.raises(NonMonicInputError):
        maximal_order(IntPoly((5,)))
    with pytest.raises(DegenerateInputError):
        maximal_order(IntPoly((1,)))
    with pytest.raises(ReducibleInputError) as exc:
        maximal_order(parse_poly("x^2 - 1"))
    assert sorted(g.coeffs for g in exc.value.factors) == [(-1, 1), (1, 1)]


def test_maximal_order_computes_disc_once(monkeypatch):
    calls = []

    def counting_discriminant(f):
        calls.append(f)
        return discriminant(f)

    monkeypatch.setattr(orders, "discriminant", counting_discriminant)
    for _, text, index, _ in KNOWN_FIELDS:
        calls.clear()
        maximal_order(parse_poly(text))
        assert len(calls) == 1, text
