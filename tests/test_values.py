"""The value types are immutable, hashable named tuples."""

import pytest

from tracegenus.arith import PrimeFactorization
from tracegenus.corpus import parse_corpus
from tracegenus.genus import cross_validate
from tracegenus.orders import Order, mult_table
from tracegenus.polys import IntPoly

PAIR = ("sextic-pair-a", "sextic-pair-b")


@pytest.fixture(scope="module")
def values(corpus_analyses):
    """One instance of every value type, all from real analyses."""
    left, right = (corpus_analyses[label] for label in PAIR)
    mo = left.max_order
    cv = cross_validate(left, right)
    return {
        "PrimeFactorization": mo.disc_factored,
        "Order": mo.order,
        "MaximalOrder": mo,
        "SplittingType": left.splittings[0],
        "TraceForm": left.trace_form,
        "AlphaClass": left.alphas[0],
        "GammaTest": left.gamma.tests[0],
        "GammaClassification": left.gamma,
        "FieldAnalysis": left,
        "AlphaRow": cv.comparison.alpha_rows[0],
        "ComparisonResult": cv.comparison,
        "EquivalencePrediction": cv.prediction,
        "CrossValidation": cv,
        "CorpusRecord": parse_corpus("a,x^2 - 5\n")[0],
    }


def test_every_value_type_is_immutable_and_hashable(values):
    for name, value in values.items():
        assert type(value).__name__ == name
        field = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.unknown = 1
        assert hash(value) == hash(tuple(value))
        assert value == tuple(value) and value._replace() == value


def test_index_fields_shadow_tuple_index(values):
    # MaximalOrder.index (a property) and FieldAnalysis.index are the
    # integer, not the method
    assert values["MaximalOrder"].index == values["FieldAnalysis"].index
    assert isinstance(values["FieldAnalysis"].index, int)


def test_prime_factorization_defaults_to_no_factors():
    assert PrimeFactorization(1).factors == ()
    assert PrimeFactorization(-1).value() == -1


def test_rebuilt_order_hits_mult_table(values):
    order = values["Order"]
    table = mult_table(order)
    rebuilt = Order(
        poly=IntPoly(list(order.poly.coeffs)),
        basis_num=tuple(tuple(row) for row in order.basis_num),
        denom=order.denom,
    )
    assert rebuilt is not order
    hits = mult_table.cache_info().hits
    assert mult_table(rebuilt) is table
    assert mult_table.cache_info().hits == hits + 1
