"""Integral trace forms of number fields: maximal orders, prime splitting,
signature and discriminant invariants, and spinor-genus comparison.

The public names resolve on first use (PEP 562): `import tracegenus` loads
no submodule, and `tracegenus.<name>` imports only the name's home module.
The package stores no resolved value, so a patch of a home module's
attribute shows through `tracegenus.<name>` and leaves nothing behind.
"""

__version__ = "0.1.0"

_HOMES = {  # home module -> the public names it defines
    "arith": ("PrimeFactorization", "factor_integer", "is_prime", "legendre", "smallest_nonresidue"),
    "errors": (
        "DegenerateInputError",
        "FactorizationLimitError",
        "InternalConsistencyError",
        "InvalidPrimeError",
        "NonMonicInputError",
        "OutOfDomainError",
        "ParseError",
        "ReducibleInputError",
        "SingularFormError",
        "TraceGenusError",
        "WildRamificationError",
    ),
    "genus": (
        "DIFFERENT",
        "NOT_APPLICABLE",
        "SAME",
        "AlphaRow",
        "ComparisonResult",
        "CrossValidation",
        "EquivalencePrediction",
        "compare_spinor_genus",
        "cross_validate",
        "predict_equivalence",
    ),
    "orders": ("MaximalOrder", "Order", "maximal_order"),
    "polys": ("IntPoly", "coeff_csv", "discriminant", "parse_poly", "poly_to_string"),
    "splitting": ("SplittingType", "split_prime"),
    "traceform": (
        "AlphaClass",
        "FieldAnalysis",
        "GammaClassification",
        "GammaTest",
        "TraceForm",
        "alpha_invariant",
        "analyze_field",
        "classify_gamma",
        "field_signature",
        "gram_matrix",
        "power_sums",
    ),
    "zfactor": ("factor_over_z", "is_irreducible"),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    try:
        home = _HOME_OF[name]
    except KeyError:  # `from tracegenus import modp` then imports the submodule
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    # what `from .<home> import <name>` does
    return getattr(__import__(home, globals(), None, (name,), 1), name)


def __dir__():
    return sorted({*globals(), *__all__})
