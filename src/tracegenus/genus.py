"""Deciding when two integral trace forms lie in the same spinor genus.

Two routes that must agree on their common domain:

* compare_spinor_genus checks the full invariant list — equal discriminant,
  equal signature, and equal Legendre classes of alpha_p at every odd prime
  of the common discriminant. Valid for tame fields of degree >= 3.
* predict_equivalence uses the coarser criterion available when both fields
  pass the gamma classification and share at most one exceptional prime:
  there the discriminant and signature alone decide, and a definite answer
  upgrades to an isometry claim whenever the fields are not totally real.
"""

from typing import NamedTuple

SAME = "same-spinor-genus"
DIFFERENT = "different"
NOT_APPLICABLE = "not-applicable"


class AlphaRow(NamedTuple):
    p: int
    left: int  # Legendre class in the first field
    right: int  # Legendre class in the second field
    informational: bool  # True when discriminants differ, so the row is moot

    @property
    def equal(self):
        return self.left == self.right


class ComparisonResult(NamedTuple):
    verdict: str  # SAME, DIFFERENT or NOT_APPLICABLE
    reason: str | None  # set when not applicable
    disc_equal: bool | None
    signature_equal: bool | None
    alpha_rows: tuple  # AlphaRow per shared odd ramified prime


def compare_spinor_genus(left, right):
    """Invariant-by-invariant spinor genus comparison of two trace forms.

    Applicability gates: both degrees >= 3, equal, and every ramified prime
    tame in both fields. Outside the gates the verdict is NOT_APPLICABLE with
    a reason; no weaker heuristic is substituted.
    """
    gate = _applicability_gate(left, right)
    if gate is not None:
        return ComparisonResult(
            verdict=NOT_APPLICABLE,
            reason=gate,
            disc_equal=None,
            signature_equal=None,
            alpha_rows=(),
        )
    disc_equal = left.disc == right.disc
    signature_equal = left.signature == right.signature
    rows = []
    shared = sorted(
        {a.p for a in left.alphas} & {a.p for a in right.alphas}
    )
    for p in shared:
        rows.append(
            AlphaRow(
                p=p,
                left=left.alpha_at(p).legendre,
                right=right.alpha_at(p).legendre,
                informational=not disc_equal,
            )
        )
    alphas_equal = all(r.equal for r in rows)
    same = disc_equal and signature_equal and alphas_equal
    return ComparisonResult(
        verdict=SAME if same else DIFFERENT,
        reason=None,
        disc_equal=disc_equal,
        signature_equal=signature_equal,
        alpha_rows=tuple(rows),
    )


def _applicability_gate(left, right):
    if left.degree < 3 or right.degree < 3:
        return "degree-too-small"
    if left.degree != right.degree:
        return "degree-mismatch"
    if not left.gamma.is_tame or not right.gamma.is_tame:
        return "wild-ramification"
    return None


class EquivalencePrediction(NamedTuple):
    applicable: bool
    reason: str | None  # why not, when inapplicable
    predicted_same: bool | None  # None when inapplicable
    isometry_claim: bool  # predicted same and not totally real
    exceptional_union: tuple


def predict_equivalence(left, right):
    """Discriminant-and-signature shortcut, valid when both fields pass the
    gamma classification and their exceptional primes coincide or are absent."""
    union = {left.gamma.exceptional, right.gamma.exceptional} - {None}
    gate = _applicability_gate(left, right)
    if gate is None:
        if not (left.gamma.is_gamma and right.gamma.is_gamma):
            gate = "not-gamma"
        elif len(union) > 1:
            gate = "distinct-exceptional-primes"
    if gate is not None:
        return EquivalencePrediction(
            applicable=False,
            reason=gate,
            predicted_same=None,
            isometry_claim=False,
            exceptional_union=tuple(sorted(union)),
        )
    predicted = left.disc == right.disc and left.signature == right.signature
    not_totally_real = left.signature[1] > 0
    return EquivalencePrediction(
        applicable=True,
        reason=None,
        predicted_same=predicted,
        isometry_claim=predicted and not_totally_real,
        exceptional_union=tuple(sorted(union)),
    )


class CrossValidation(NamedTuple):
    comparison: ComparisonResult
    prediction: EquivalencePrediction
    consistent: bool | None  # None unless both routes apply


def cross_validate(left, right):
    """Run both routes once and check they agree where both apply."""
    comparison = compare_spinor_genus(left, right)
    prediction = predict_equivalence(left, right)
    consistent = None
    if comparison.verdict != NOT_APPLICABLE and prediction.applicable:
        consistent = prediction.predicted_same == (comparison.verdict == SAME)
    return CrossValidation(
        comparison=comparison,
        prediction=prediction,
        consistent=consistent,
    )
