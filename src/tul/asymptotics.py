"""Closed-form leading asymptotics for the special graph families, plus a
cross-check harness that replays every claim against brute-force enumeration.

For a D-colored graph B with k white vertices the averaged invariant grows
like coefficient * N^gamma; gamma and the coefficient depend only on the
minimal covering graphs.  The families covered here:

  melonic      gamma = 1 + k(D-1), unique minimal covering
  (m,m)-cycle  gamma = m(k+1), C_k minimal coverings, Narayana-weighted
  (m,n)-cycle  gamma = nk + m for m < n, unique minimal covering
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .enumeration import catalan, check_ratios, limit_coefficient, minimal_coverings, narayana
from .families import CycleSpec, MelonicRecipe, is_melonic, make_cycle_graph, make_melonic
from .graphs import ColoredGraph

_FAMILIES = ("melonic", "cycle_11", "cycle_mm", "cycle_mn", "generic")


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading behavior coefficient * N^gamma of the averaged invariant."""

    gamma: int
    coefficient: float
    family: str

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not self.coefficient > 0:
            raise ValueError(f"coefficient must be positive, got {self.coefficient}")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family tag {self.family!r}")


def _prediction(gamma: int, family: str, c, coefficient) -> AsymptoticPrediction:
    """The prediction with coefficient(), unless floats cannot hold it.

    The ratios are positive and finite, so the exact coefficient is too; a
    float result of 0, inf or nan, or an OverflowError, means it left the
    double range.
    """
    try:
        value = coefficient()
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(
            f"the {family} coefficient for side ratios {[str(x) for x in c]} is positive "
            f"and finite, but float underflow or overflow makes it {value!r}"
        )
    return AsymptoticPrediction(gamma=gamma, coefficient=value, family=family)


def melonic_exponents(B: ColoredGraph) -> tuple[int, ...]:
    """Per-color zero-face counts of the unique minimal covering.

    There is no closed form for the split of gamma across colors, only for
    the total, so the exponents come from enumeration.
    """
    mcs = minimal_coverings(B)
    if mcs.count != 1:
        raise ValueError(
            f"expected a unique minimal covering, found {mcs.count}; graph is not melonic"
        )
    return mcs.members[0][1].zero_faces


def predict_melonic(B: ColoredGraph, c) -> AsymptoticPrediction:
    """gamma = 1 + k(D-1); coefficient = prod_i c_i^f_i over the unique
    minimal covering's per-color face counts.

    The exponents come from melonic_exponents.  With all ratios equal they
    are not needed at all, since the coefficient collapses to c^gamma.
    """
    if not is_melonic(B):
        raise ValueError("predict_melonic expects a melonic graph")
    c = check_ratios(c, B.D)
    gamma = 1 + B.k * (B.D - 1)
    if len(set(c)) == 1:
        return _prediction(gamma, "melonic", c, lambda: c[0] ** gamma)
    exponents = melonic_exponents(B)
    if len(exponents) != B.D or sum(exponents) != gamma:
        raise ValueError(
            f"face exponents {exponents} do not sum to gamma={gamma} over {B.D} colors"
        )
    return _prediction(gamma, "melonic", c,
                       lambda: math.prod(ci ** f for ci, f in zip(c, exponents)))


def predict_cycle_mm(spec: CycleSpec, c) -> AsymptoticPrediction:
    """m = n case: gamma = m(k+1) and a Narayana-weighted coefficient.

    The coefficient is sum_l N_{k,l} P^l Q^{k-l+1} with P, Q the products of
    the ratios over the identity-row and shift-row colors; all C_k minimal
    coverings contribute.
    """
    if spec.m != spec.n:
        raise ValueError(f"predict_cycle_mm needs m = n, got m={spec.m}, n={spec.n}")
    c = check_ratios(c, spec.D)
    k = spec.k
    P = math.prod(c[i - 1] for i in spec.m_colors)
    Q = math.prod(c[i - 1] for i in spec.n_colors)
    family = "cycle_11" if spec.m == 1 else "cycle_mm"
    return _prediction(spec.m * (k + 1), family, c, lambda: math.fsum(
        narayana(k, l) * P ** l * Q ** (k - l + 1) for l in range(1, k + 1)))


def predict_cycle_mn(spec: CycleSpec, c) -> AsymptoticPrediction:
    """m < n case: gamma = nk + m, unique minimal covering, coefficient
    (prod over identity colors of c_i) * (prod over shift colors of c_i^k)."""
    if spec.m >= spec.n:
        raise ValueError(f"predict_cycle_mn needs m < n, got m={spec.m}, n={spec.n}")
    c = check_ratios(c, spec.D)
    P = math.prod(c[i - 1] for i in spec.m_colors)
    return _prediction(spec.n * spec.k + spec.m, "cycle_mn", c,
                       lambda: P * math.prod(c[i - 1] ** spec.k for i in spec.n_colors))


def predict_cycle(spec: CycleSpec, c) -> AsymptoticPrediction:
    """Dispatch on the split.  m > n is handled by exchanging the roles of
    the two color sets, which preserves all per-color face counts."""
    if spec.m == spec.n:
        return predict_cycle_mm(spec, c)
    if spec.m < spec.n:
        return predict_cycle_mn(spec, c)
    swapped = CycleSpec(k=spec.k, m_colors=spec.n_colors, n_colors=spec.m_colors)
    return predict_cycle_mn(swapped, c)


def predict_generic(B: ColoredGraph, c) -> AsymptoticPrediction:
    """Enumeration-backed prediction for graphs outside the named families."""
    c = check_ratios(c, B.D)
    return _prediction(minimal_coverings(B).gamma, "generic", c,
                       lambda: limit_coefficient(B, c))


@dataclass(frozen=True)
class CrossCheckReport:
    family: str
    gamma_closed: int
    gamma_enum: int
    count_closed: int
    count_enum: int
    coeff_closed: float
    coeff_enum: float


class CrossCheckError(AssertionError):
    """Closed form and enumeration disagree; carries the full diff."""

    def __init__(self, report: CrossCheckReport):
        self.report = report
        super().__init__(
            f"closed form vs enumeration mismatch for family {report.family}: "
            f"gamma {report.gamma_closed} vs {report.gamma_enum}, "
            f"count {report.count_closed} vs {report.count_enum}, "
            f"coefficient {report.coeff_closed!r} vs {report.coeff_enum!r}"
        )


def cross_check(B: ColoredGraph, family_spec, c) -> CrossCheckReport:
    """Replay a family's closed-form gamma, minimal-covering count, and limit
    coefficient against brute-force enumeration of B.

    family_spec is a CycleSpec or MelonicRecipe and must actually produce B.
    gamma and count must match exactly, the coefficient to relative 1e-12.
    Success returns the report; any mismatch raises CrossCheckError.
    """
    if isinstance(family_spec, MelonicRecipe):
        if B != make_melonic(family_spec):
            raise ValueError("graph does not match the melonic recipe")
        closed = predict_melonic(B, c)
        count_closed = 1
    elif isinstance(family_spec, CycleSpec):
        if B != make_cycle_graph(family_spec):
            raise ValueError("graph does not match the cycle spec")
        closed = predict_cycle(family_spec, c)
        count_closed = catalan(family_spec.k) if family_spec.m == family_spec.n else 1
    else:
        raise TypeError(f"family_spec must be CycleSpec or MelonicRecipe, got {type(family_spec)}")

    mcs = minimal_coverings(B)
    coeff_enum = limit_coefficient(B, c)
    report = CrossCheckReport(
        family=closed.family,
        gamma_closed=closed.gamma, gamma_enum=mcs.gamma,
        count_closed=count_closed, count_enum=mcs.count,
        coeff_closed=closed.coefficient, coeff_enum=coeff_enum,
    )
    ok = (report.gamma_closed == report.gamma_enum
          and report.count_closed == report.count_enum
          and math.isclose(report.coeff_closed, report.coeff_enum, rel_tol=1e-12, abs_tol=0.0))
    if not ok:
        raise CrossCheckError(report)
    return report
