"""Closed-form leading asymptotics for the special graph families, plus a
cross-check harness that replays every claim against brute-force enumeration.

For a D-colored graph B with k white vertices the averaged invariant grows
like coefficient * N^gamma; gamma and the coefficient depend only on the
minimal covering graphs.  The families covered here:

  melonic      gamma = 1 + k(D-1), unique minimal covering with
               k - (cuts of color i) faces on color i
  (m,m)-cycle  gamma = m(k+1), C_k minimal coverings, Narayana-weighted
  (m,n)-cycle  gamma = nk + m for m < n, unique minimal covering

Each closed form is the minimal-covering face histogram it predicts, built
from the family spec alone (melonic_faces, cycle_faces) with no covering
sweep.  gamma is the total of any of its face vectors.  A coefficient is such
a histogram evaluated exactly by enumeration.face_sum, then rounded once to
the nearest float by _prediction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .enumeration import face_sum, minimal_faces, narayana_row
from .families import CycleSpec, MelonicRecipe, make_cycle_graph, make_melonic
from .graphs import ColoredGraph, e_notation, side_ratios


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading behavior coefficient * N^gamma of the averaged invariant."""

    gamma: int
    coefficient: float
    family: str


# A coefficient whose estimated log10 lies 20 decades outside the double
# range (subnormals included) is refused before its exact sum is built: for
# the (1,1)-cycle at k=2000 and c_i = 1e200 that sum multiplies 400,000-digit
# integers for minutes.
_LOG10_RANGE = (-324 - 20, 308 + 20)


def _log10_size(faces, c) -> float:
    """log10 of face_sum(faces, c), in floats: the terms are positive, so
    their logs are summed as max + log10 sum 10^(term - max)."""
    logs = [math.log10(x.numerator) - math.log10(x.denominator) for x in c]
    terms = [math.log10(n) + math.fsum(f * x for f, x in zip(zero, logs))
             for zero, n in faces.items()]
    top = max(terms)
    return top + math.log10(math.fsum(10.0 ** (t - top) for t in terms))


def _prediction(family: str, faces, c) -> AsymptoticPrediction:
    """The prediction with the float nearest to the exact, positive
    coefficient face_sum(faces, c).  faces is a minimal-covering histogram,
    so its vectors share one total, gamma.

    The one float conversion and range guard: a float of 0.0 or inf means the
    coefficient left the double range, and the refusal gives its size in
    graphs.e_notation, as the enumeration cap does.  Far outside that range
    the float estimate of log10 decides alone.
    """
    size = _log10_size(faces, c)
    if size > _LOG10_RANGE[1]:
        value = math.inf
    elif size < _LOG10_RANGE[0]:
        value = 0.0
    else:
        try:
            value = float(face_sum(faces, c))
        except OverflowError:
            value = math.inf
    if value == 0.0 or value == math.inf:
        raise ValueError(f"the {family} coefficient ~{e_notation(size)} "
                         f"{'overflows' if value else 'underflows'} a float to {value}")
    return AsymptoticPrediction(gamma=sum(next(iter(faces))), coefficient=value, family=family)


def melonic_faces(recipe: MelonicRecipe) -> dict[tuple[int, ...], int]:
    """The minimal-covering face histogram {zero_faces: 1} that the closed
    form predicts for make_melonic(recipe).

    The dipole has one face on every color.  A cut of color c inserts a
    melon whose two vertices the dominant covering pairs, which adds one
    face on every color but c; so f_i = k - (cuts of color i), with total
    Dk - (k-1) = 1 + k(D-1) = gamma.
    """
    cuts = Counter(color for color, _ in recipe.steps)
    return {tuple(recipe.k - cuts[i] for i in range(1, recipe.D + 1)): 1}


def predict_melonic(recipe: MelonicRecipe, c) -> AsymptoticPrediction:
    """gamma = 1 + k(D-1); the coefficient is prod_i c_i^f_i over the face
    counts of melonic_faces(recipe)."""
    return _prediction("melonic", melonic_faces(recipe), side_ratios(c, recipe.D))


def cycle_faces(spec: CycleSpec) -> dict[tuple[int, ...], int]:
    """The minimal-covering face histogram {zero_faces: count} that the
    closed form predicts for an (m,n)-cycle.

    m = n: N_{k,l} coverings with l faces on every m-color and k-l+1 on
    every n-color, for l = 1..k (C_k in all).  m != n: a single covering,
    with 1 face on every color of the smaller set and k on the larger.
    """
    k = spec.k
    if spec.m == spec.n:
        return {tuple(l if i in spec.m_colors else k - l + 1 for i in range(1, spec.D + 1)): n
                for l, n in enumerate(narayana_row(k), start=1)}
    fewer = spec.m_colors if spec.m < spec.n else spec.n_colors
    return {tuple(1 if i in fewer else k for i in range(1, spec.D + 1)): 1}


def predict_cycle(spec: CycleSpec, c) -> AsymptoticPrediction:
    """gamma = m(k+1) for m = n and max(m,n) k + min(m,n) otherwise; the
    coefficient is cycle_faces(spec) evaluated at the side ratios, so for
    m = n it is sum_l N_{k,l} P^l Q^{k-l+1} with P, Q the products of the
    ratios over the m- and n-colors."""
    c = side_ratios(c, spec.D)
    family = "cycle_mn" if spec.m != spec.n else "cycle_11" if spec.m == 1 else "cycle_mm"
    return _prediction(family, cycle_faces(spec), c)


def predict_generic(B: ColoredGraph, c) -> AsymptoticPrediction:
    """Enumeration-backed prediction for graphs outside the named families."""
    return _prediction("generic", minimal_faces(B), side_ratios(c, B.D))


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
    gamma, count and the exact coefficient must all match exactly; equal
    face histograms give equal coefficients, so the enumerated one is only
    evaluated when they differ.  Success returns the report; any mismatch
    raises CrossCheckError.
    """
    if isinstance(family_spec, MelonicRecipe):
        if B != make_melonic(family_spec):
            raise ValueError("graph does not match the melonic recipe")
        closed = predict_melonic(family_spec, c)
        faces = melonic_faces(family_spec)
    elif isinstance(family_spec, CycleSpec):
        if B != make_cycle_graph(family_spec):
            raise ValueError("graph does not match the cycle spec")
        closed = predict_cycle(family_spec, c)
        faces = cycle_faces(family_spec)
    else:
        raise TypeError(f"family_spec must be CycleSpec or MelonicRecipe, got {type(family_spec)}")

    enum = minimal_faces(B)
    coeff_match, coeff_enum = True, closed.coefficient
    if enum != faces:
        c = side_ratios(c, B.D)
        if face_sum(enum, c) != face_sum(faces, c):
            coeff_match = False
            coeff_enum = _prediction(closed.family, enum, c).coefficient
    report = CrossCheckReport(
        family=closed.family,
        gamma_closed=closed.gamma, gamma_enum=sum(next(iter(enum))),
        count_closed=sum(faces.values()), count_enum=sum(enum.values()),
        coeff_closed=closed.coefficient, coeff_enum=coeff_enum,
    )
    if not (coeff_match and report.gamma_closed == report.gamma_enum
            and report.count_closed == report.count_enum):
        raise CrossCheckError(report)
    return report
