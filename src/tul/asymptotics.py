"""The leading term coefficient * N^gamma of the averaged invariant of a
D-colored graph with k white vertices, and a cross-check harness that replays
every closed form against brute-force enumeration.

predict(spec, c) reads gamma and the coefficient off the minimal-covering
face histogram of a family spec or of a graph:

  melonic      melonic_faces: gamma = 1 + k(D-1), unique minimal covering
               with k - (cuts of color i) faces on color i
  (m,m)-cycle  cycle_faces: gamma = m(k+1), C_k Narayana-weighted coverings
  (m,n)-cycle  cycle_faces: gamma = nk + m for m < n, unique minimal covering
  any graph    enumeration.minimal_faces, from one covering pass

The closed forms need no covering sweep.  gamma is the total of any face
vector; the coefficient is the histogram evaluated exactly by
enumeration.face_sum, then rounded once to the nearest float by _prediction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .enumeration import face_sum, minimal_faces, narayana_row
from .families import CycleSpec, MelonicRecipe, make_cycle_graph, make_melonic
from .graphs import ColoredGraph, e_notation, side_ratios


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading behavior coefficient * N^gamma of the averaged invariant, and
    the minimal-covering face histogram it is read from."""

    gamma: int
    coefficient: float
    family: str
    faces: dict[tuple[int, ...], int] = field(repr=False, compare=False)


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
    return AsymptoticPrediction(gamma=sum(next(iter(faces))), coefficient=value, family=family,
                                faces=faces)


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


def predict(spec, c) -> AsymptoticPrediction:
    """The leading term of a MelonicRecipe ("melonic"), a CycleSpec
    ("cycle_11", "cycle_mm" or "cycle_mn") or a ColoredGraph ("generic") at
    the side ratios c: the one place that maps a spec kind to its family and
    face histogram.  c is read first, so that a bad one is refused before any
    Narayana row is built or covering pass run."""
    if isinstance(spec, MelonicRecipe):
        family, faces = "melonic", melonic_faces
    elif isinstance(spec, CycleSpec):
        family = "cycle_mn" if spec.m != spec.n else "cycle_11" if spec.m == 1 else "cycle_mm"
        faces = cycle_faces
    elif isinstance(spec, ColoredGraph):
        family, faces = "generic", minimal_faces
    else:
        raise TypeError(f"spec must be MelonicRecipe, CycleSpec or ColoredGraph, got {type(spec)}")
    c = side_ratios(c, spec.D)
    return _prediction(family, faces(spec), c)


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
        build, what = make_melonic, "melonic recipe"
    elif isinstance(family_spec, CycleSpec):
        build, what = make_cycle_graph, "cycle spec"
    else:
        raise TypeError(f"family_spec must be CycleSpec or MelonicRecipe, got {type(family_spec)}")
    if B != build(family_spec):
        raise ValueError(f"graph does not match the {what}")

    closed, enum = predict(family_spec, c), minimal_faces(B)
    coeff_match, coeff_enum = True, closed.coefficient
    if enum != closed.faces:
        c = side_ratios(c, B.D)
        if face_sum(enum, c) != face_sum(closed.faces, c):
            coeff_match = False
            coeff_enum = _prediction(closed.family, enum, c).coefficient
    report = CrossCheckReport(
        family=closed.family,
        gamma_closed=closed.gamma, gamma_enum=sum(next(iter(enum))),
        count_closed=sum(closed.faces.values()), count_enum=sum(enum.values()),
        coeff_closed=closed.coefficient, coeff_enum=coeff_enum,
    )
    if not (coeff_match and report.gamma_closed == report.gamma_enum
            and report.count_closed == report.count_enum):
        raise CrossCheckError(report)
    return report
