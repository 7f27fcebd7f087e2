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
_kind maps a spec kind to its family label and histogram, for predict and
cross_check alike.  cross_check compares the two histograms themselves, and
their exact face sums only where they differ, so a passing check evaluates
no coefficient; its report evaluates one only when it is read.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

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


def _kind(spec):
    """The family label, closed-form or enumerated face histogram, and graph
    builder of a MelonicRecipe ("melonic"), a CycleSpec ("cycle_11",
    "cycle_mm" or "cycle_mn") or a ColoredGraph ("generic", no builder): the
    one place that maps a spec kind to its family, for predict and
    cross_check alike."""
    if isinstance(spec, MelonicRecipe):
        return "melonic", melonic_faces, make_melonic
    if isinstance(spec, CycleSpec):
        family = "cycle_mn" if spec.m != spec.n else "cycle_11" if spec.m == 1 else "cycle_mm"
        return family, cycle_faces, make_cycle_graph
    if isinstance(spec, ColoredGraph):
        return "generic", minimal_faces, None
    raise TypeError(f"spec must be MelonicRecipe, CycleSpec or ColoredGraph, got {type(spec)}")


def predict(spec, c) -> AsymptoticPrediction:
    """The leading term of a MelonicRecipe, a CycleSpec or a ColoredGraph at
    the side ratios c, read off the face histogram that _kind picks.  c is
    read first, so that a bad one is refused before any Narayana row is built
    or covering pass run."""
    family, faces, _ = _kind(spec)
    c = side_ratios(c, spec.D)
    return _prediction(family, faces(spec), c)


@dataclass(frozen=True)
class CrossCheckReport:
    """The closed-form and the enumerated minimal-covering face histograms of
    one graph, and the exact side ratios c they are weighed at.

    gamma and the count of each side are read off its histogram.  The
    coefficients are evaluated, and rounded to a float as predict does, only
    when first read: a passing check needs none of them, and equal histograms
    give coeff_enum the closed side's float without a second evaluation.
    """

    family: str
    faces_closed: Mapping[tuple[int, ...], int]
    faces_enum: Mapping[tuple[int, ...], int]
    c: tuple[Fraction, ...]

    @property
    def gamma_closed(self) -> int:
        return sum(next(iter(self.faces_closed)))

    @property
    def gamma_enum(self) -> int:
        return sum(next(iter(self.faces_enum)))

    @property
    def count_closed(self) -> int:
        return sum(self.faces_closed.values())

    @property
    def count_enum(self) -> int:
        return sum(self.faces_enum.values())

    @functools.cached_property
    def coeff_closed(self) -> float:
        return _prediction(self.family, self.faces_closed, self.c).coefficient

    @functools.cached_property
    def coeff_enum(self) -> float:
        if self.faces_enum == self.faces_closed:
            return self.coeff_closed
        return _prediction(self.family, self.faces_enum, self.c).coefficient


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

    family_spec is a CycleSpec or MelonicRecipe and must actually produce B;
    c is read by side_ratios before either histogram is built.  gamma, count
    and the exact coefficient must all match exactly.  Equal face histograms
    give equal coefficients, so the exact face sums are compared only when
    the histograms differ, and a passing check evaluates no coefficient:
    the report's coefficients are floats evaluated on first read.  Success
    returns the report; any mismatch raises CrossCheckError.
    """
    if not isinstance(family_spec, (CycleSpec, MelonicRecipe)):
        raise TypeError(f"family_spec must be CycleSpec or MelonicRecipe, got {type(family_spec)}")
    family, faces, build = _kind(family_spec)
    if B != build(family_spec):
        raise ValueError(f"graph does not match the "
                         f"{'melonic recipe' if family == 'melonic' else 'cycle spec'}")
    c = side_ratios(c, B.D)
    report = CrossCheckReport(family=family, faces_closed=faces(family_spec),
                              faces_enum=minimal_faces(B), c=c)
    if not (report.gamma_closed == report.gamma_enum
            and report.count_closed == report.count_enum
            and (report.faces_enum == report.faces_closed
                 or face_sum(report.faces_enum, c) == face_sum(report.faces_closed, c))):
        raise CrossCheckError(report)
    return report
