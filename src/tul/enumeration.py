"""Enumeration of coverings over S_k, minimal covering graphs, and exact
Catalan/Narayana combinatorics.

A covering of a D-colored graph B is a pairing tau in S_k, and its
(0,i)-faces are the cycles of tau^-1 sigma_i: they depend on k and sigma_i
alone.  They are the cycles of the inverse pi = sigma_i^-1 tau, and
`_face_column` counts them for every tau at once by shrinking the table
sigma_i^-1 one entry of tau at a time in numpy: the entry chosen either
makes 0 a fixed point of pi or, after one transposition that splits 0 off
its cycle, leaves a table one entry shorter with as many cycles.  So the
count is 1 plus the fixed points met on the way, and the int8 column is
cached per sigma_i.  A pass sorts the rows once by the columns of B's
colors, in B's own order, with the stable np.lexsort: each run of equal
rows is one face vector, in lexicographic order, its length is the
vector's multiplicity, and its first element is the vector's smallest row.
`covering_pass` reads one record, `CoveringPass`, off the runs:

  histogram  {zero_faces: multiplicity}, the whole finite-N Wick sum
  gamma      the maximal total face count, the leading power of N
  members    the face-maximizing coverings, which carry the leading term;
             the record keeps their rows and face vectors, so count needs no
             tuple, and builds the (tau, zero_faces) pairs on first read

Graphs whose sigma rows repeat share columns: every (m,n)-cycle of one k
reads the same two, the identity and the shift.  Gamma, the
Catalan/Narayana counts, the exact leading coefficient (`face_sum` over
`minimal_faces`) and the exact Wick integer all come from the one cached
pass per graph.

Graphs must be connected and have k <= MAX_K = 9, i.e. at most 362,880
coverings.  Both are checked before any column is computed.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .families import CycleSpec, make_cycle_graph
from .graphs import ColoredGraph, e_notation, is_connected, side_ratios
from .permutations import Perm, inverse

# The largest k a pass accepts.  A resource limit, not a tuning knob: a
# pass costs k!, and one cold pass at k=10 takes 0.2-0.8 s and 108-128 MB
# (2 vCPUs, numpy 2.4).
MAX_K = 9

# Passes that stay cached, per graph.  A bound on memory, not a tuning knob:
# every consumer of one graph runs back to back, so a few slots suffice.
_CACHED_GRAPHS = 4

# Face columns that stay cached, per sigma_i.  A bound on memory, not a
# tuning knob: a column holds k! bytes, and no other table of S_k is kept
# to build one, so all columns take at most 32 * 9! bytes = 11.6 MB.
_CACHED_COLUMNS = 32


@dataclass(frozen=True, eq=False)
class CoveringPass:
    """What one pass over S_k yields for a graph.

    histogram maps each per-color zero-face vector to the number of pairings
    that have it, so its values sum to k!.  gamma is the maximal total face
    count, and members holds every pairing that attains it as a pair (tau,
    zero_faces), in lexicographic order; each zero_faces sums to gamma.

    The pass keeps only the members' rows of lexicographic S_k and their
    face vectors, so count is their number, and members is built from them
    the first time it is read.
    """

    histogram: Mapping[tuple[int, ...], int]
    gamma: int
    _k: int = field(repr=False)
    _rows: np.ndarray = field(repr=False)
    _member_faces: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self._rows)

    @functools.cached_property
    def members(self) -> tuple[tuple[Perm, tuple[int, ...]], ...]:
        taus = _lex_perms(self._k)[self._rows].tolist()
        return tuple((tuple(tau), tuple(zero))
                     for tau, zero in zip(taus, self._member_faces.tolist()))


@functools.lru_cache(maxsize=None)
def _lex_perms(m: int) -> np.ndarray:
    """S_m as the rows of a read-only int8 (m!, m) array, in lexicographic
    order."""
    if m == 0:
        out = np.zeros((1, 0), dtype=np.int8)
    else:
        sub = _lex_perms(m - 1)
        out = np.empty((m, len(sub), m), dtype=np.int8)
        for first in range(m):
            # the tail runs over S_{m-1} on the entries other than first:
            # those of sub at or past first move up by one
            out[first, :, 0] = first
            np.add(sub, sub >= first, out=out[first, :, 1:])
        out = out.reshape(-1, m)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=_CACHED_COLUMNS)
def _face_column(table: Perm) -> np.ndarray:
    """The cycle count of tau^-1 sigma_i for every tau of S_k, in
    lexicographic order, as a read-only int8 (k!,) column; table is
    sigma_i^-1, and its length is k.

    tau^-1 sigma_i has the cycles of its inverse pi = table[tau], and the
    table shrinks by one entry per entry of tau.  Choosing tau's next entry
    a fixes pi(0) = table[a] = v.  If v = 0, 0 is a fixed point of pi;
    otherwise (0 v) pi fixes 0 and has one cycle more than pi.  Either way
    the rest is the table on the entries other than a, in order, with the
    entry that mapped to 0 now mapping to v and every value one lower.  So
    the column is 1 plus the number of zeros chosen along the way, and each
    level takes the (n, m) tables of the prefixes so far to (n m, m-1).
    """
    k = len(table)
    tables = np.array(table, dtype=np.int8).reshape(1, k)
    column = np.ones(1, dtype=np.int8)
    for m in range(k, 1, -1):  # m entries remain after each prefix
        column = (column[:, None] + (tables == 0)).ravel()
        if m > 2:  # the one entry left at m = 1 is the 1 counted at the start
            # row a of drop holds 0..m-1 without a: the entries left after a
            j = np.arange(m - 1)
            drop = j + (j >= np.arange(m).reshape(m, 1))
            rest = np.take(tables, drop, axis=1)
            zero = rest == 0
            rest -= 1
            rest += zero * tables[:, :, None]
            tables = rest.reshape(-1, m - 1)
    column.flags.writeable = False
    return column


def _columns(B: ColoredGraph) -> tuple[np.ndarray, ...]:
    """The cached int8 (k!,) zero-face column of each color, in B's own order."""
    return tuple(_face_column(inverse(s)) for s in B.sigma)


def _faces(B: ColoredGraph) -> np.ndarray:
    """The (k!, D) int8 zero-face counts of every pairing: B's columns stacked."""
    return np.stack(_columns(B), axis=1)


def _check_graph(B: ColoredGraph):
    if not is_connected(B):
        raise ValueError("the covering sweep expects a connected graph")
    if B.k > MAX_K:
        raise ValueError(
            f"k={B.k} exceeds the enumeration cap ({MAX_K}): "
            f"{B.k}! = {e_notation(math.lgamma(B.k + 1) / math.log(10))} pairings"
        )


@functools.lru_cache(maxsize=_CACHED_GRAPHS)
def covering_pass(B: ColoredGraph) -> CoveringPass:
    """The face histogram and minimal coverings of B, read off one lexsort
    of its face columns.

    np.lexsort orders the rows by their face vectors, first color first, and
    is stable, so a run of equal vectors, in lexicographic order, is one
    histogram entry: its length is the vector's multiplicity, and its first
    element is the vector's smallest row, which the vector is read from.
    gamma is the largest total over those few vectors, summed as Python
    ints, and the members are the rows of the runs of that total, merged in
    row order, which is lexicographic order of S_k; the record keeps those
    rows and their face vectors, and builds the member pairings only when
    they are read.

    Each color's column is cached by sigma_i alone, so graphs that share a
    sigma row at one k share its column: all (m,n)-cycles of one k read the
    same two.  The result is cached per graph as well, since the consumers of
    one graph call this back to back.
    """
    _check_graph(B)
    columns = _columns(B)
    order = np.lexsort(columns[::-1])
    change = np.zeros(len(order) - 1, dtype=bool)
    for column in columns:
        ordered = np.take(column, order)
        change |= ordered[1:] != ordered[:-1]
    bounds = [0, *(np.flatnonzero(change) + 1).tolist(), len(order)]
    firsts = order[bounds[:-1]]
    zeros = list(zip(*(column[firsts].tolist() for column in columns)))
    totals = list(map(sum, zeros))
    gamma = max(totals)
    histogram = {zero: end - start for zero, start, end in zip(zeros, bounds, bounds[1:])}
    rows = np.sort(np.concatenate([order[start:end] for start, end, total
                                   in zip(bounds, bounds[1:], totals) if total == gamma]))
    member_faces = np.stack([column[rows] for column in columns], axis=1)
    rows.flags.writeable = member_faces.flags.writeable = False
    return CoveringPass(histogram=MappingProxyType(histogram), gamma=gamma,
                        _k=B.k, _rows=rows, _member_faces=member_faces)


# enumerate_coverings and limit_coefficient are run by no consumer and are
# not exported from tul: the benchmark harness traces them under these names
# until its metrics move to the face column and face_sum (ROADMAP item 8).
def enumerate_coverings(B: ColoredGraph) -> Iterator[tuple[Perm, tuple[int, ...]]]:
    """Yield (tau, zero_faces) for every tau in S_k, in lexicographic order."""
    _check_graph(B)
    perms, faces = _lex_perms(B.k), _faces(B)
    rows = len(perms) // B.k  # converted to lists (k-1)! rows at a time
    for start in range(0, len(perms), rows):
        block = slice(start, start + rows)
        for tau, zero in zip(perms[block].tolist(), faces[block].tolist()):
            yield tuple(tau), tuple(zero)


def minimal_coverings(B: ColoredGraph) -> CoveringPass:
    """covering_pass(B) itself, whose members are the face-maximizing coverings."""
    return covering_pass(B)


def minimal_faces(B: ColoredGraph) -> dict[tuple[int, ...], int]:
    """{zero_faces: count} over the minimal coverings of B: the face
    histogram of covering_pass restricted to the vectors of total gamma."""
    sweep = covering_pass(B)
    return {zero: n for zero, n in sweep.histogram.items() if sum(zero) == sweep.gamma}


def face_sum(faces: Mapping[tuple[int, ...], int], c) -> Fraction:
    """sum over faces of count * prod_i c_i^f_i, exactly.

    c holds exact side ratios, or the Wick sum's integer side lengths.  With
    c_i = p_i/q_i, every term is put over the common denominator
    prod_i q_i^max(f_i), so the sum is one integer numerator and one division.
    """
    top = [max(zero[i] for zero in faces) for i in range(len(c))]
    numerator = sum(
        n * math.prod(x.numerator ** f * x.denominator ** (t - f) for x, f, t in zip(c, zero, top))
        for zero, n in faces.items())
    return Fraction(numerator, math.prod(x.denominator ** t for x, t in zip(c, top)))


def limit_coefficient(B: ColoredGraph, c) -> Fraction:
    """face_sum over the minimal coverings of B at the side ratios c; kept,
    like enumerate_coverings, only for the benchmark harness."""
    return face_sum(minimal_faces(B), side_ratios(c, B.D))


# ---------------------------------------------------------------------------
# Catalan / Narayana combinatorics (exact integers)
# ---------------------------------------------------------------------------

def catalan(k: int) -> int:
    """C_k = binom(2k, k) / (k+1), exact."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return math.comb(2 * k, k) // (k + 1)


def narayana_row(k: int) -> list[int]:
    """The Narayana row [N_{k,1}, ..., N_{k,k}], N_{k,l} = (1/k) binom(k, l)
    binom(k, l-1), by N_{k,1} = 1 and N_{k,l+1} = N_{k,l} (k-l)(k-l+1) /
    (l(l+1)), one exact integer division per entry."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    row = [1]
    for l in range(1, k):
        row.append(row[-1] * (k - l) * (k - l + 1) // (l * (l + 1)))
    return row


def _is_two_color_cycle(B: ColoredGraph) -> bool:
    # the rows of the (1,1)-cycle at B's k, in either order
    return B.D == 2 and set(B.sigma) == set(
        make_cycle_graph(CycleSpec(k=B.k, m_colors={1}, n_colors={2})).sigma)


def narayana_face_distribution(B: ColoredGraph, anchor_color: int) -> dict[int, int]:
    """Histogram {l: count} of zero_faces[anchor_color] over minimal coverings.

    Only defined for two-color cycle graphs, where the histogram is the
    Narayana row N_{k, .}.
    """
    if not _is_two_color_cycle(B):
        raise ValueError("narayana_face_distribution expects a two-color cycle graph")
    if anchor_color not in (1, 2):
        raise ValueError(f"anchor color must be 1 or 2, got {anchor_color}")
    hist: Counter = Counter()
    for zero, n in minimal_faces(B).items():
        hist[zero[anchor_color - 1]] += n
    return dict(sorted(hist.items()))
