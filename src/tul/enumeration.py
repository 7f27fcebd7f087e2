"""Enumeration of coverings over S_k, minimal covering graphs, and exact
Catalan/Narayana combinatorics.

A covering of a D-colored graph B is a pairing tau in S_k, and its
(0,i)-faces are the cycles of tau^-1 sigma_i: they depend on k and sigma_i
alone.  They are the cycles of the inverse pi = sigma_i^-1 tau, and
`_face_column` counts them for every tau at once by shrinking the table
sigma_i^-1 one entry of tau at a time in numpy: the entry chosen either
makes 0 a fixed point of pi or, after one transposition that splits 0 off
its cycle, leaves a table one entry shorter with as many cycles.  So the
count is 1 plus the fixed points met on the way.  A pass sorts the rows
once by the int8 columns of B's distinct rows with np.lexsort and keeps
only the runs of equal rows: each is one face vector, and its length is the
vector's multiplicity.  `covering_pass` puts the runs in the lexicographic
order of B's face vectors and reads one record, `CoveringPass`, off them:

  histogram  {zero_faces: multiplicity}, the whole finite-N Wick sum
  gamma      the maximal total face count, the leading power of N
  count      the number of face-maximizing coverings, the total length of
             the runs of total gamma
  members    those coverings, which carry the leading term; only `tul
             enumerate` reads them, so they are built the first time they
             are read, from B's face columns counted again, by picking
             the pairings of total gamma out of S_k in itertools' order

A color that repeats a sigma row repeats its face count, so the sort is kept
per set of distinct rows and each graph reads it back in its own colors:
every color split of every (m,n)-cycle of one k reads one sort of S_k by two
columns, the identity's and the shift's.  `_FACE_SORTS` holds one sort per
k, found by the rows alone and dropped when a graph with other rows comes at
that k, so a loop over k inside D or m sorts each cycle row set once.
Gamma, the Catalan/Narayana counts, the exact leading coefficient
(`face_sum` over `minimal_faces`) and the exact Wick integer all come from
one pass per graph, and the last pass is cached, since the consumers of one
graph read it back to back.  No table of S_k is built, and the sort's row
order is dropped once its runs are read.

Graphs must be connected and have k <= MAX_K = 9, i.e. at most 362,880
coverings.  Both are checked before any column is computed or S_k sorted.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .families import CycleSpec, cycle_rows
from .graphs import ColoredGraph, as_int, e_notation, is_connected, side_ratios
from .permutations import Perm, cycles, inverse

# The largest k a pass accepts.  A resource limit, not a tuning knob: a
# pass costs k!, and one cold pass at k=10 takes 0.2-0.8 s and 108-128 MB
# (2 vCPUs, numpy 2.4).
MAX_K = 9


@dataclass(frozen=True, eq=False)
class CoveringPass:
    """What one pass over S_k yields for a graph.

    histogram maps each per-color zero-face vector to the number of pairings
    that have it, so its values sum to k!.  gamma is the maximal total face
    count, and count is the number of pairings that attain it, the total
    multiplicity of the vectors of total gamma.  members holds those
    pairings as pairs (tau, zero_faces), in lexicographic order; each
    zero_faces sums to gamma.

    The record keeps its graph, so members, which only `tul enumerate`
    reads, is built the first time it is read, off the graph's own face
    columns: each distinct row's column is counted again and the pairings
    of total gamma are picked out of S_k as itertools walks it, so no sort
    is read or made again.
    """

    histogram: Mapping[tuple[int, ...], int]
    gamma: int
    count: int
    _graph: ColoredGraph = field(repr=False)

    @functools.cached_property
    def members(self) -> tuple[tuple[Perm, tuple[int, ...]], ...]:
        sigma = self._graph.sigma
        column = {row: _face_column(inverse(row)) for row in dict.fromkeys(sigma)}
        faces = np.stack([column[row] for row in sigma], axis=1)
        top = faces.sum(axis=1, dtype=np.int64) == self.gamma
        taus = itertools.compress(itertools.permutations(range(self._graph.k)), top.tolist())
        return tuple(zip(taus, map(tuple, faces[top].tolist())))


def _face_column(table: Perm) -> np.ndarray:
    """The cycle count of tau^-1 sigma_i for every tau of S_k, in
    lexicographic order, as an int8 (k!,) column; table is sigma_i^-1, and
    its length is k.

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
    return column


def _check_graph(B: ColoredGraph):
    if not is_connected(B):
        raise ValueError("the covering sweep expects a connected graph")
    if B.k > MAX_K:
        raise ValueError(
            f"k={B.k} exceeds the enumeration cap ({MAX_K}): "
            f"{B.k}! = {e_notation(math.lgamma(B.k + 1) / math.log(10))} pairings"
        )


# One sort per k, as {k: (rows, (vectors, lengths))}, so a loop over k inside
# D or m, as in verify._cycle_specs, sorts each k's cycle rows once.  A bound
# on memory, not a tuning knob.  A sort of R distinct rows keeps R + 4 bytes
# per run, and there are at most k! runs: at k=9, 150 bytes for a cycle's
# two rows, about 15 kB for six random rows and 13 MB for 32.  S_k's row
# order is not kept.  The arrays stay numpy's: as Python lists that sort
# would take more than 100 MB.
_FACE_SORTS: dict[int, tuple[tuple[Perm, ...], tuple[np.ndarray, np.ndarray]]] = {}


def _face_sort(k: int, rows: tuple[Perm, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The runs of S_k sorted by the face vectors of the distinct, sorted
    sigma rows rows: each run's vector, as a read-only int8 (runs,
    len(rows)) array in lexicographic order, and its length, as a read-only
    uint32 array.

    np.lexsort orders the pairings by their face columns, first row first,
    and a run starts wherever a column changes between neighbours; the
    order and the run bounds are dropped once the runs are read.  Every
    graph with these rows reads this one sort, whatever its colors, and has
    their connectivity: the sort is kept in _FACE_SORTS, found by the rows
    alone, until other rows come at k, and the graph check runs only before
    a sort is made, ahead of any column.
    """
    held = _FACE_SORTS.get(k)
    if held is not None and held[0] == rows:
        return held[1]
    _FACE_SORTS.pop(k, None)  # the old sort goes before the new one is made
    _check_graph(ColoredGraph(k=k, sigma=rows))
    columns = [_face_column(inverse(s)) for s in rows]
    order = np.lexsort(columns[::-1])
    change = np.zeros(len(order) - 1, dtype=bool)
    for column in columns:
        ordered = column[order]
        change |= ordered[1:] != ordered[:-1]
    bounds = np.flatnonzero(np.concatenate(([True], change, [True])))
    vectors = np.stack([column[order[bounds[:-1]]] for column in columns], axis=1)
    lengths = np.diff(bounds).astype(np.uint32)
    vectors.flags.writeable = lengths.flags.writeable = False
    _FACE_SORTS[k] = (rows, (vectors, lengths))
    return vectors, lengths


# Keeps one record: every consumer of one graph reads it back to back
# (cross_check; tul verify's minimal_coverings, then narayana_face_distribution
# or cross_check; tul enumerate).  A bound on memory: a record's histogram
# holds a tuple per distinct face vector, at most k! of them, and takes
# 128 MB for a k=9 graph of 32 random rows.
@functools.lru_cache(maxsize=1)
def covering_pass(B: ColoredGraph) -> CoveringPass:
    """The face histogram, gamma and minimal-covering count of B, read back
    off the sort of S_k by the face columns of its distinct sigma rows.

    Each color's face vector entry is its row's, so a run of the sort is one
    face vector of B, and the few runs are put in B's lexicographic order,
    which is the sort's own when B's distinct rows first come in sorted
    order, as in every (m,n)-cycle whose color 1 is an identity: each run is
    one histogram entry, whose length is the vector's multiplicity.  gamma
    is the largest total over those vectors, summed as Python ints over B's
    colors, and count is the total length of the runs of that total.  The
    record keeps B, and its member pairings are built from B's own face
    columns only when they are read.

    The sort is kept by the set of rows alone, so every graph with the
    same rows reads one sort, whatever its colors: all color splits of the
    (m,n)-cycles of one k read one.  Only the last record is cached, since
    the consumers of one graph call this back to back: a caller that holds
    the record keeps it, and a graph read again after another is read again
    off its sort.
    """
    firsts = tuple(dict.fromkeys(B.sigma))  # the distinct rows, by first color
    distinct = tuple(sorted(firsts))
    vectors, lengths = _face_sort(B.k, distinct)
    at = {row: i for i, row in enumerate(distinct)}
    faces = vectors.take([at[row] for row in B.sigma], axis=1)
    if firsts != distinct:
        runs = np.lexsort([vectors[:, at[row]] for row in firsts[::-1]])
        faces, lengths = faces.take(runs, axis=0), lengths.take(runs)
    histogram = dict(zip(map(tuple, faces.tolist()), lengths.tolist()))
    totals = list(map(sum, histogram))
    gamma = max(totals)
    count = sum(n for total, n in zip(totals, histogram.values()) if total == gamma)
    return CoveringPass(histogram=MappingProxyType(histogram), gamma=gamma, count=count,
                        _graph=B)


# enumerate_coverings and limit_coefficient are run by no consumer and are
# not exported from tul: the benchmark harness traces them under these names
# until its metrics move to the face column and face_sum (ROADMAP item 9).
# enumerate_coverings counts each pairing's cycles itself: it shares no code
# with the pass but the graph check.
def enumerate_coverings(B: ColoredGraph) -> Iterator[tuple[Perm, tuple[int, ...]]]:
    """Yield (tau, zero_faces) for every tau in S_k, in lexicographic order:
    zero_faces[i] counts the cycles of tau^-1 sigma_i."""
    _check_graph(B)
    for tau in itertools.permutations(range(B.k)):
        inv = inverse(tau)
        yield tau, tuple(len(cycles([inv[j] for j in s])) for s in B.sigma)


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
    k = as_int(k, "k")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return math.comb(2 * k, k) // (k + 1)


def narayana_row(k: int) -> list[int]:
    """The Narayana row [N_{k,1}, ..., N_{k,k}], N_{k,l} = (1/k) binom(k, l)
    binom(k, l-1), by N_{k,1} = 1 and N_{k,l+1} = N_{k,l} (k-l)(k-l+1) /
    (l(l+1)), one exact integer division per entry."""
    k = as_int(k, "k")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    row = [1]
    for l in range(1, k):
        row.append(row[-1] * (k - l) * (k - l + 1) // (l * (l + 1)))
    return row


def _is_two_color_cycle(B: ColoredGraph) -> bool:
    # the rows of the (1,1)-cycle at B's k, in either order
    return B.D == 2 and set(B.sigma) == set(
        cycle_rows(CycleSpec(k=B.k, m_colors={1}, n_colors={2})))


def narayana_face_distribution(B: ColoredGraph, anchor_color: int) -> dict[int, int]:
    """Histogram {l: count} of zero_faces[anchor_color] over minimal coverings.

    Only defined for two-color cycle graphs, where the histogram is the
    Narayana row N_{k, .}.
    """
    if not _is_two_color_cycle(B):
        raise ValueError("narayana_face_distribution expects a two-color cycle graph")
    anchor_color = as_int(anchor_color, "anchor color")  # 1.0 is refused, not truncated
    if anchor_color not in (1, 2):
        raise ValueError(f"anchor color must be 1 or 2, got {anchor_color}")
    hist: Counter = Counter()
    for zero, n in minimal_faces(B).items():
        hist[zero[anchor_color - 1]] += n
    return dict(sorted(hist.items()))
