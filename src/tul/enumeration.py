"""Enumeration of coverings over S_k, minimal covering graphs, and exact
Catalan/Narayana combinatorics.

A covering of a D-colored graph B is a pairing tau in S_k, and its
(0,i)-faces are the cycles of tau^-1 sigma_i: they depend on k and sigma_i
alone.  `_face_column` counts them for all k! pairings of lexicographic S_k
at once, in numpy, by pointer jumping over (k-1)! rows at a time, and caches
the int8 column per sigma_i.  A pass stacks the columns of B's colors in
B's own order, and `covering_pass` reads two things off the stack:

  histogram  {zero_faces: multiplicity}, the whole finite-N Wick sum
  minimal    the face-maximizing coverings, which carry its leading term

Graphs whose sigma rows repeat share columns: every (m,n)-cycle of one k
stacks the same two, the identity and the shift.  Gamma, the
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
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .graphs import ColoredGraph, e_notation, is_connected, side_ratios
from .permutations import Perm, identity, inverse

# The largest k a pass accepts.  A resource limit, not a tuning knob: a
# pass costs k!, and k=10 already takes seconds and ~200 MB.
MAX_K = 9

# Passes that stay cached, per graph.  A bound on memory, not a tuning knob:
# every consumer of one graph runs back to back, so a few slots suffice.
_CACHED_GRAPHS = 4

# Face columns that stay cached, per sigma_i.  A bound on memory, not a
# tuning knob: a column holds k! bytes, so at most 32 * 9! bytes = 11.6 MB.
_CACHED_COLUMNS = 32


@dataclass(frozen=True)
class MinimalCoveringSet:
    """All pairings attaining the maximal total face count gamma, as pairs
    (tau, zero_faces); every zero_faces tuple sums to gamma."""

    gamma: int
    members: tuple[tuple[Perm, tuple[int, ...]], ...]

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CoveringPass:
    """What one pass over S_k yields for a graph.

    histogram maps each per-color zero-face vector to the number of pairings
    that have it, so its values sum to k!; minimal holds the pairings of
    maximal total, in lexicographic order.
    """

    histogram: Mapping[tuple[int, ...], int]
    minimal: MinimalCoveringSet


@functools.lru_cache(maxsize=None)
def _lex_perms(m: int) -> np.ndarray:
    """S_m as the rows of a read-only int8 (m!, m) array, in lexicographic
    order."""
    if m == 0:
        return np.zeros((1, 0), dtype=np.int8)
    sub = _lex_perms(m - 1)
    out = np.empty((m, len(sub), m), dtype=np.int8)
    for first in range(m):
        out[first, :, 0] = first
        out[first, :, 1:] = np.delete(np.arange(m, dtype=np.int8), first)[sub]
    out = out.reshape(-1, m)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=_CACHED_COLUMNS)
def _face_column(table: Perm) -> np.ndarray:
    """The cycle count of tau^-1 sigma_i for every tau of S_k, in
    lexicographic order, as a read-only int8 (k!,) column; table is
    sigma_i^-1, and its length is k.

    tau^-1 sigma_i has the cycles of its inverse sigma_i^-1 tau, a gather of
    tau through table.  The cycles are counted by pointer jumping over the
    (k-1)! pairings that share tau[0], one block at a time.
    """
    k = len(table)
    perms = _lex_perms(k)
    rows = len(perms) // k
    table = np.array(table, dtype=np.int32)
    # pointers index the flattened (rows, k) block, so that one gather
    # follows every row at once; labels are positions within a row.  The
    # int8 rows go through table by np.take into int32, a quarter of the
    # cost of an intp fancy index, and the intp offset makes the pointers
    # intp, which the jumping gathers below take without a cast.
    offset = np.arange(0, rows * k, k).reshape(rows, 1)
    position = np.arange(k, dtype=np.int8)
    start = np.tile(position, rows)
    rounds = (k - 1).bit_length()  # ceil(log2 k): enough to span a k-cycle
    column = np.empty((k, rows), dtype=np.int8)
    for first in range(k):
        step = (np.take(table, perms[first * rows:(first + 1) * rows]) + offset).ravel()
        # after round r, label[x] is the least position among the 2^r
        # points from x on its cycle, so after all rounds it names the cycle
        label = start
        for r in range(rounds):
            label = np.minimum(label, label[step])
            if r + 1 < rounds:
                step = step[step]
        column[first] = (label.reshape(rows, k) == position).sum(axis=1)
    column = column.ravel()
    column.flags.writeable = False
    return column


def _faces(B: ColoredGraph) -> np.ndarray:
    """The (k!, D) int8 zero-face counts of every pairing, one cached column
    per color in B's own order."""
    return np.stack([_face_column(inverse(s)) for s in B.sigma], axis=1)


def _profile_keys(faces: np.ndarray, k: int) -> np.ndarray:
    """One int64 per row, equal for two rows iff their face vectors are.

    Counts lie in 1..k, so the vector is read as a base-k number; when that
    could overflow, the key so far is first replaced by its rank.
    """
    key, bound = np.zeros(len(faces), dtype=np.int64), 1
    for column in faces.T:
        if bound * k >= 2 ** 63:
            key, bound = np.unique(key, return_inverse=True)[1], len(faces)
        key, bound = key * k + (column - 1), bound * k
    return key


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
    """The face histogram and minimal coverings of B, read off its stacked
    face columns.

    Each color's column is cached by sigma_i alone, so graphs that share a
    sigma row at one k share its column: all (m,n)-cycles of one k read the
    same two.  The result is cached per graph as well, since the consumers of
    one graph call this back to back.
    """
    _check_graph(B)
    faces = _faces(B)
    _, first, counts = np.unique(_profile_keys(faces, B.k), return_index=True,
                                 return_counts=True)
    histogram = dict(sorted(zip(map(tuple, faces[first].tolist()), counts.tolist())))
    totals = faces.sum(axis=1, dtype=np.int64)  # int8 would overflow past 127
    gamma = int(totals.max())
    hit = totals == gamma
    minimal = MinimalCoveringSet(gamma=gamma, members=tuple(
        (tuple(tau), tuple(zero))
        for tau, zero in zip(_lex_perms(B.k)[hit].tolist(), faces[hit].tolist())))
    return CoveringPass(histogram=MappingProxyType(histogram), minimal=minimal)


# enumerate_coverings and limit_coefficient are run by no consumer and are
# not exported from tul: the benchmark harness traces them under these names
# until its metrics move to the face column and face_sum (ROADMAP item 1).
def enumerate_coverings(B: ColoredGraph) -> Iterator[tuple[Perm, tuple[int, ...]]]:
    """Yield (tau, zero_faces) for every tau in S_k, in lexicographic order."""
    _check_graph(B)
    perms, faces = _lex_perms(B.k), _faces(B)
    rows = len(perms) // B.k  # converted to lists (k-1)! rows at a time
    for start in range(0, len(perms), rows):
        block = slice(start, start + rows)
        for tau, zero in zip(perms[block].tolist(), faces[block].tolist()):
            yield tuple(tau), tuple(zero)


def minimal_coverings(B: ColoredGraph) -> MinimalCoveringSet:
    """Every maximizer of the total face count, in lexicographic order."""
    return covering_pass(B).minimal


def minimal_faces(B: ColoredGraph) -> dict[tuple[int, ...], int]:
    """{zero_faces: count} over the minimal coverings of B: the face
    histogram of covering_pass restricted to the vectors of total gamma."""
    sweep = covering_pass(B)
    return {zero: n for zero, n in sweep.histogram.items() if sum(zero) == sweep.minimal.gamma}


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
    k = B.k
    shift = tuple((j + 1) % k for j in range(k))
    return B.D == 2 and set(B.sigma) == {identity(k), shift}


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
