"""Enumeration of coverings over S_k, minimal covering graphs, and exact
Catalan/Narayana combinatorics.

A covering of a D-colored graph B is a pairing tau in S_k, and its
(0,i)-faces are the cycles of tau^-1 sigma_i: they depend on k and sigma_i
alone.  `_cycle_counts` holds the cycle count of every permutation of
lexicographic S_k, built once per k from S_{k-1}'s in numpy: the ranks it
reads them at move from one first entry to the next by one adjacent
transposition of values, so each is the one before plus or minus a
factorial.  The cycles of tau^-1 sigma_i are those of sigma_i^-1 tau, which
runs over S_k as tau does, so `_face_column` reads the counts at the
lexicographic ranks of sigma_i^-1 tau (`_lehmer_ranks`), and caches the
int8 column per sigma_i.  A pass adds the columns of B's colors, in B's own
order, into one int64 key per row, and sorts key * k! + row once in place
(`_profile_keys`): each run of equal key // k! is one face vector, in
lexicographic order, its length is the vector's multiplicity, and its first
element carries the vector's smallest row.  `covering_pass` reads one
record, `CoveringPass`, off the runs:

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


@functools.lru_cache(maxsize=None)
def _lex_positions(m: int) -> np.ndarray:
    """The inverse of each row of _lex_perms(m): row r holds the position of
    each value 0..m-1 in S_m's r-th permutation, as a read-only int8 (m!, m)
    array.

    A row with first entry first holds first at position 0, and each other
    value one place past where the S_{m-1} tail holds it, as _lex_perms
    numbers the tail: a value past first one lower.
    """
    if m == 0:
        out = np.zeros((1, 0), dtype=np.int8)
    else:
        tail = _lex_positions(m - 1) + 1
        out = np.empty((m, len(tail), m), dtype=np.int8)
        for first in range(m):
            out[first, :, :first] = tail[:, :first]
            out[first, :, first] = 0
            out[first, :, first + 1:] = tail[:, first:]
        out = out.reshape(-1, m)
    out.flags.writeable = False
    return out


def _lehmer_ranks(table: Perm) -> np.ndarray:
    """The lexicographic rank of pi = table[tau] (pi_j = table[tau_j]) for
    every tau of S_k, in lexicographic order, as an int32 (k!,) array.

    The rank is sum_j d_j (k-1-j)!, where d_j counts the l > j with
    pi_l < pi_j.  d_j depends on tau's first j+1 entries alone: it is the
    rank of table[tau_j] among table's values on the entries not yet taken.
    So the ranks grow one prefix length at a time, and digits[p, i] holds,
    for prefix p, the rank of table's value on the i-th smallest entry not
    in p among the values on all of them.
    """
    k = len(table)
    digits = np.array(table, dtype=np.int8).reshape(1, k)
    rank = np.zeros(1, dtype=np.int32)
    for m in range(k, 1, -1):  # m entries remain after each prefix
        # an int32 product on every numpy: promoting the int8 digits by the
        # operand's type alone would keep int8 (or int16) and wrap at k >= 6
        weighted = np.multiply(digits, math.factorial(m - 1), dtype=np.int32)
        rank = (rank[:, None] + weighted).ravel()
        if m > 2:
            # prefix p extended by its i-th remaining entry keeps the other
            # m-1, each one rank lower if it ranked above the entry taken
            j = np.arange(m - 1)
            rest = np.take(digits, j + (j >= np.arange(m).reshape(m, 1)), axis=1)
            rest -= rest > digits[:, :, None]
            digits = rest.reshape(-1, m - 1)
    return rank


@functools.lru_cache(maxsize=None)
def _cycle_counts(k: int) -> np.ndarray:
    """The cycle count of every tau of S_k, in lexicographic order, as a
    read-only int8 (k!,) column, built from S_{k-1}'s.

    A tau with tau[0] = 0 fixes 0, and its tau[1:] runs over S_{k-1} in
    order: one cycle more than S_{k-1}'s counts.  For tau[0] = a > 0, 0 and
    a share a cycle of tau, which tau (0 a) splits into the fixed point a
    and the rest, so tau has the cycles of tau (0 a) on the k-1 points other
    than a.  Read in S_{k-1}, that is s pi_a, where s is tau[1:] and pi_a is
    (a-1, 0, 1, ..., a-2, a, ..., k-2) in one-line notation, and s pi_a has
    the cycles of its conjugate pi_a s: S_{k-1}'s counts at the ranks of
    pi_a[s].

    pi_1 is the identity, and pi_{a+1} = (a-1 a) pi_a swaps the adjacent
    values a-1 and a, which pi_a[s] holds where s holds 0 and a.  Of its
    Lehmer digits only the one at the left of those two positions, p0 and
    pa, moves, by one, up when p0 < pa.  So each rank is the one before it
    plus +-(k-2-min(p0, pa))!, read from a (k-1, k-1) table at (p0, pa).
    """
    if k == 0:
        counts = np.zeros(1, dtype=np.int8)
    else:
        sub, m = _cycle_counts(k - 1), k - 1
        parts = [sub + 1]
        if m:
            positions = _lex_positions(m)
            p = np.arange(m)
            weight = np.array([math.factorial(m - 1 - j) for j in p], dtype=np.int32)
            left = weight[np.minimum.outer(p, p)]
            step = np.where(p[:, None] < p, left, -left).ravel()
            at_zero = np.multiply(positions[:, 0], m, dtype=np.int32)
            rank = np.arange(len(sub), dtype=np.int32)
            parts.append(sub)
            for a in range(1, m):
                rank += np.take(step, at_zero + positions[:, a])
                parts.append(np.take(sub, rank))
        counts = np.concatenate(parts)
    counts.flags.writeable = False
    return counts


@functools.lru_cache(maxsize=_CACHED_COLUMNS)
def _face_column(table: Perm) -> np.ndarray:
    """The cycle count of tau^-1 sigma_i for every tau of S_k, in
    lexicographic order, as a read-only int8 (k!,) column; table is
    sigma_i^-1, and its length is k.

    tau^-1 sigma_i has the cycles of its inverse sigma_i^-1 tau = table[tau],
    and tau -> table[tau] is a bijection of S_k, so the column is the cycle
    counts of S_k (`_cycle_counts`, built once per k) read at the
    lexicographic ranks of the table[tau] (`_lehmer_ranks`).  The identity
    reads them in order, and its column is the cycle counts themselves.
    """
    counts = _cycle_counts(len(table))
    if table == identity(len(table)):
        return counts
    column = counts[_lehmer_ranks(table)]
    column.flags.writeable = False
    return column


def _columns(B: ColoredGraph) -> tuple[np.ndarray, ...]:
    """The cached int8 (k!,) zero-face column of each color, in B's own order."""
    return tuple(_face_column(inverse(s)) for s in B.sigma)


def _faces(B: ColoredGraph) -> np.ndarray:
    """The (k!, D) int8 zero-face counts of every pairing: B's columns stacked."""
    return np.stack(_columns(B), axis=1)


def _profile_keys(columns: tuple[np.ndarray, ...], k: int) -> np.ndarray:
    """key(vector) * n + row for each of the n rows of the columns, as int64,
    where key(vector) is equal for two rows iff their face vectors are, and
    orders the vectors lexicographically.

    Counts lie in 1..k, so the vector is read as a base-k number, first color
    first, with digits count - 1: the key starts as the first column, each
    next one is added in place as it is, and the ones, offset in all, come
    off once at the end.  When the composite could reach 2^63, the key so far
    is first replaced by its rank among the distinct keys, which keeps their
    order.  No step overflows: offset is (bound - 1) / (k - 1), below bound
    for k > 1, so the key stays below 2 * bound * k <= bound * k * n < 2^63
    (at k = 1 it is at most D).
    """
    n = len(columns[0])
    key, bound, offset = columns[0].astype(np.int64), k, 1
    for column in columns[1:]:
        if bound * k * n >= 2 ** 63:
            key, bound, offset = np.unique(key, return_inverse=True)[1], n, 0
        key *= k
        key += column
        bound, offset = bound * k, offset * k + 1
    key -= offset
    key *= n
    key += np.arange(n)
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
    """The face histogram and minimal coverings of B, read off one sort of
    the keys of its face columns.

    After the sort, a run of equal key // k! is one face vector, in
    lexicographic order: its length is the vector's multiplicity, and its
    first element carries the vector's smallest row, key % k!, which the
    vector is read from.  gamma is the largest total over those few vectors,
    summed as Python ints, and the members are the rows of the runs of that
    total, merged in row order, which is lexicographic order of S_k; the
    record keeps those rows and their face vectors, and builds the member
    pairings only when they are read.

    Each color's column is cached by sigma_i alone, so graphs that share a
    sigma row at one k share its column: all (m,n)-cycles of one k read the
    same two.  The result is cached per graph as well, since the consumers of
    one graph call this back to back.
    """
    _check_graph(B)
    columns = _columns(B)
    n = math.factorial(B.k)
    key = _profile_keys(columns, B.k)
    key.sort()
    vector = key // n
    bounds = [0, *(np.flatnonzero(vector[1:] != vector[:-1]) + 1).tolist(), n]
    firsts = key[bounds[:-1]] % n
    zeros = list(zip(*(column[firsts].tolist() for column in columns)))
    totals = list(map(sum, zeros))
    gamma = max(totals)
    histogram = {zero: end - start for zero, start, end in zip(zeros, bounds, bounds[1:])}
    rows = np.sort(np.concatenate([key[start:end] for start, end, total
                                   in zip(bounds, bounds[1:], totals) if total == gamma]) % n)
    member_faces = np.stack([column[rows] for column in columns], axis=1)
    rows.flags.writeable = member_faces.flags.writeable = False
    return CoveringPass(histogram=MappingProxyType(histogram), gamma=gamma,
                        _k=B.k, _rows=rows, _member_faces=member_faces)


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
