"""Random tensor sampling, exact trace-invariant evaluation, Wick sums for
Gaussian entries, and seeded Monte Carlo universality scans.

Samples come in block substreams of the seed: block b holds the next
K = max(1, BLOCK_ENTRIES // prod(dims)) samples and is one sequential draw
from PCG64(seed) advanced by b * 2^64 steps.  Sample i, entry i % K of block
i // K, depends only on (seed, i), never on how many samples are drawn.
A uniform-disc entry sqrt(2u) e^(2 pi i v) takes sin and cos of the exactly
reduced angle from fdlibm's kernel polynomials, not from libm, so it rounds
only in IEEE arithmetic and its bytes do not depend on the machine's libm.

Three independent evaluation routes are kept deliberately separate:
  naive    sums the delta-constrained index contractions term by term for
           any colored graph, in one unoptimized einsum within
           DEFAULT_NAIVE_BUDGET terms; an oracle only, never run by Monte Carlo
  network  contracts a stack of tensors over any colored graph pairwise, in
           one einsum per block along a cached greedy order, with a sample
           label unless the block holds one; Monte Carlo on a ColoredGraph
  cycle    matricizes each tensor of a stack and takes tr((M^H M)^k);
           Monte Carlo on a CycleSpec
The naive and network routes share only the einsum label lists of the
graph's vertices.  Tests lean on the routes' agreement, so none may be
expressed through another.

The cycle route gets each Gram G from one real matrix product R S^T on the
tensor's float view, with no conjugate copy and no complex product: R holds
the real and imaginary parts of the matricization as column pairs (a, b), S
holds (a - b, a + b) in their place, and R S^T = Re G + Im G is the sum of a
symmetric and an antisymmetric matrix, so both parts of G are read off it.
For k >= 3 the cycle route raises the Hermitian Grams to P = G^(k//2) by
binary powering in stacked matmuls and reads tr(G^k) off P, with no LAPACK.
A Monte Carlo mean on the cycle route holds, per block, the draw, one
transposed copy A of it and the real Grams X: S is written over the draw,
which is not needed once A holds it, and A and X are kept from block to
block of one mean.  For k >= 3 the complex Grams G are written over A and
their first power over the draw, both spent once X is formed, and only
k >= 5 keeps one more complex p x p buffer per block for the powers.  For
one large tensor that is at most 2.5 tensor sizes for k <= 4 and 3.5 for
k >= 5: the real p x p Gram of a p x q matricization, p <= q, is at most
half of one, and a complex p x p buffer at most one.  BLAS adds its own
packing buffers: on the (2,2)-cycle at N=32 (16 MiB tensors) with 4
samples, `tul mc` peaks at 80 MB at k=2, 96 MB at k=3 and k=4, and 112 MB
at k=5 (2 vCPUs, numpy 2.4.6, OpenBLAS 0.3.31).
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .asymptotics import predict
from .enumeration import covering_pass, face_sum
from .families import CycleSpec
from .graphs import ColoredGraph, e_notation, json_fields, side_ratios
from .permutations import inverse

DISTRIBUTIONS = ("complex_gaussian", "complex_rademacher", "uniform_disc")

DEFAULT_NAIVE_BUDGET = 10 ** 8

# The distinct labels one einsum call takes (a-z, A-Z): a network
# contraction takes one per white vertex on each tensor axis of size > 1, and
# one for the sample axis of a block of more than one sample.
EINSUM_LABELS = 52

# TensorSpec refuses tensors with more entries: 1 GiB of complex128.  The
# cycle route holds the draw, one transposed copy and the real Gram, at most
# 2.5 tensor sizes, and for k >= 5 one more complex Gram-sized power buffer,
# at most 3.5: so 2.5 GiB at the limit, or 3.5 GiB for k >= 5.
MAX_TENSOR_ENTRIES = 2 ** 26

# Version of the sampling stream, reported by `tul mc` and `tul verify`.  It
# is bumped whenever a (seed, sample index) may give a different tensor;
# BLOCK_ENTRIES is part of the stream, so changing it bumps STREAM.
STREAM = 3
BLOCK_ENTRIES = 4096

# Pairs of uniforms per step of the in-place uniform-disc transform: a bound
# on memory like BLOCK_ENTRIES, not a knob, and not part of the stream, since
# every pair is transformed alone.  _to_disc holds five chunk-sized float64
# buffers (the reduced angle and a scratch, which then hold the complex
# quadrant factors; phi^2, then the radius; sin; cos) and one intp buffer of
# quadrants: 1.5 MiB at DISC_CHUNK.
DISC_CHUNK = 2 ** 15

# fdlibm's minimax polynomials for sin and cos on |x| <= pi/4 (Sun's k_sin.c
# and k_cos.c, S1..S6 and C1..C6), each within 1 ulp there
SIN_KERNEL = (-1.66666666666666324348e-01, 8.33333333332248946124e-03,
              -1.98412698298579493134e-04, 2.75573137070700676789e-06,
              -2.50507602534068634195e-08, 1.58969099521155010221e-10)
COS_KERNEL = (4.16666666666666019037e-02, -1.38888888888741095749e-03,
              2.48015872894767294178e-05, -2.75573143513906633035e-07,
              2.08757232129817482790e-09, -1.13596475577881948265e-11)
# i^q for the quadrant q = rint(4v) in 0..4
QUARTER_TURNS = np.array([1, 1j, -1, -1j, 1])

SQRT_HALF = math.sqrt(0.5)

# A scan row is refused before anything is drawn unless the square of its
# predicted mean N^gamma * coefficient, and of N^gamma, lies this many decades
# inside the double range.  The standard error sums squares of deviations
# about the mean, so it needs the square; the margin leaves room for draws
# some decades above the mean and for the sum over the samples.
FLOAT_MARGIN = 16


def side_lengths(c, N: int, D: int) -> tuple[int, ...]:
    """The side lengths c_i N of a D-tensor, each a positive integer.

    The ratios c are read by graphs.side_ratios, so they are exact: a c_i N
    that is not an integer is refused, never rounded.
    """
    N = operator.index(N)
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    dims = []
    for i, ci in enumerate(side_ratios(c, D), start=1):
        d = ci * N
        if d.denominator != 1:
            raise ValueError(f"c[{i}]*N = {ci}*{N} is not an integer")
        dims.append(d.numerator)
    return tuple(dims)


@dataclass(frozen=True)
class TensorSpec:
    """Shape, entry distribution, and seed of a random c_1 N x ... x c_D N tensor.

    Every distribution has zero odd moments and E|entry|^2 = 1, so the second
    Wick weight is exactly one and only higher moments distinguish them.
    """

    D: int
    c: tuple[Fraction, ...]
    N: int
    distribution: str
    seed: int
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "D", operator.index(self.D))
        if self.D < 1:
            raise ValueError(f"D must be positive, got {self.D}")
        object.__setattr__(self, "c", side_ratios(self.c, self.D))
        dims = side_lengths(self.c, self.N, self.D)
        entries = math.prod(dims)
        if entries > MAX_TENSOR_ENTRIES:
            raise ValueError(
                f"N={self.N} gives a {'x'.join(map(str, dims))} tensor of {entries:.3e} "
                f"entries, over the limit of {MAX_TENSOR_ENTRIES} (1 GiB of complex128)"
            )
        object.__setattr__(self, "dims", dims)
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}; "
                             f"choose one of {', '.join(DISTRIBUTIONS)}")
        object.__setattr__(self, "seed", operator.index(self.seed))
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


def _block_size(dims) -> int:
    """Samples per block substream for a tensor of side lengths dims."""
    return max(1, BLOCK_ENTRIES // math.prod(dims))


def _horner(coeffs, z: np.ndarray, out: np.ndarray) -> None:
    """out = coeffs[0] + z (coeffs[1] + z (... + z coeffs[-1])), in place."""
    np.multiply(z, coeffs[-1], out=out)
    for a in coeffs[-2:0:-1]:
        out += a
        out *= z
    out += coeffs[0]


def _to_disc(entries: np.ndarray) -> None:
    """Write sqrt(2u) e^(2 pi i v) over each entry v + iu of the C-contiguous
    complex array entries, whose parts are uniforms in [0, 1), DISC_CHUNK
    entries at a time.

    It rounds only in IEEE *, +, sqrt and rint, so its bytes do not depend on
    the machine's libm.  t = 4v and x = t - rint(t), |x| <= 1/2, are exact,
    and phi = x pi/2 is the angle's one rounding: e^(2 pi i v) = i^q e^(i phi)
    for the quadrant q = rint(t).  With z = phi^2 and S(z), C(z) the Horner
    sums of SIN_KERNEL and COS_KERNEL, sin phi = x + (z x) S(z), as fdlibm's
    __kernel_sin has it, and cos phi = w + (((1 - w) - z/2) + z (z C(z))),
    w = 1 - z/2, as FreeBSD's __kernel_cos compensates it.  The products with
    r = sqrt(2u) are the last roundings: multiplying by i^q, whose parts are
    0 and +-1, is exact.
    """
    flat = entries.reshape(-1)
    n = min(len(flat), DISC_CHUNK)
    scratch, z2, sin, cos = np.empty(2 * n), np.empty(n), np.empty(n), np.empty(n)
    quadrant = np.empty(n, dtype=np.intp)
    for start in range(0, len(flat), DISC_CHUNK):
        chunk = flat[start:start + DISC_CHUNK]
        m = len(chunk)
        x, t, z, s, c, q = scratch[:m], scratch[m:2 * m], z2[:m], sin[:m], cos[:m], quadrant[:m]
        np.multiply(chunk.real, 4.0, out=x)
        np.rint(x, out=t)
        np.copyto(q, t, casting="unsafe")
        x -= t
        x *= 0.5 * np.pi
        np.multiply(x, x, out=z)
        _horner(SIN_KERNEL, z, s)
        s *= np.multiply(z, x, out=t)
        s += x
        _horner(COS_KERNEL, z, c)
        c *= z
        c *= z
        z *= 0.5
        w = np.subtract(1.0, z, out=x)
        np.subtract(1.0, w, out=t)  # exact
        t -= z
        c += t
        c += w
        r = np.multiply(chunk.imag, 2.0, out=z)
        np.sqrt(r, out=r)
        np.multiply(c, r, out=chunk.real)
        np.multiply(s, r, out=chunk.imag)
        # q is 0..4, so clip only skips take's bounds check
        chunk *= np.take(QUARTER_TURNS, q, out=scratch[:2 * m].view(np.complex128), mode="clip")


def _draw_block(spec: TensorSpec, block: int, count: int) -> np.ndarray:
    """The first count samples of block substream `block` of spec.seed: one
    sequential draw from PCG64(seed) advanced by block * 2^64 steps."""
    bitgen = np.random.PCG64(spec.seed)
    bitgen.advance(block << 64)
    rng = np.random.Generator(bitgen)
    z = np.empty((count, *spec.dims), dtype=np.complex128)
    x = z.view(np.float64)  # real and imaginary parts, interleaved
    if spec.distribution == "complex_gaussian":
        rng.standard_normal(out=x)
        x *= SQRT_HALF
    elif spec.distribution == "complex_rademacher":
        rng.random(out=x)
        x -= 0.5
        np.copysign(SQRT_HALF, x, out=x)
    else:
        # uniform on the disc of radius sqrt(2), so E|z|^2 = 1: each pair of
        # uniforms (v, u) becomes sqrt(2u) e^(2 pi i v)
        rng.random(out=x)
        _to_disc(z)
    return z


def sample_tensor(spec: TensorSpec, sample_index: int = 0, count: int | None = None) -> np.ndarray:
    """I.i.d. tensor draws, deterministic given (spec.seed, sample index).

    Returns sample sample_index, or with count the stack of samples
    sample_index, ..., sample_index + count - 1.  Sample i is entry i % K of
    block substream i // K, K = max(1, BLOCK_ENTRIES // prod(dims)); a block
    is one sequential draw, so a sample does not depend on how many are
    drawn with it.  Sample i alone costs the prefix of its block up to entry
    i % K (at K=256, 178 us against 24 us for i=0), so draw ranges with count.
    """
    n = 1 if count is None else count
    if sample_index < 0 or n < 1:
        raise ValueError(f"need sample_index >= 0 and count >= 1, got {sample_index} and {n}")
    K = _block_size(spec.dims)
    stop = sample_index + n
    parts = []
    for block in range(sample_index // K, (stop - 1) // K + 1):
        first = block * K
        drawn = _draw_block(spec, block, min(stop, first + K) - first)
        parts.append(drawn[max(sample_index - first, 0):])
    stack = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return stack[0] if count is None else stack


def _check_naive_contraction(dims, B: ColoredGraph) -> None:
    """Refuse a naive contraction of a tensor with side lengths dims over B
    before anything is drawn or summed: the axes must match the colors, and
    the prod_i dims_i^k scalar terms must fit DEFAULT_NAIVE_BUDGET."""
    if len(dims) != B.D:
        raise ValueError(f"tensor has {len(dims)} axes, graph has D={B.D} colors")
    entries = math.prod(dims)
    if entries ** B.k > DEFAULT_NAIVE_BUDGET:
        raise ValueError(
            f"naive contraction needs {e_notation(B.k * math.log10(entries))} scalar terms, "
            f"over the budget {DEFAULT_NAIVE_BUDGET:.1e}; use the network route "
            f"(trace_invariant_network, tul mc --graph) or, for a cycle, the matricized "
            f"route (trace_invariant_cycle, tul mc --cycle)"
        )


def _vertex_labels(B: ColoredGraph, axes: tuple[int, ...]):
    """Einsum labels of the white and the black vertices of B, over the tensor
    axes in axes.  Label j*len(axes) + a is the index of white vertex j on
    axis axes[a]; black vertex b reads axis i at the white vertex
    sigma_i^-1(b)."""
    inv = [inverse(s) for s in B.sigma]
    width = len(axes)
    whites = tuple(tuple(j * width + a for a in range(width)) for j in range(B.k))
    blacks = tuple(tuple(inv[i][b] * width + a for a, i in enumerate(axes))
                   for b in range(B.k))
    return whites, blacks


def trace_invariant_naive(T: np.ndarray, B: ColoredGraph) -> float:
    """Real part of the exact delta-contraction sum over all free indices.

    White vertex j carries one index per color; the color-i edge equates that
    index with slot i of the conjugate copy at black vertex sigma_i(j).  The
    sum runs over all prod_i dims_i^k assignments, term by term, in one
    unoptimized einsum: no pairwise contraction order and no matricization,
    so this route stays independent of trace_invariant_network and
    trace_invariant_cycle.  It is an oracle only: Monte Carlo never runs it,
    and tul does not export it.  It stays in this module because the
    benchmark harness traces it here by name (ROADMAP item 9).

    Swapping white and black conjugates the sum, so it is real when B is
    isomorphic to its mirror, as every cycle and melonic graph is; otherwise
    it is complex, and its real part is returned.
    """
    T = np.asarray(T, dtype=np.complex128)
    _check_naive_contraction(T.shape, B)
    k = B.k
    # Size-1 axes carry no index.  Every remaining axis has size >= 2, so the
    # budget caps the labels at k*D' <= 26 and the operands at 2k <= 52,
    # within einsum's limits (52 labels, 63 operands).
    axes = tuple(i for i, d in enumerate(T.shape) if d > 1)
    if not axes:
        # a single term: prod_j t * prod_b conj(t)
        return float(np.abs(T.item()) ** (2 * k))
    T = T.reshape([T.shape[i] for i in axes])
    Tc = np.conj(T)
    whites, blacks = _vertex_labels(B, axes)
    operands: list = []
    for labels in whites:
        operands += (T, labels)
    for labels in blacks:
        operands += (Tc, labels)
    return complex(np.einsum(*operands, (), optimize=False)).real


def _network_operands(T_stack, Tc_stack, B: ColoredGraph, axes):
    """einsum's interleaved operands for a stack of tensors over B: the
    white labels on T_stack and the black ones on its conjugate, each after
    the sample label k*len(axes), which alone is kept.  A stack of one is
    contracted as its one tensor, with no sample label and a scalar output,
    so that a pairwise step can reach BLAS instead of a batched loop."""
    whites, blacks = _vertex_labels(B, axes)
    if len(T_stack) == 1:
        T_stack, Tc_stack, head = T_stack[0], Tc_stack[0], ()
    else:
        head = (B.k * len(axes),)
    operands: list = []
    for labels in whites:
        operands += (T_stack, (*head, *labels))
    for labels in blacks:
        operands += (Tc_stack, (*head, *labels))
    return operands + [head]


# A Monte Carlo mean contracts blocks of at most two shapes, the full one
# and a shorter last one, so a few slots hold the plans of every graph in
# use; a bound on memory, not a knob.
@functools.lru_cache(maxsize=8)
def _network_plan(shape: tuple[int, ...], B: ColoredGraph):
    """The labeled tensor axes, einsum's greedy pairwise path and the entries
    of its largest intermediate, for a network contraction of a (count,
    *dims) stack over B; with every side 1 there is no path and no step.

    It is refused before anything is drawn or contracted: the axes must
    match the colors, the k*D' labels (D' sides > 1), plus one for the sample
    axis when count > 1, must fit einsum's EINSUM_LABELS, and the largest
    step of the path must fit MAX_TENSOR_ENTRIES.  The label count is checked
    first, so a graph with too many vertices is refused before any path search.

    The path is planned on zero-stride probes, so planning allocates nothing
    of tensor size, with MAX_TENSOR_ENTRIES as greedy's memory limit: its
    default, the largest operand, would make it fall back to one
    term-by-term step on a graph whose adjacent vertices share fewer than
    half their colors, as on K_{3,3} with one color per perfect matching.  The
    intermediate sizes come from a walk of the path over the label sets:
    each step pops its operands, as einsum does, and appends what it keeps,
    the labels that another operand or the output still carries.  A step of
    more than two operands is einsum's term-by-term fallback, for when no
    pair fits the limit, and is charged its whole index space."""
    if len(shape) != B.D + 1:
        raise ValueError(f"tensor has {len(shape) - 1} axes, graph has D={B.D} colors")
    axes = tuple(i for i, d in enumerate(shape[1:]) if d > 1)
    sample = int(shape[0] > 1)
    labels = B.k * len(axes) + sample
    if labels > EINSUM_LABELS:
        raise ValueError(
            f"network contraction needs {labels} einsum labels (k={B.k} times "
            f"{len(axes)} sides > 1, plus {sample} for the sample axis), over the limit "
            f"{EINSUM_LABELS}"
        )
    if not axes:
        return axes, None, 0
    dims = [shape[1 + i] for i in axes]
    probe = np.broadcast_to(np.zeros((), dtype=np.complex128), [shape[0], *dims])
    operands = _network_operands(probe, probe, B, axes)
    path = np.einsum_path(*operands, optimize=("greedy", MAX_TENSOR_ENTRIES))[0]
    size = {j * len(dims) + a: d for j in range(B.k) for a, d in enumerate(dims)}
    size[B.k * len(dims)] = shape[0]
    live = [set(labels) for labels in operands[1:-1:2]]
    output = set(operands[-1])
    largest = 0
    for step in path[1:]:
        merged = set().union(*(live.pop(i) for i in sorted(step, reverse=True)))
        kept = merged & set().union(output, *live)
        charged = kept if len(step) <= 2 else merged
        largest = max(largest, math.prod(size[label] for label in charged))
        live.append(kept)
    if largest > MAX_TENSOR_ENTRIES:
        raise ValueError(
            f"network contraction of {shape[0]} sample(s) of a {'x'.join(map(str, shape[1:]))} "
            f"tensor needs a contraction step of {largest:.3e} entries, over the limit of "
            f"{MAX_TENSOR_ENTRIES}"
        )
    return axes, path, largest


def _network_values(T_stack: np.ndarray, B: ColoredGraph) -> np.ndarray:
    """Real part of the invariant of B for each tensor in a stack, by one
    einsum along the greedy pairwise path of _network_plan, on the operands of
    _network_operands with the conjugate stack taken once.

    Size-1 axes carry no label; when every axis has size 1 the invariant of
    each tensor is the single term |t|^(2k).
    """
    T_stack = np.asarray(T_stack, dtype=np.complex128)
    axes, path, _ = _network_plan(T_stack.shape, B)
    count = len(T_stack)
    if not axes:
        return np.abs(T_stack.reshape(count)) ** (2 * B.k)
    T_stack = T_stack.reshape(count, *(T_stack.shape[1 + i] for i in axes))
    operands = _network_operands(T_stack, np.conj(T_stack), B, axes)
    return np.einsum(*operands, optimize=path).real.reshape(count)


def trace_invariant_network(T: np.ndarray, B: ColoredGraph) -> float:
    """Real part of the invariant of B for one tensor: _network_values on a
    stack of one."""
    return float(_network_values(np.asarray(T, dtype=np.complex128)[None], B)[0])


def _cycle_values(T_stack: np.ndarray, spec: CycleSpec, work: dict | None = None) -> np.ndarray:
    """tr((M^H M)^k) of each tensor in a stack, for the matricization M with
    row index over the identity colors and column index over the shift colors.

    The stack is consumed: a C-ordered complex128 stack may be overwritten,
    so a caller that still needs it passes a copy.  work, if given, keeps the
    transposed copy, the Gram and, for k >= 5, a power buffer of each stack
    shape for the next call with that shape, so a Monte Carlo mean allocates
    them once.

    k = 1 is the squared Frobenius norm of the stack's float view.  Otherwise
    the smaller side's colors come first, so the matrix A is M or M^T and the
    p x p Gram G = A A^H is M M^H or conj(M^H M): the same spectrum.  G comes
    from one real product on the float view R of A, whose columns are the
    pairs (a_j, b_j) of real and imaginary parts: with S the float view of
    A (1 + i), which holds (a_j - b_j, a_j + b_j) in their place,

        X = R S^T = (a a^T + b b^T) + (b a^T - a b^T) = Re G + Im G,

    half the real multiply-adds of a complex product and no conjugate copy.
    A (1 + i) is one contiguous complex multiply, exact in both parts, and is
    written over the stack, whose entries A already holds.  Re G is symmetric
    and Im G antisymmetric, so they are orthogonal: tr(G^2) = |G|_F^2 =
    |X|_F^2 for k = 2.  For k >= 3 the Hermitian G = (X + X^T)/2 +
    i (X - X^T)/2 is raised to P = G^(k//2) by binary powering from the top
    bit, one stacked complex matmul per squaring and per set bit.  P is
    Hermitian too, so tr(G^k) is |P|_F^2 for even k and Re <P, G P> for odd
    k, each one dot product of float views, as for k = 2.
    """
    T_stack = np.ascontiguousarray(T_stack, dtype=np.complex128)
    if T_stack.ndim != spec.D + 1:
        raise ValueError(f"tensor has {T_stack.ndim - 1} axes, cycle spec has D={spec.D} colors")
    count, k = len(T_stack), spec.k
    if k == 1:
        flat = T_stack.view(np.float64).reshape(count, -1)
        return np.einsum("bi,bi->b", flat, flat)
    # color i is axis i of the stack; axis 0 indexes the samples
    sides = sorted(spec.m_colors), sorted(spec.n_colors)
    p, q = (math.prod(T_stack.shape[i] for i in side) for side in sides)
    small, large = sides if p <= q else sides[::-1]
    rows = min(p, q)
    order = [0, *small, *large]
    work = {} if work is None else work
    if T_stack.shape not in work:
        spare = np.empty((count, rows, rows), dtype=np.complex128) if k >= 5 else None
        work[T_stack.shape] = (np.empty([T_stack.shape[i] for i in order], dtype=np.complex128),
                               np.empty((count, rows, rows)), spare)
    A, X, spare = work[T_stack.shape]
    np.copyto(A, np.transpose(T_stack, order))
    S = np.multiply(A, 1 + 1j, out=T_stack.reshape(A.shape))
    R, S = (Z.view(np.float64).reshape(count, rows, -1) for Z in (A, S))
    np.matmul(R, S.transpose(0, 2, 1), out=X)
    if k == 2:
        flat = X.reshape(count, -1)
        return np.einsum("bi,bi->b", flat, flat)
    # A and the stack are spent once X holds the Grams: G is written over A,
    # and the products of P = G^(k//2), by binary powering from the top bit,
    # over the stack and spare, each to the one that holds neither P nor G
    G, other = (Z.reshape(-1)[:X.size].reshape(X.shape) for Z in (A, T_stack))
    Xt, Gf = X.transpose(0, 2, 1), G.view(np.float64)
    np.add(X, Xt, out=Gf[..., 0::2])
    np.subtract(X, Xt, out=Gf[..., 1::2])
    Gf *= 0.5
    P = G
    for bit in f"{k // 2:b}"[1:]:
        np.matmul(P, P, out=other)
        P, other = other, spare if P is G else P
        if bit == "1":
            np.matmul(P, G, out=other)
            P, other = other, P
    Pf = P.view(np.float64).reshape(count, -1)
    if k % 2 == 0:
        return np.einsum("bi,bi->b", Pf, Pf)
    Yf = np.matmul(G, P, out=other).view(np.float64).reshape(count, -1)
    return np.einsum("bi,bi->b", Pf, Yf)


def trace_invariant_cycle(T: np.ndarray, spec: CycleSpec) -> float:
    """tr((M^H M)^k) for the matricization M of one tensor: _cycle_values on
    a stack of one copy, so T is left as it was."""
    return float(_cycle_values(np.array(T, dtype=np.complex128, order="C")[None], spec)[0])


def gaussian_exact_mean(B: ColoredGraph, c, N: int) -> int:
    """Exact mean of the invariant for complex Gaussian entries: the Wick sum
    over all pairings tau of prod_i (c_i N)^{zero_faces_i(tau)}, taken as a
    sum over distinct face vectors times their multiplicity.

    Exact (not asymptotic) because every Gaussian cumulant beyond the second
    vanishes; the c_i N are integers, so the result is an exact integer.
    """
    dims = side_lengths(c, N, B.D)
    return face_sum(covering_pass(B).histogram, dims).numerator


def _route(graph, dims, count: int):
    """The contraction of graph's route for stacks of up to count tensors of
    side lengths dims, after every refusal that can come before a draw.

    The one place that maps a graph kind to its route: a CycleSpec takes the
    matricized route, whose transposed copy and Gram per stack shape the
    returned function keeps, and a ColoredGraph the network route, planned
    here, so that its colors, einsum's labels or MAX_TENSOR_ENTRIES refuse
    it before anything is drawn.
    """
    if isinstance(graph, CycleSpec):
        if len(dims) != graph.D:
            raise ValueError(f"tensor has {len(dims)} axes, graph has D={graph.D} colors")
        work: dict = {}
        return lambda stack: _cycle_values(stack, graph, work)
    if isinstance(graph, ColoredGraph):
        _network_plan((count, *dims), graph)
        return lambda stack: _network_values(stack, graph)
    raise TypeError(f"graph must be ColoredGraph or CycleSpec, got {type(graph)}")


def monte_carlo_mean(spec: TensorSpec, graph, samples: int) -> tuple[float, float]:
    """Sample mean and standard error of the invariant over independent draws.

    graph selects the evaluation route: a ColoredGraph goes through the
    network contraction, one greedy-ordered einsum per block, a CycleSpec
    through the matricized route, one stacked Gram per block.  Samples
    0..samples-1 are drawn one block substream of spec.seed at a time, so
    the first n values do not depend on how many are drawn.  Everything
    _route refuses is refused before anything is drawn.

    The invariant of a graph that is not isomorphic to its mirror is complex
    for each draw, but its mean is the real Wick sum, so the imaginary part
    averages to 0 and the real part alone is averaged; for a mirror-symmetric
    graph the real part is the whole invariant.  A mean or standard error
    that leaves the double range is a ValueError, with no numpy warning.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {samples}")
    K = _block_size(spec.dims)
    evaluate = _route(graph, spec.dims, min(K, samples))
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.concatenate([evaluate(sample_tensor(spec, start, min(K, samples - start)))
                                 for start in range(0, samples, K)])
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(samples))
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ValueError(f"the draws left the double range: mean {mean!r}, "
                         f"standard error {stderr!r}")
    return mean, stderr


@dataclass(frozen=True)
class ScanRow:
    """One N of a scan.  The field order is `tul mc`'s JSON key and CSV column
    order, so adding or reordering a field changes stdout and bumps cli.SCHEMA."""

    N: int
    samples: int
    mean: float
    stderr: float
    normalized: float
    flagged: bool


@dataclass(frozen=True)
class UniversalityReport:
    """Normalized means mu_hat / N^gamma against the predicted N -> infinity
    coefficient, one row per N."""

    graph_id: str
    distribution: str
    gamma: int
    predicted: float
    rows: tuple[ScanRow, ...]


def universality_scan(spec: TensorSpec, graph, N_list, samples) -> UniversalityReport:
    """Monte Carlo scan over N with a fixed distribution and side ratios.

    spec supplies c, distribution, and seed; its N is replaced by each entry
    of N_list.  samples may be a single count or a per-N sequence, each at
    least 2.  A row is flagged when |normalized - predicted| exceeds
    4 stderr / N^gamma, i.e. when the subleading terms still dominate the
    Monte Carlo noise.  Before anything is drawn, a row whose predicted mean
    or N^gamma would come within FLOAT_MARGIN decades of the double range
    when squared is refused; a mean or standard error that still overflows
    in the draws is refused by monte_carlo_mean, and named with its N here.
    """
    N_list = [operator.index(N) for N in N_list]
    if not N_list:
        raise ValueError("N_list must not be empty")
    if isinstance(samples, Iterable):
        per_N = [operator.index(s) for s in samples]
        if len(per_N) != len(N_list):
            raise ValueError(f"got {len(per_N)} sample counts for {len(N_list)} values of N")
    else:
        per_N = [operator.index(samples)] * len(N_list)
    # every row's spec, sample count and route is checked before any row is
    # sampled
    row_specs = [replace(spec, N=N) for N in N_list]
    for N, count in zip(N_list, per_N):
        if count < 2:
            raise ValueError(f"need at least 2 samples for a standard error, got {count} at N={N}")
    for row_spec, count in zip(row_specs, per_N):
        _route(graph, row_spec.dims, min(_block_size(row_spec.dims), count))
    # _route has refused anything but a CycleSpec or a ColoredGraph
    prediction = predict(graph, spec.c)
    if isinstance(graph, CycleSpec):
        m, n = (",".join(map(str, sorted(colors))) for colors in (graph.m_colors, graph.n_colors))
        name = f"cycle(k={graph.k}, m_colors=[{m}], n_colors=[{n}])"
    else:
        name = f"graph(k={graph.k}, D={graph.D})"
    limit = (math.log10(sys.float_info.max) - FLOAT_MARGIN) / 2
    for N in N_list:
        size = prediction.gamma * math.log10(N) + max(math.log10(prediction.coefficient), 0.0)
        if size > limit:
            raise ValueError(
                f"at N={N} the predicted mean N^{prediction.gamma} * coefficient, or N^"
                f"{prediction.gamma}, is ~{e_notation(size)}, over 1e{math.floor(limit)}: its "
                f"square must stay {FLOAT_MARGIN} decades inside the double range"
            )
    rows = []
    for N, row_spec, count in zip(N_list, row_specs, per_N):
        try:
            mean, stderr = monte_carlo_mean(row_spec, graph, count)
        except ValueError as err:
            raise ValueError(f"at N={N} {err}") from None
        scale = float(N) ** prediction.gamma
        normalized = mean / scale
        flagged = abs(normalized - prediction.coefficient) > 4.0 * stderr / scale
        rows.append(ScanRow(N=N, samples=count, mean=mean, stderr=stderr,
                            normalized=normalized, flagged=flagged))
    return UniversalityReport(graph_id=name, distribution=spec.distribution,
                              gamma=prediction.gamma, predicted=prediction.coefficient,
                              rows=tuple(rows))


def tensor_spec_from_json_dict(data) -> TensorSpec:
    """Build a TensorSpec from its JSON form; ratios may be numbers, decimal
    strings or 'p/q' strings."""
    D, c, N, distribution = json_fields(data, "tensor spec", ("D", "c", "N", "distribution"),
                                        ints=("D", "N"))
    if not isinstance(c, list):
        raise ValueError("field 'c' must be a list of ratios")
    # a JSON number is read as its decimal text, as a --c token is: 0.1 is 1/10
    ratios = tuple(float.__repr__(x) if isinstance(x, float) else x for x in c)
    if not isinstance(distribution, str):
        raise ValueError(f"field 'distribution' must be a string, got {distribution!r}")
    json_fields(data, "tensor spec", ints=("seed",))
    return TensorSpec(D=D, c=ratios, N=N, distribution=distribution, seed=data.get("seed", 0))

