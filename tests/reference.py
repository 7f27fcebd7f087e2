"""Independent reference implementations that only the tests use.

Each one recomputes a quantity the package computes another way, or checks an
invariant of it, so it stays outside `tul`: Narayana numbers by dynamic
programming, face counts and the genus of one covering by plain cycle
counting, melonic membership by dipole contraction, the cycle invariant by
complex matrix powers and by the Gram spectrum, Haar unitaries and the
relative change of an invariant under them, and the margins of a universality
scan.  The stacked cycle kernel with fresh buffers keeps package code in a
plain form, as a bitwise oracle for the buffers the package reuses.  The
uniform disc has two oracles: its draw through np.sin and np.cos in one pass,
within 2^-49 of the package's, and its IEEE operations one Python float at a
time, a bitwise oracle.  `face_columns` alone is no oracle: it stacks the
package's face columns, one row per pairing, for the tests that read the
pass's record against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from tul.enumeration import _face_column
from tul.families import CycleSpec
from tul.graphs import ColoredGraph, is_connected
from tul.permutations import Perm, cycles, inverse, is_perm
from tul.tensors import (COS_KERNEL, SIN_KERNEL, TensorSpec, UniversalityReport,
                         trace_invariant_cycle, trace_invariant_naive)


# ---------------------------------------------------------------------------
# Narayana numbers
# ---------------------------------------------------------------------------

def narayana_recurrence(k: int, l: int) -> int:
    """N_{k,l} by dynamic programming, independent of the closed form.

    Uses the decomposition of a minimal pairing by the blocks hanging off a
    fixed edge: N_{k,l} = sum over p >= 1 of the p-fold convolution of the
    table itself evaluated at (k-p, l-1), with base case N_{0,0} = 1.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not 1 <= l <= k:
        raise ValueError(f"l={l} out of range 1..{k}")
    size = k + 1
    T = [[0] * size for _ in range(size)]
    T[0][0] = 1
    for kk in range(1, size):
        # row kk of T stays zero until the end of this iteration, so the
        # convolutions only ever see the already-final rows < kk
        row = [0] * size
        conv = [r[:] for r in T]
        for p in range(1, kk + 1):
            if p > 1:
                conv = _conv2(conv, T, size)
            for ll in range(1, kk + 1):
                row[ll] += conv[kk - p][ll - 1]
        T[kk] = row
    return T[k][l]


def _conv2(A, B, size):
    C = [[0] * size for _ in range(size)]
    for a1 in range(size):
        rowA = A[a1]
        for b1 in range(size):
            v = rowA[b1]
            if v == 0:
                continue
            for a2 in range(size - a1):
                rowB = B[a2]
                out = C[a1 + a2]
                for b2 in range(size - b1):
                    w = rowB[b2]
                    if w:
                        out[b1 + b2] += v * w
    return C


# ---------------------------------------------------------------------------
# One covering at a time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringGraph:
    """A colored graph plus the pairing permutation tau (color-0 edges)."""

    base: ColoredGraph
    tau: Perm

    def __post_init__(self):
        object.__setattr__(self, "tau", tuple(self.tau))
        if len(self.tau) != self.base.k:
            raise ValueError(f"tau has length {len(self.tau)}, expected k={self.base.k}")
        if not is_perm(self.tau):
            raise ValueError("tau is not a bijection")


def face_profile(G: CoveringGraph) -> tuple[int, ...]:
    """Count (0,i)-faces for every color i: entry i-1 is the cycle count of
    tau^-1 * sigma_i."""
    inv_tau = inverse(G.tau)
    return tuple(len(cycles(tuple(inv_tau[j] for j in s))) for s in G.base.sigma)


def genus(G: CoveringGraph) -> Fraction:
    """Genus of a D=2 covering via Euler's relation on the 3-colored ribbon graph.

    Faces are all (i,j)-faces over colors {0,1,2}, edges 3k, vertices 2k.
    """
    if G.base.D != 2:
        raise ValueError(f"genus is only supported for D=2 coverings, got D={G.base.D}")
    sigma = G.base.sigma
    inv_sigma = inverse(sigma[1])
    faces = sum(face_profile(G)) + len(cycles(tuple(inv_sigma[j] for j in sigma[0])))
    k = G.base.k
    return Fraction(2 - (faces - 3 * k + 2 * k), 2)


def face_columns(B: ColoredGraph) -> np.ndarray:
    """The (k!, D) int8 zero-face counts of every pairing, in lexicographic
    order: the package's face columns, stacked in B's colors.  Not an oracle,
    since it reads `_face_column`, but the row-per-pairing table that the
    pass's record is read against with np.unique."""
    return np.stack([_face_column(inverse(s)) for s in B.sigma], axis=1)


# ---------------------------------------------------------------------------
# Melonic membership
# ---------------------------------------------------------------------------

def is_melonic(B: ColoredGraph) -> bool:
    """True iff B reduces to a dipole by repeatedly deleting a white/black
    pair joined by exactly D-1 parallel edges (undoing a melonic insertion).

    Only defined as a useful predicate for D >= 3: a connected D=2 graph with
    k >= 2 is a plain matrix-trace cycle and is excluded, since the melonic
    dominance structure (unique minimal covering) does not hold there.

    Each step deletes the lexicographically first eligible (white, black)
    pair; melonicity does not depend on this choice.
    """
    if not is_connected(B):
        raise ValueError("is_melonic expects a connected graph")
    if B.k == 1:
        return True
    if B.D < 3:
        return False
    D = B.D
    sigma = [list(s) for s in B.sigma]
    k = B.k
    while k > 1:
        eligible = []
        for w in range(k):
            hits: dict[int, int] = {}
            for i in range(D):
                hits[sigma[i][w]] = hits.get(sigma[i][w], 0) + 1
            for b, cnt in hits.items():
                if cnt == D - 1:
                    eligible.append((w, b))
        if not eligible:
            return False
        w, b = min(eligible)
        c = next(i for i in range(D) if sigma[i][w] != b)
        v_bar = sigma[c][w]
        v = sigma[c].index(b)
        sigma[c][v] = v_bar
        for i in range(D):
            del sigma[i][w]
            sigma[i] = [y - 1 if y > b else y for y in sigma[i]]
        k -= 1
    return True


# ---------------------------------------------------------------------------
# The (m,n)-cycle invariant by complex matrix powers
# ---------------------------------------------------------------------------

def cycle_value_reference(T: np.ndarray, spec: CycleSpec) -> float:
    """tr((M M^H)^k) for the matricization M of T with rows over the identity
    colors and columns over the shift colors: a complex Gram and k - 1
    complex products, with no choice of the smaller side and no float view."""
    T = np.asarray(T, dtype=np.complex128)
    order = [i - 1 for i in (*sorted(spec.m_colors), *sorted(spec.n_colors))]
    rows = math.prod(T.shape[i - 1] for i in spec.m_colors)
    M = np.transpose(T, order).reshape(rows, -1)
    return float(np.trace(np.linalg.matrix_power(M @ M.conj().T, spec.k)).real)


def cycle_values_spectral(T_stack: np.ndarray, spec: CycleSpec) -> np.ndarray:
    """sum_j lambda_j^k over the eigenvalues of M M^H, for the matricization M
    of each tensor in a stack: a complex Gram and a stacked eigvalsh, with
    no matrix power, so it stays independent of the cycle route's powers."""
    T_stack = np.asarray(T_stack, dtype=np.complex128)
    order = [0, *sorted(spec.m_colors), *sorted(spec.n_colors)]
    rows = math.prod(T_stack.shape[i] for i in spec.m_colors)
    M = np.transpose(T_stack, order).reshape(len(T_stack), rows, -1)
    G = M @ M.conj().transpose(0, 2, 1)
    return np.sum(np.linalg.eigvalsh(G) ** spec.k, axis=1)


# ---------------------------------------------------------------------------
# Unitary invariance
# ---------------------------------------------------------------------------

def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * math.sqrt(0.5)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def apply_unitaries(T: np.ndarray, unitaries) -> np.ndarray:
    """Rotate slot i of T by unitaries[i] for every color."""
    T = np.asarray(T, dtype=np.complex128)
    if len(unitaries) != T.ndim:
        raise ValueError(f"got {len(unitaries)} unitaries for {T.ndim} tensor slots")
    for i, U in enumerate(unitaries):
        U = np.asarray(U, dtype=np.complex128)
        if U.shape != (T.shape[i],) * 2:
            raise ValueError(f"unitary {i + 1} has shape {U.shape}, "
                             f"slot needs {(T.shape[i],) * 2}")
        T = np.moveaxis(np.tensordot(U, T, axes=(1, i)), 0, i)
    return T


def unitary_invariance_check(T: np.ndarray, graph, unitaries) -> float:
    """Relative change of the invariant under per-slot unitary rotations, by
    the cycle route for a CycleSpec and the naive route for a ColoredGraph."""
    evaluate = trace_invariant_cycle if isinstance(graph, CycleSpec) else trace_invariant_naive
    base, rotated = evaluate(T, graph), evaluate(apply_unitaries(T, unitaries), graph)
    if base == 0.0:
        return abs(rotated)
    return abs(rotated - base) / abs(base)


# ---------------------------------------------------------------------------
# Universality scans
# ---------------------------------------------------------------------------

def margins(report: UniversalityReport) -> list[float]:
    """|normalized - predicted| for every row of a scan."""
    return [abs(r.normalized - report.predicted) for r in report.rows]


# ---------------------------------------------------------------------------
# The stacked cycle kernel and the disc draw with fresh buffers
# ---------------------------------------------------------------------------

def cycle_values_fresh(T_stack: np.ndarray, spec: CycleSpec) -> np.ndarray:
    """tul.tensors._cycle_values with fresh buffers: S built by two stride-2
    ufuncs, fresh A, S, Gram and powers of the Gram on every call, and the
    stack left as it was.  The kernel must match it bit for bit."""
    T_stack = np.asarray(T_stack, dtype=np.complex128)
    if T_stack.ndim != spec.D + 1:
        raise ValueError(f"tensor has {T_stack.ndim - 1} axes, cycle spec has D={spec.D} colors")
    count, k = len(T_stack), spec.k
    if k == 1:
        flat = np.ascontiguousarray(T_stack).view(np.float64).reshape(count, -1)
        return np.einsum("bi,bi->b", flat, flat)
    # color i is axis i of the stack; axis 0 indexes the samples
    sides = sorted(spec.m_colors), sorted(spec.n_colors)
    p, q = (math.prod(T_stack.shape[i] for i in side) for side in sides)
    small, large = sides if p <= q else sides[::-1]
    A = np.ascontiguousarray(np.transpose(T_stack, [0, *small, *large]))
    R = A.view(np.float64).reshape(count, min(p, q), -1)
    S = np.empty_like(R)
    np.subtract(R[..., 0::2], R[..., 1::2], out=S[..., 0::2])
    np.add(R[..., 0::2], R[..., 1::2], out=S[..., 1::2])
    X = R @ S.transpose(0, 2, 1)
    if k == 2:
        flat = X.reshape(count, -1)
        return np.einsum("bi,bi->b", flat, flat)
    # G^(k//2) from the top bit, then |P|_F^2 or Re<P, G P> on float views
    Xt = X.transpose(0, 2, 1)
    G = 0.5 * (X + Xt) + 0.5j * (X - Xt)
    P = G
    for bit in f"{k // 2:b}"[1:]:
        P = P @ P
        if bit == "1":
            P = P @ G
    Pf = P.view(np.float64).reshape(count, -1)
    if k % 2 == 0:
        return np.einsum("bi,bi->b", Pf, Pf)
    Yf = (G @ P).view(np.float64).reshape(count, -1)
    return np.einsum("bi,bi->b", Pf, Yf)


def uniform_disc_block(spec: TensorSpec, block: int, count: int) -> np.ndarray:
    """The first count samples of block substream `block` of a uniform_disc
    spec, with theta = 2 pi v through libm's np.sin and np.cos in one pass
    over the whole block, as tul.tensors._draw_block did up to STREAM 2.  The
    draw must stay within 2^-49 of it."""
    bitgen = np.random.PCG64(spec.seed)
    bitgen.advance(block << 64)
    rng = np.random.Generator(bitgen)
    z = np.empty((count, *spec.dims), dtype=np.complex128)
    x = z.view(np.float64)  # real and imaginary parts, interleaved
    # uniform on the disc of radius sqrt(2), so E|z|^2 = 1: of each pair
    # of uniforms (v, u), theta = 2 pi v and r = sqrt(2 u)
    rng.random(out=x)
    pairs = x.reshape(-1, 2)
    theta, r = pairs[:, 0], pairs[:, 1]
    theta *= 2.0 * np.pi
    r *= 2.0
    np.sqrt(r, out=r)
    sin = np.sin(theta)
    np.cos(theta, out=theta)
    theta *= r
    r *= sin
    return z


def disc_entry(v: float, u: float) -> complex:
    """sqrt(2u) e^(2 pi i v) by the IEEE operations of tul.tensors._to_disc,
    one Python float at a time: its chunked buffers must give these values."""
    t = 4.0 * v
    q = round(t)  # half to even, as np.rint
    x = (t - q) * (0.5 * math.pi)
    z = x * x

    def horner(coeffs):
        acc = z * coeffs[-1]
        for a in coeffs[-2:0:-1]:
            acc = (acc + a) * z
        return acc + coeffs[0]

    sin = horner(SIN_KERNEL) * (z * x) + x
    w = 1.0 - z * 0.5
    cos = horner(COS_KERNEL) * z * z + ((1.0 - w) - z * 0.5) + w
    r = math.sqrt(2.0 * u)
    return complex(cos * r, sin * r) * (1, 1j, -1, -1j)[q % 4]
