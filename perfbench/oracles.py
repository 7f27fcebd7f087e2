"""Exact reference values the benchmark checks the program against.

Each oracle is computed here, independently of `tul`, so that a program
change that breaks a result shows up as a failed operation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# Fourth absolute moment E|x|^4 of each entry distribution; all have E|x|^2 = 1.
FOURTH_MOMENT = {
    "complex_gaussian": Fraction(2),
    "complex_rademacher": Fraction(1),   # |x|^2 = 1 always
    "uniform_disc": Fraction(4, 3),      # |x|^2 = 2U, U uniform on [0, 1]
}

def wishart_moment(p: int, q: int, k: int) -> int:
    """E tr((M^H M)^k) for a p x q matrix of i.i.d. standard complex Gaussians.

    Haagerup-Thorbjornsen three-term recursion, exact in integers:
    (j+2) E_{j+1} = (2j+1)(p+q) E_j + (j-1)(j^2-(p-q)^2) E_{j-1}, E_1 = pq.
    """
    if k < 1 or p < 1 or q < 1:
        raise ValueError(f"need k, p, q >= 1, got k={k}, p={p}, q={q}")
    prev, cur = 0, p * q  # E_0 never contributes: its coefficient at j=1 is 0
    for j in range(1, k):
        num = (2 * j + 1) * (p + q) * cur + (j - 1) * (j * j - (p - q) ** 2) * prev
        nxt, rem = divmod(num, j + 2)
        if rem:
            raise ArithmeticError(f"recursion left remainder {rem} at j={j}")
        prev, cur = cur, nxt
    return cur


def cycle_sides(m_colors, n_colors, dims) -> tuple[int, int]:
    """Matricization sides p, q of a cycle graph for 1-based colors."""
    return (math.prod(dims[i - 1] for i in m_colors),
            math.prod(dims[i - 1] for i in n_colors))


def quartic_cycle_mean(p: int, q: int, distribution: str) -> Fraction:
    """Exact E tr((M^H M)^2) for i.i.d. entries with E|x|^2 = 1.

    The pairings of the four entries give pq(p+q) when they are distinct
    pairs and an extra pq (E|x|^4 - 2) when all four fall on one entry.
    """
    return p * q * (p + q) + p * q * (FOURTH_MOMENT[distribution] - 2)


def _cycle_counts(perms: np.ndarray) -> np.ndarray:
    """Number of cycles of each row of an (n, k) array of permutations."""
    k = perms.shape[1]
    start = np.broadcast_to(np.arange(k), perms.shape)
    lowest = start.copy()
    cur = perms
    rows = np.arange(perms.shape[0])[:, None]
    for _ in range(k - 1):
        np.minimum(lowest, cur, out=lowest)
        cur = perms[rows, cur]
    return (lowest == start).sum(axis=1)


def wick_sum(sigma, dims) -> int:
    """Exact Gaussian mean of any colored graph's invariant.

    sigma holds one 0-based permutation per color.  The sum runs over all
    pairings tau of prod_i dims_i^(cycles of tau^-1 sigma_i); here tau^-1
    runs over all of S_k as rho, composed as rho[sigma_i[j]].
    """
    k = len(sigma[0])
    rho = np.array(list(itertools.permutations(range(k))), dtype=np.int64).reshape(-1, k)
    faces = np.stack([_cycle_counts(rho[:, list(s)]) for s in sigma], axis=1)
    rows, counts = np.unique(faces, axis=0, return_counts=True)
    return sum(int(n) * math.prod(int(d) ** int(f) for d, f in zip(dims, row))
               for row, n in zip(rows, counts))


# Two-sided tail of a standard normal beyond 4: the criterion-5 gate z < 4.
P_4SIGMA = math.erfc(4 / math.sqrt(2))


def student_t_tail(t: float, dof: int) -> float:
    """P(|T| >= t) for Student's t with an integer number of degrees of freedom.

    Closed form of Abramowitz and Stegun 26.7.3-26.7.4 in theta = atan(t/sqrt(dof)).
    """
    if dof < 1:
        raise ValueError(f"need at least one degree of freedom, got {dof}")
    theta = math.atan2(t, math.sqrt(dof))
    c2, s = math.cos(theta) ** 2, math.sin(theta)
    term, series = 1.0, 1.0
    if dof % 2 == 0:
        for j in range(1, dof // 2):
            term *= c2 * (2 * j - 1) / (2 * j)
            series += term
        inside = s * series
    else:
        for j in range(1, (dof - 1) // 2):
            term *= c2 * (2 * j) / (2 * j + 1)
            series += term
        inside = 2 / math.pi * (theta + (s * math.cos(theta) * series if dof > 1 else 0.0))
    return max(0.0, 1.0 - inside)


def z_gate(diff: float, stderr: float, dof: int) -> tuple[bool, float]:
    """Gate a Monte Carlo difference at 4 standard errors.

    The standard error is itself estimated from dof + 1 samples, so z is held
    against the Student-t quantile with the two-sided tail of a normal at 4.
    For thousands of samples that quantile is 4 to within 0.2%; for the eight
    samples of a large scan row it is 8.5.
    """
    if stderr == 0:
        return diff == 0, 0.0 if diff == 0 else math.inf
    z = abs(diff) / stderr
    return student_t_tail(z, dof) > P_4SIGMA, z
