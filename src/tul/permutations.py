"""Permutations on {0..k-1} as plain tuples of images.

Everything downstream (colored graphs, coverings, face counts) is built on
these. External formats use 1-based labels; conversion happens at the JSON
boundary, not here.
"""

from __future__ import annotations

from typing import Iterable

Perm = tuple[int, ...]


def is_perm(p: Iterable[int]) -> bool:
    p = tuple(p)
    return sorted(p) == list(range(len(p)))


def identity(k: int) -> Perm:
    return tuple(range(k))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def cycles(p: Perm) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles including fixed points, each starting at its minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return tuple(out)


def to_one_based(p: Perm) -> tuple[int, ...]:
    return tuple(i + 1 for i in p)


def cycle_string(p: Perm) -> str:
    """Cycle notation with 1-based labels, e.g. '(1 3 2)(4)'."""
    return "".join("(" + " ".join(str(i + 1) for i in cyc) + ")" for cyc in cycles(p))
