"""Self-contained verification suite: replays the closed-form claims against
enumeration, the Wick sum, and a small Monte Carlo run.

Each check produces a CheckResult; the suite passes iff every check does.
The CLI, whose flag defaults are the suite's only defaults, turns the results
into an exit status and a JSON or CSV report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .asymptotics import CrossCheckError, cross_check
from .enumeration import (MAX_K, catalan, minimal_coverings, narayana_face_distribution,
                          narayana_row)
from .families import CycleSpec, make_cycle_graph, make_melonic, random_melonic_recipe
from .tensors import TensorSpec, gaussian_exact_mean, monte_carlo_mean

FAMILIES = ("cycle_11", "cycle_mm", "cycle_mn", "melonic")

# The most color splits, counted once per k, that cycle_mm and cycle_mn may
# check in one run.  A resource limit, not a tuning knob: D colors have about
# 2^D splits, and each check takes 0.08-0.09 ms and keeps a result of about
# 0.3 kB, so a run at the bound takes about 6 s and 125 MB of max RSS
# (--max-k 7 --max-D 13 checks 61,705 splits in 5.1-5.4 s and 123 MB,
# --max-k 3 --max-D 14 56,166 in 4.7-4.8 s and 117 MB; 2 vCPUs, numpy 2.4).
MAX_CYCLE_SPLITS = 2 ** 16

# The most graphs, (max_D - 2) * max_k, that melonic may check in one run.
# A resource limit like MAX_CYCLE_SPLITS: a passing check evaluates no
# coefficient, so nothing else stops a large run.  At k <= 9 a check takes
# 7-10 ms, 65-95 ms per D, almost all of it the graph's covering pass
# (--max-k 9 took 1.1, 2.9, 5.2 and 12.1 s at --max-D 20, 40, 80 and 160),
# so a run at the bound takes about 13 s and 55 MB of max RSS (--max-k 9
# --max-D 168, 1494 graphs: 11.9-12.8 s); at small k the cost grows with D
# (--max-k 1 --max-D 1502: 3.5-3.8 s and 42 MB; 2 vCPUs, numpy 2.4).
MAX_MELONIC_GRAPHS = 1500


@dataclass(frozen=True)
class CheckResult:
    """One check.  The field order is `tul verify`'s JSON key and CSV column
    order, so adding or reordering a field changes stdout and bumps cli.SCHEMA."""

    name: str
    passed: bool
    detail: str


def _random_ratios(rng, D: int) -> list[float]:
    return [float(x) for x in rng.uniform(0.5, 3.0, size=D)]


def _cycle_specs(max_k: int, max_D: int, want_equal: bool):
    for D in range(2, max_D + 1):
        for m in range(1, D):
            n = D - m
            if (m == n) != want_equal or m > n:
                continue
            for k in range(1, max_k + 1):
                for m_colors in combinations(range(1, D + 1), m):
                    n_colors = tuple(i for i in range(1, D + 1) if i not in m_colors)
                    yield CycleSpec(k=k, m_colors=frozenset(m_colors),
                                    n_colors=frozenset(n_colors))


def _cycle_splits(max_k: int, max_D: int, families) -> int:
    """The color splits that cycle_mm and cycle_mn in families check, once per
    k up to max_k; D stops at 64, where C(64, 32) alone is far past the bound."""
    return max_k * sum(math.comb(D, m) for D in range(2, min(max_D, 64) + 1)
                       for m in range(1, D // 2 + 1)
                       if ("cycle_mm" if 2 * m == D else "cycle_mn") in families)


def run_verify_suite(*, max_k: int, max_D: int, families, seed: int) -> list[CheckResult]:
    """The checks of the families named in families (from FAMILIES) for k up
    to max_k and D up to max_D, then the Wick gate, all drawn from seed.
    Before any check, refuses max_k < 1, max_k > MAX_K, max_D < 2, an unknown
    family, an empty family set, more than MAX_CYCLE_SPLITS cycle splits,
    more than MAX_MELONIC_GRAPHS melonic graphs and a seed outside
    0..2^64-1, in that order, with a ValueError."""
    families = frozenset(families)
    if max_k < 1:
        raise ValueError(f"max_k must be positive, got {max_k}")
    if max_k > MAX_K:
        raise ValueError(f"max_k={max_k} exceeds the enumeration cap ({MAX_K})")
    if max_D < 2:
        raise ValueError(f"max_D must be at least 2, got {max_D}")
    if unknown := families - set(FAMILIES):
        raise ValueError(f"unknown families: {sorted(unknown)}; choose from {FAMILIES}")
    if not families:
        raise ValueError("families must not be empty")
    if _cycle_splits(max_k, max_D, families) > MAX_CYCLE_SPLITS:
        raise ValueError(f"max_D={max_D} and max_k={max_k} give the cycle families more "
                         f"than {MAX_CYCLE_SPLITS} color splits to check")
    if "melonic" in families and (max_D - 2) * max_k > MAX_MELONIC_GRAPHS:
        raise ValueError(f"max_D={max_D} and max_k={max_k} give the melonic family more "
                         f"than {MAX_MELONIC_GRAPHS} graphs to check")
    # the Wick gate's tensor spec, built first: it refuses a seed out of range
    gate = TensorSpec(D=2, c=(1, 1), N=8, distribution="complex_gaussian", seed=seed)
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str):
        results.append(CheckResult(name=name, passed=passed, detail=detail))

    if "cycle_11" in families:
        for k in range(1, max_k + 1):
            spec = CycleSpec(k=k, m_colors=frozenset([1]), n_colors=frozenset([2]))
            B = make_cycle_graph(spec)
            mcs = minimal_coverings(B)
            ck = catalan(k)
            ok = mcs.count == ck and mcs.gamma == k + 1
            add(f"cycle_11 catalan k={k}", ok,
                f"count={mcs.count} expected={ck}, gamma={mcs.gamma} expected={k + 1}")
            hist = narayana_face_distribution(B, anchor_color=1)
            row = dict(enumerate(narayana_row(k), start=1))
            add(f"cycle_11 narayana k={k}", hist == row, f"histogram={hist} expected={row}")

    for family, want_equal in (("cycle_mm", True), ("cycle_mn", False)):
        if family not in families:
            continue
        for spec in _cycle_specs(max_k, max_D, want_equal):
            B = make_cycle_graph(spec)
            c = _random_ratios(rng, spec.D)
            name = (f"{family} k={spec.k} m={sorted(spec.m_colors)} n={sorted(spec.n_colors)}")
            try:
                report = cross_check(B, spec, c)
                add(name, True, f"gamma={report.gamma_enum} count={report.count_enum}")
            except CrossCheckError as err:
                add(name, False, str(err))

    if "melonic" in families:
        for D in range(3, max_D + 1):
            for k in range(1, max_k + 1):
                recipe = random_melonic_recipe(rng, D, k)
                B = make_melonic(recipe)
                mcs = minimal_coverings(B)
                gamma = 1 + k * (D - 1)
                ok = mcs.count == 1 and mcs.gamma == gamma
                add(f"melonic D={D} k={k}", ok,
                    f"count={mcs.count} expected=1, gamma={mcs.gamma} expected={gamma}, "
                    f"steps={list(recipe.steps)}")
                if ok:
                    c = _random_ratios(rng, D)
                    try:
                        cross_check(B, recipe, c)
                        add(f"melonic coeff D={D} k={k}", True, "closed form matches enumeration")
                    except CrossCheckError as err:
                        add(f"melonic coeff D={D} k={k}", False, str(err))

    # Wick gate at the smallest scale: Gaussian Monte Carlo against the exact sum
    spec = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2]))
    B = make_cycle_graph(spec)
    N, samples = gate.N, 2000
    exact = gaussian_exact_mean(B, (1, 1), N)
    mean, stderr = monte_carlo_mean(gate, spec, samples)
    z = abs(mean - exact) / stderr
    add("wick gaussian cycle_11 k=2 N=8", z < 4.0,
        f"mean={mean:.3f} exact={exact} stderr={stderr:.3f} z={z:.2f}")

    return results

