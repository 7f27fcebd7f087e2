"""Self-contained verification suite: replays the closed-form claims against
enumeration, the Wick sum, and a small Monte Carlo run.

Each check produces a CheckResult; the suite passes iff every check does.
The CLI turns the results into an exit status and a JSON summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .asymptotics import CrossCheckError, cross_check
from .enumeration import (MAX_K, catalan, minimal_coverings, narayana_face_distribution,
                          narayana_row)
from .families import CycleSpec, make_cycle_graph, make_melonic, random_melonic_recipe
from .tensors import TensorSpec, gaussian_exact_mean, monte_carlo_mean

FAMILIES = ("cycle_11", "cycle_mm", "cycle_mn", "melonic")


@dataclass(frozen=True)
class VerifySuiteConfig:
    max_k: int = 5
    max_D: int = 5
    families: frozenset[str] = field(default_factory=lambda: frozenset(FAMILIES))
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "families", frozenset(self.families))
        if self.max_k < 1:
            raise ValueError(f"max_k must be positive, got {self.max_k}")
        if self.max_k > MAX_K:
            raise ValueError(f"max_k={self.max_k} exceeds the enumeration cap ({MAX_K})")
        if self.max_D < 2:
            raise ValueError(f"max_D must be at least 2, got {self.max_D}")
        unknown = self.families - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown families: {sorted(unknown)}; choose from {FAMILIES}")
        if not self.families:
            raise ValueError("families must not be empty")


@dataclass(frozen=True)
class CheckResult:
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


def run_verify_suite(config: VerifySuiteConfig) -> list[CheckResult]:
    rng = np.random.default_rng(config.seed)
    results: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str):
        results.append(CheckResult(name=name, passed=passed, detail=detail))

    if "cycle_11" in config.families:
        for k in range(1, config.max_k + 1):
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
        if family not in config.families:
            continue
        for spec in _cycle_specs(config.max_k, config.max_D, want_equal):
            B = make_cycle_graph(spec)
            c = _random_ratios(rng, spec.D)
            name = (f"{family} k={spec.k} m={sorted(spec.m_colors)} n={sorted(spec.n_colors)}")
            try:
                report = cross_check(B, spec, c)
                add(name, True, f"gamma={report.gamma_enum} count={report.count_enum}")
            except CrossCheckError as err:
                add(name, False, str(err))

    if "melonic" in config.families:
        for D in range(3, max(config.max_D, 3) + 1):
            for k in range(1, config.max_k + 1):
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
    N, samples = 8, 2000
    exact = gaussian_exact_mean(B, (1, 1), N)
    tspec = TensorSpec(D=2, c=(1, 1), N=N, distribution="complex_gaussian", seed=config.seed)
    mean, stderr = monte_carlo_mean(tspec, spec, samples)
    z = abs(mean - exact) / stderr
    add("wick gaussian cycle_11 k=2 N=8", z < 4.0,
        f"mean={mean:.3f} exact={exact} stderr={stderr:.3f} z={z:.2f}")

    return results


def suite_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
