"""Acceptance gate: ten end-to-end criteria, one summary line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Every random draw is seeded, so the whole gate is
reproducible bit for bit.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from reference import (CoveringGraph, face_profile, genus, margins, narayana_recurrence,
                       random_unitary, unitary_invariance_check)
from tul.asymptotics import cross_check
from tul.enumeration import (catalan, minimal_coverings, narayana_face_distribution,
                             narayana_row)
from tul.families import (CycleSpec, MelonicRecipe, make_cycle_graph, make_dipole,
                          make_melonic, random_melonic_recipe)
from tul.graphs import ColoredGraph, is_connected
from tul.tensors import (TensorSpec, gaussian_exact_mean, monte_carlo_mean,
                         trace_invariant_cycle, trace_invariant_naive, trace_invariant_network,
                         universality_scan)

CATALAN = (1, 2, 5, 14, 42, 132)


def cyc(k, m, n):
    return CycleSpec(k=k, m_colors=frozenset(m), n_colors=frozenset(n))


def report(n, ok, detail):
    print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_catalan_counts():
    t0 = time.perf_counter()
    rows = []
    for k in range(1, 7):
        mcs = minimal_coverings(make_cycle_graph(cyc(k, [1], [2])))
        rows.append((k, mcs.count, mcs.gamma))
    elapsed = time.perf_counter() - t0
    ok = (all(count == CATALAN[k - 1] and gamma == k + 1 for k, count, gamma in rows)
          and elapsed < 10)
    report(1, ok, f"two-color cycle minimal-covering counts "
                  f"{[c for _, c, _ in rows]} with gamma=k+1, {elapsed:.2f}s")
    assert ok, rows


def test_criterion_2_narayana_refinement():
    hist_ok = True
    for k in range(1, 7):
        B = make_cycle_graph(cyc(k, [1], [2]))
        hist = narayana_face_distribution(B, anchor_color=1)
        hist_ok = hist_ok and hist == dict(enumerate(narayana_row(k), start=1))
    rec_ok = all(narayana_recurrence(k, l) == n
                 for k in range(1, 13) for l, n in enumerate(narayana_row(k), start=1))
    ok = hist_ok and rec_ok
    report(2, ok, "face histograms match Narayana rows for k<=6, "
                  "recurrence matches closed form for k<=12")
    assert ok


def test_criterion_3_melonic_uniqueness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    bad = []
    total = 0
    for D in (3, 4, 5):
        for k in range(1, 6):
            for _ in range(4):
                recipe = random_melonic_recipe(rng, D=D, k=k)
                mcs = minimal_coverings(make_melonic(recipe))
                total += 1
                if mcs.count != 1 or mcs.gamma != 1 + k * (D - 1):
                    bad.append((recipe, mcs.count, mcs.gamma))
    elapsed = time.perf_counter() - t0
    ok = not bad and total == 60 and elapsed < 60
    report(3, ok, f"{total} random melonic recipes (D in 3..5, k<=5) each have a "
                  f"unique minimal covering with gamma=1+k(D-1), {elapsed:.1f}s")
    assert ok, bad


def test_criterion_4_cycle_closed_forms():
    rng = np.random.default_rng(11)
    pairs = [(m, n) for m in range(1, 6) for n in range(1, 6) if m + n <= 6]
    assert len(pairs) == 15
    checked = 0
    for m, n in pairs:
        D = m + n
        for k in range(1, 5):
            colors = [int(x) + 1 for x in rng.permutation(D)]
            spec = CycleSpec(k=k, m_colors=frozenset(colors[:m]),
                             n_colors=frozenset(colors[m:]))
            c = [Fraction(int(rng.integers(4, 25)), 8) for _ in range(D)]
            rep = cross_check(make_cycle_graph(spec), spec, c)
            if m == n:
                assert rep.gamma_closed == m * (k + 1) and rep.count_closed == catalan(k)
            elif m < n:
                assert rep.gamma_closed == n * k + m and rep.count_closed == 1
            else:
                assert rep.gamma_closed == m * k + n and rep.count_closed == 1
            checked += 1
    ok = checked == 60
    report(4, ok, f"{checked} (m,n)-cycle cross-checks (m+n<=6, k<=4) match enumeration: "
                  "exact gamma and count, coefficients to rel 1e-12")
    assert ok


def test_criterion_5_wick_exactness():
    t0 = time.perf_counter()
    configs = [
        (cyc(1, [1], [2]), (1, 1), 4),
        (cyc(1, [1], [2]), (1, 1), 8),
        (cyc(2, [1], [2]), (1, 1), 4),
        (cyc(2, [1], [2]), (1, 1), 8),
        (cyc(3, [1], [2]), (1, 1), 4),
        (cyc(3, [1], [2]), (1, 1), 8),
        (cyc(4, [1], [2]), (1, 1), 4),
        (cyc(4, [1], [2]), (1, 1), 8),
        (cyc(5, [1], [2]), (1, 1), 4),
        (cyc(2, [1], [2, 3]), (1, 1, 1), 4),
        (cyc(3, [1], [2, 3]), (1, 1, 1), 4),
        (cyc(2, [1, 3], [2, 4]), (1, 1, 1, 1), 4),
        (cyc(2, [1, 2], [3, 4, 5]), (1, 1, 1, 1, 1), 2),
        (cyc(2, [1, 2], [3]), (1, 1, 1), 4),
        (cyc(2, [1, 3], [2]), (1, 1, 1), 2),
        (cyc(2, [1], [2]), (1, 2), 4),
        (cyc(2, [1], [2]), (Fraction(3, 2), 1), 4),
        (cyc(2, [1], [2]), (Fraction(1, 2), 2), 4),
        (cyc(2, [1], [2, 3]), (1, Fraction(1, 2), 1), 4),
        (cyc(2, [1, 3], [2, 4]), (1, 1, Fraction(3, 2), 1), 2),
        (make_melonic(MelonicRecipe(D=3, steps=((1, 1),))), (1, 1, 1), 2),
        (make_melonic(MelonicRecipe(D=3, steps=((2, 1), (3, 1)))), (1, 1, 1), 2),
        (make_dipole(4), (1, 1, 1, 1), 3),
    ]
    assert len(configs) >= 20
    worst = 0.0
    failures = []
    for i, (graph, c, N) in enumerate(configs):
        B = make_cycle_graph(graph) if isinstance(graph, CycleSpec) else graph
        spec = TensorSpec(D=B.D, c=c, N=N, distribution="complex_gaussian", seed=500 + i)
        mean, stderr = monte_carlo_mean(spec, graph, 10_000)
        exact = gaussian_exact_mean(B, c, N)
        if i == 3:
            assert exact == 1024  # (1,1)-cycle k=2 at N=8: 2 * 8^3
        z = abs(mean - exact) / stderr
        worst = max(worst, z)
        if z >= 4:
            failures.append((i, exact, mean, z))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300
    report(5, ok, f"{len(configs)} Gaussian configs at 10^4 samples match the Wick "
                  f"oracle, worst z={worst:.2f} (gate 4), {elapsed:.0f}s")
    assert ok, failures


def test_criterion_6_universality():
    t0 = time.perf_counter()
    N_list = [4, 8, 16, 32]
    plans = [
        (cyc(2, [1], [2, 3]), (1, 1, 1), [1000, 1000, 800, 10], 5, 1.0),
        (cyc(2, [1, 3], [2, 4]), (1, 1, 1, 1), [1200, 500, 360, 12], 6, 2.0),
    ]
    seeds = {"complex_gaussian": 2000, "complex_rademacher": 2001, "uniform_disc": 2002}
    failures = []
    details = []
    for spec, c, samples, gamma, predicted in plans:
        scans = {}
        for dist, seed in seeds.items():
            tspec = TensorSpec(D=spec.D, c=c, N=4, distribution=dist, seed=seed)
            scans[dist] = universality_scan(tspec, spec, N_list, samples)
            assert scans[dist].gamma == gamma
            assert scans[dist].predicted == predicted
        for dist in ("complex_rademacher", "uniform_disc"):
            gaps = margins(scans[dist])
            if not all(a > b for a, b in zip(gaps, gaps[1:])):
                failures.append((spec, dist, "margins not strictly decreasing", gaps))
            g_row, d_row = scans["complex_gaussian"].rows[-1], scans[dist].rows[-1]
            se_g = g_row.stderr / 32 ** gamma
            se_d = d_row.stderr / 32 ** gamma
            z32 = abs(d_row.normalized - g_row.normalized) / math.hypot(se_g, se_d)
            if z32 >= 4:
                failures.append((spec, dist, "N=32 disagrees with Gaussian", z32))
            details.append(f"{z32:.2f}")
    elapsed = time.perf_counter() - t0
    ok = not failures
    report(6, ok, "(1,2)- and (2,2)-cycle normalized means: margins shrink with N for "
                  f"rademacher/disc, N=32 vs Gaussian z={','.join(details)} (gate 4), "
                  f"{elapsed:.0f}s")
    assert ok, failures


def test_criterion_7_contraction_equivalence():
    # three routes that share only the vertex label lists: naive = cycle and
    # network = cycle on random cycle specs, network = naive on random
    # connected graphs within the naive budget
    rng = np.random.default_rng(1234)
    worst = 0.0
    count = 0
    while count < 100:
        k = int(rng.choice([1, 2, 3, 4], p=[0.3, 0.35, 0.25, 0.1]))
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        D = m + n
        dims = tuple(int(rng.integers(2, 5)) for _ in range(D))
        if math.prod(dims) ** k > 10 ** 7 or math.prod(dims) ** (k - 1) > 2 * 10 ** 4:
            continue
        colors = [int(x) + 1 for x in rng.permutation(D)]
        spec = CycleSpec(k=k, m_colors=frozenset(colors[:m]),
                         n_colors=frozenset(colors[m:]))
        T = (rng.standard_normal(dims) + 1j * rng.standard_normal(dims)) * 0.8
        B = make_cycle_graph(spec)
        a = trace_invariant_naive(T, B)
        b = trace_invariant_cycle(T, spec)
        c = trace_invariant_network(T, B)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300), abs(c - b) / max(abs(b), 1e-300))
        count += 1
    graphs = 0
    while graphs < 100:
        k, D = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        B = ColoredGraph(k=k, sigma=tuple(tuple(int(x) for x in rng.permutation(k))
                                          for _ in range(D)))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(D))
        if not is_connected(B) or math.prod(dims) ** k > 10 ** 6:
            continue
        T = (rng.standard_normal(dims) + 1j * rng.standard_normal(dims)) * 0.8
        a = trace_invariant_naive(T, B)
        c = trace_invariant_network(T, B)
        worst = max(worst, abs(c - a) / max(abs(a), 1e-300))
        graphs += 1
    ok = worst <= 1e-9
    report(7, ok, f"naive, matricized and network contraction agree on {count} random "
                  f"cycle instances and network = naive on {graphs} random connected graphs, "
                  f"worst rel diff {worst:.1e} (gate 1e-9)")
    assert ok


def test_criterion_8_genus_gate():
    bad = []
    for k in range(1, 7):
        B = make_cycle_graph(cyc(k, [1], [2]))
        minimal = {tau for tau, _ in minimal_coverings(B).members}
        planar = 0
        for tau in itertools.permutations(range(k)):
            G = CoveringGraph(base=B, tau=tau)
            g, zero = genus(G), face_profile(G)
            if g.denominator != 1 or g < 0:
                bad.append((k, tau, g))
            if (g == 0) != (sum(zero) == k + 1):
                bad.append((k, tau, g, sum(zero)))
            if (g == 0) != (tau in minimal):
                bad.append((k, tau, g, "minimal"))
            planar += g == 0
        if planar != CATALAN[k - 1]:
            bad.append((k, "planar count", planar))
    ok = not bad
    report(8, ok, "every two-color covering for k<=6 has nonnegative integer genus, "
                  "genus 0 exactly on the Catalan-many minimal coverings")
    assert ok, bad


def test_criterion_9_invariance_and_homogeneity():
    rng = np.random.default_rng(4321)
    worst_u = 0.0
    for trial in range(25):
        if trial % 2 == 0:
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            n = int(rng.integers(1, 3))
            graph = CycleSpec(k=k, m_colors=frozenset(range(1, m + 1)),
                              n_colors=frozenset(range(m + 1, m + n + 1)))
            dims = tuple(int(rng.integers(2, 5)) for _ in range(graph.D))
        else:
            graph = make_melonic(random_melonic_recipe(rng, D=3, k=int(rng.integers(1, 3))))
            dims = tuple(int(rng.integers(2, 4)) for _ in range(3))
        T = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        Us = [random_unitary(rng, d) for d in dims]
        worst_u = max(worst_u, unitary_invariance_check(T, graph, Us))
    worst_h = 0.0
    for _ in range(25):
        k = int(rng.integers(1, 4))
        spec = cyc(k, [1], [2])
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        T = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        a = trace_invariant_cycle(lam * T, spec)
        b = abs(lam) ** (2 * k) * trace_invariant_cycle(T, spec)
        worst_h = max(worst_h, abs(a - b) / max(abs(b), 1e-300))
    ok = worst_u < 1e-8 and worst_h < 1e-8
    report(9, ok, f"50 randomized checks: unitary-invariance dev {worst_u:.1e}, "
                  f"homogeneity dev {worst_h:.1e} (gate 1e-8)")
    assert ok, (worst_u, worst_h)


def test_criterion_10_melonic_universality():
    # Gurau's melonic family by Monte Carlo on the network route: D=3, k=3,
    # gamma=7.  Every row is flagged at these N, where the subleading terms
    # run about 2/N, so flagged is not gated.  The counts come from a pilot
    # on seeds 900-902; about 1.5 s on 2 vCPUs.
    t0 = time.perf_counter()
    B = make_melonic(MelonicRecipe(D=3, steps=((1, 1), (2, 1))))
    N_list, samples = [4, 8, 16, 32], [4000, 1000, 200, 40]
    seeds = {"complex_gaussian": 3000, "complex_rademacher": 3001, "uniform_disc": 3002}
    scans = {}
    for dist, seed in seeds.items():
        tspec = TensorSpec(D=3, c=(1, 1, 1), N=4, distribution=dist, seed=seed)
        scans[dist] = universality_scan(tspec, B, N_list, samples)
        assert scans[dist].gamma == 7
        assert scans[dist].predicted == 1.0
    failures = []
    details = []
    g_row = scans["complex_gaussian"].rows[-1]
    for dist in ("complex_rademacher", "uniform_disc"):
        gaps = margins(scans[dist])
        if not all(a > b for a, b in zip(gaps, gaps[1:])):
            failures.append((dist, "margins not strictly decreasing", gaps))
        d_row = scans[dist].rows[-1]
        z32 = abs(d_row.normalized - g_row.normalized) / math.hypot(g_row.stderr / 32 ** 7,
                                                                    d_row.stderr / 32 ** 7)
        if z32 >= 4:
            failures.append((dist, "N=32 disagrees with Gaussian", z32))
        details.append(f"{z32:.2f}")
    elapsed = time.perf_counter() - t0
    ok = not failures
    report(10, ok, "melonic D=3 k=3 normalized means: margins shrink with N for "
                   f"rademacher/disc, N=32 vs Gaussian z={','.join(details)} (gate 4), "
                   f"{elapsed:.1f}s")
    assert ok, failures
