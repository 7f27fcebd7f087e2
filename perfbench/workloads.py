"""The four workloads: their inputs made from a seed, the timed calls into
`tul`, and the checks of every result against an exact or independent oracle.

`write_specs` runs in the parent and needs only the standard library.  A
workload object is built in the worker from those spec files, and reaches
`tul` only through its package-level API and `tul.cli.main`.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import oracles

WORKLOADS = ("verify", "enum", "wick", "scan")

VERIFY_MAX_K = VERIFY_MAX_D = 6
VERIFY_FAMILIES = ("cycle_11", "cycle_mm", "cycle_mn", "melonic")
ENUM_K, ENUM_N = 8, 8
WICK_SAMPLES = 2000
SCAN_CYCLE = {"k": 2, "m_colors": [1, 3], "n_colors": [2, 4]}
SCAN_N, SCAN_SAMPLES = (16, 32), (200, 8)
DISTRIBUTIONS = ("complex_gaussian", "complex_rademacher", "uniform_disc")


def _cycle(k, m, n):
    return {"family": "cycle", "spec": {"k": k, "m_colors": m, "n_colors": n}}


def _melonic(D, steps):
    return {"family": "melonic", "spec": {"D": D, "steps": [list(s) for s in steps]}}


# The Gaussian configs of acceptance criterion 5: (graph, ratios, N).
WICK_CONFIGS = (
    (_cycle(1, [1], [2]), ("1", "1"), 4),
    (_cycle(1, [1], [2]), ("1", "1"), 8),
    (_cycle(2, [1], [2]), ("1", "1"), 4),
    (_cycle(2, [1], [2]), ("1", "1"), 8),
    (_cycle(3, [1], [2]), ("1", "1"), 4),
    (_cycle(3, [1], [2]), ("1", "1"), 8),
    (_cycle(4, [1], [2]), ("1", "1"), 4),
    (_cycle(4, [1], [2]), ("1", "1"), 8),
    (_cycle(5, [1], [2]), ("1", "1"), 4),
    (_cycle(2, [1], [2, 3]), ("1", "1", "1"), 4),
    (_cycle(3, [1], [2, 3]), ("1", "1", "1"), 4),
    (_cycle(2, [1, 3], [2, 4]), ("1", "1", "1", "1"), 4),
    (_cycle(2, [1, 2], [3, 4, 5]), ("1", "1", "1", "1", "1"), 2),
    (_cycle(2, [1, 2], [3]), ("1", "1", "1"), 4),
    (_cycle(2, [1, 3], [2]), ("1", "1", "1"), 2),
    (_cycle(2, [1], [2]), ("1", "2"), 4),
    (_cycle(2, [1], [2]), ("3/2", "1"), 4),
    (_cycle(2, [1], [2]), ("1/2", "2"), 4),
    (_cycle(2, [1], [2, 3]), ("1", "1/2", "1"), 4),
    (_cycle(2, [1, 3], [2, 4]), ("1", "1", "3/2", "1"), 2),
    (_melonic(3, [(1, 1)]), ("1", "1", "1"), 2),
    (_melonic(3, [(2, 1), (3, 1)]), ("1", "1", "1"), 2),
    (_melonic(4, []), ("1", "1", "1", "1"), 3),
)


def _ratios(rng: random.Random, D: int) -> list[str]:
    # multiples of 1/N, so that every c_i N is an integer, and never 1
    return [str(Fraction(rng.choice([j for j in range(4, 25) if j != ENUM_N]), ENUM_N))
            for _ in range(D)]


def write_specs(workload: str, seed: int, spec_dir: Path) -> None:
    """Write the workload's inputs, all drawn from seed, as JSON files."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    spec_dir.mkdir(parents=True, exist_ok=True)
    if workload == "verify":
        spec = {"seed": rng.randrange(2 ** 31)}
    elif workload == "enum":
        steps = [(rng.randint(1, 4), rng.randint(1, t)) for t in range(1, ENUM_K)]
        graphs = [_cycle(ENUM_K, [1], [2]), _cycle(ENUM_K, [1], [2, 3]), _melonic(4, steps)]
        for g, D in zip(graphs, (2, 3, 4)):
            g["c"] = _ratios(rng, D)
        spec = {"N": ENUM_N, "graphs": graphs}
    elif workload == "wick":
        spec = {"samples": WICK_SAMPLES,
                "configs": [dict(graph, c=list(c), N=N, seed=rng.randrange(2 ** 63))
                            for graph, c, N in WICK_CONFIGS]}
    elif workload == "scan":
        (spec_dir / "cycle.json").write_text(json.dumps(SCAN_CYCLE))
        for dist in DISTRIBUTIONS:
            tensor = {"D": 4, "c": [1, 1, 1, 1], "N": SCAN_N[0], "distribution": dist,
                      "seed": rng.randrange(2 ** 63)}
            (spec_dir / f"tensor-{dist}.json").write_text(json.dumps(tensor))
        spec = {"N_list": list(SCAN_N), "samples": list(SCAN_SAMPLES)}
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    (spec_dir / "spec.json").write_text(json.dumps(spec, indent=1))


def _graph(tul, entry):
    """(ColoredGraph, the object that selects the route and family) of a spec entry."""
    if entry["family"] == "cycle":
        spec = tul.cycle_spec_from_json_dict(entry["spec"])
        return tul.make_cycle_graph(spec), spec
    recipe = tul.melonic_recipe_from_json_dict(entry["spec"])
    return tul.make_melonic(recipe), recipe


def _failure(err: Exception) -> dict:
    return {"error": f"{type(err).__name__}: {err}"}


# The reference loop samples the machine's speed before and after each
# operation.  REF_S is its time at the nominal speed that wall_s is scaled
# to: a typical time of the loop under Python 3.11 on the 2-vCPU machine the
# benchmark was built on.
REF_LOOP, REF_S = 100_000, 0.005


def reference_s() -> float:
    """Fastest of three runs of a fixed pure-Python loop that touches neither
    `tul` nor numpy."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(REF_LOOP):
            x += i
        best = min(best, time.perf_counter() - start)
    return best


@contextmanager
def _clock(times: dict, op: str):
    """Record in times[op] the wall time `s` of one operation of the timed
    phase, and the reference loop's times `ref_s` just before and after it."""
    before = reference_s()
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        times[op] = {"s": elapsed, "ref_s": [before, reference_s()]}


def verify_check_names(family: str) -> list[str]:
    """The checks `tul verify --max-k 6 --max-D 6 --families FAMILY` must report."""
    ks = range(1, VERIFY_MAX_K + 1)
    if family == "cycle_11":
        names = [f"cycle_11 {what} k={k}" for k in ks for what in ("catalan", "narayana")]
    elif family in ("cycle_mm", "cycle_mn"):
        names = []
        for D in range(2, VERIFY_MAX_D + 1):
            for m in range(1, D // 2 + 1):
                if (2 * m == D) != (family == "cycle_mm"):
                    continue
                for k in ks:
                    for m_colors in itertools.combinations(range(1, D + 1), m):
                        n_colors = [i for i in range(1, D + 1) if i not in m_colors]
                        names.append(f"{family} k={k} m={list(m_colors)} n={n_colors}")
    else:
        names = [f"melonic{what} D={D} k={k}" for D in range(3, VERIFY_MAX_D + 1)
                 for k in ks for what in ("", " coeff")]
    # every run of the suite ends with the same Monte Carlo gate
    return names + ["wick gaussian cycle_11 k=2 N=8"]


class Verify:
    """`tul verify --max-k 6 --max-D 6` in-process, one call per family:
    many small graphs."""

    def __init__(self, tul, spec_dir: Path):
        self.tul = tul
        self.seed = json.loads((spec_dir / "spec.json").read_text())["seed"]

    def run(self, out_dir: Path, times: dict):
        results = {}
        for family in VERIFY_FAMILIES:
            out = out_dir / f"verify-{family}.json"
            with _clock(times, family):
                code = self.tul.cli.main([
                    "verify", "--max-k", str(VERIFY_MAX_K), "--max-D", str(VERIFY_MAX_D),
                    "--families", family, "--seed", str(self.seed), "--out", str(out)])
            results[family] = {"exit": code, "text": out.read_text() if out.exists() else None}
        return results

    def check(self, raw):
        """One operation per expected check: it must be reported, and pass."""
        ops = []
        for family, res in raw.items():
            expected = verify_check_names(family)
            try:
                reported = {c["name"]: c for c in json.loads(res["text"])["checks"]}
            except (TypeError, ValueError, KeyError):
                reported = {}
            family_ops = [(name, name in reported and reported[name]["passed"],
                           reported[name]["detail"] if name in reported else "not reported")
                          for name in expected]
            extra = sorted(set(reported) - set(expected))
            if extra:
                family_ops.append((f"verify {family} check set", False,
                                   f"unexpected checks {extra}"))
            if res["exit"] != 0 and all(ok for _, ok, _ in family_ops):
                family_ops.append((f"verify {family} exit status", False, f"exit {res['exit']}"))
            ops += family_ops
        return ops


class Enum:
    """minimal_coverings, cross_check and the Wick sum on three k=8 graphs."""

    def __init__(self, tul, spec_dir: Path):
        self.tul = tul
        spec = json.loads((spec_dir / "spec.json").read_text())
        self.N = spec["N"]
        self.graphs = [(entry, *_graph(tul, entry), [Fraction(x) for x in entry["c"]])
                       for entry in spec["graphs"]]

    def run(self, out_dir: Path, times: dict):
        tul, results = self.tul, []
        for i, (_, B, family, c) in enumerate(self.graphs):
            try:
                with _clock(times, f"{i}.minimal_coverings"):
                    mcs = tul.minimal_coverings(B)
                with _clock(times, f"{i}.cross_check"):
                    report = tul.cross_check(B, family, c)
                with _clock(times, f"{i}.gaussian_exact_mean"):
                    wick = tul.gaussian_exact_mean(B, c, self.N)
                results.append({"gamma": mcs.gamma, "count": mcs.count, "wick": wick,
                                "coeff": [report.coeff_closed, report.coeff_enum]})
            except Exception as err:  # recorded as a failed operation
                results.append(_failure(err))
        return results

    def check(self, raw):
        ops = []
        for (entry, B, family, c), res in zip(self.graphs, raw):
            name = f"enum {entry['family']} {entry['spec']}"
            if "error" in res:
                ops.append((name, False, res["error"]))
                continue
            dims = [int(ci * self.N) for ci in c]
            k = B.k
            if entry["family"] == "cycle":
                m, n = entry["spec"]["m_colors"], entry["spec"]["n_colors"]
                gamma = len(m) * (k + 1) if len(m) == len(n) else len(n) * k + len(m)
                count = math.comb(2 * k, k) // (k + 1) if len(m) == len(n) else 1
                wick = oracles.wishart_moment(*oracles.cycle_sides(m, n, dims), k)
            else:
                gamma, count = 1 + k * (B.D - 1), 1
                wick = oracles.wick_sum(B.sigma, dims)
            ok = (res["gamma"], res["count"], res["wick"]) == (gamma, count, wick)
            ops.append((name, ok, f"gamma {res['gamma']}/{gamma}, count {res['count']}/{count}, "
                                  f"wick {res['wick']}/{wick}"))
        return ops


class Wick:
    """Criterion-5 Gaussian configs: Monte Carlo means against the Wick sum."""

    def __init__(self, tul, spec_dir: Path):
        self.tul = tul
        spec = json.loads((spec_dir / "spec.json").read_text())
        self.samples = spec["samples"]
        self.configs = []
        for entry in spec["configs"]:
            B, family = _graph(tul, entry)
            tensor = tul.tensor_spec_from_json_dict(
                {"D": B.D, "c": entry["c"], "N": entry["N"],
                 "distribution": "complex_gaussian", "seed": entry["seed"]})
            # a CycleSpec takes the matricized route, a ColoredGraph the naive one
            route = family if entry["family"] == "cycle" else B
            self.configs.append((entry, B, route, tensor))

    def run(self, out_dir: Path, times: dict):
        tul, results = self.tul, []
        for i, (_, B, route, tensor) in enumerate(self.configs):
            try:
                with _clock(times, f"{i}.gaussian_exact_mean"):
                    exact = tul.gaussian_exact_mean(B, tensor.c, tensor.N)
                with _clock(times, f"{i}.monte_carlo_mean"):
                    mean, stderr = tul.monte_carlo_mean(tensor, route, self.samples)
                results.append({"exact": exact, "mean": mean, "stderr": stderr})
            except Exception as err:  # recorded as a failed operation
                results.append(_failure(err))
        return results

    def check(self, raw):
        ops = []
        for (entry, B, route, tensor), res in zip(self.configs, raw):
            name = f"wick {entry['family']} {entry['spec']} c={entry['c']} N={entry['N']}"
            if "error" in res:
                ops.append((name, False, res["error"]))
                continue
            if entry["family"] == "cycle":
                sides = oracles.cycle_sides(entry["spec"]["m_colors"], entry["spec"]["n_colors"],
                                            tensor.dims)
                exact = oracles.wishart_moment(*sides, B.k)
            else:
                exact = oracles.wick_sum(B.sigma, tensor.dims)
            ok, z = oracles.z_gate(res["mean"] - exact, res["stderr"], self.samples - 1)
            ops.append((name, ok and res["exact"] == exact,
                        f"wick {res['exact']}/{exact}, mean {res['mean']!r}, z {z:.2f}"))
        return ops


class Scan:
    """`tul mc --cycle` on the (2,2)-cycle at k=2 for N in 16, 32, per distribution."""

    def __init__(self, tul, spec_dir: Path):
        self.tul, self.spec_dir = tul, spec_dir
        spec = json.loads((spec_dir / "spec.json").read_text())
        self.N_list, self.samples = spec["N_list"], spec["samples"]

    def run(self, out_dir: Path, times: dict):
        results = {}
        for dist in DISTRIBUTIONS:
            out = out_dir / f"scan-{dist}.json"
            with _clock(times, dist):
                code = self.tul.cli.main([
                    "mc", "--spec", str(self.spec_dir / f"tensor-{dist}.json"),
                    "--cycle", str(self.spec_dir / "cycle.json"),
                    "--N-list", ",".join(map(str, self.N_list)),
                    "--samples", ",".join(map(str, self.samples)), "--out", str(out)])
            results[dist] = {"exit": code, "text": out.read_text() if out.exists() else None}
        return results

    def check(self, raw):
        ops, rows = [], {}
        for dist, res in raw.items():
            try:
                rows[dist] = {r["N"]: r for r in json.loads(res["text"])["rows"]}
            except (TypeError, ValueError, KeyError):
                ops.append((f"scan {dist}", False, f"exit {res['exit']}, no readable rows"))
                continue
            if res["exit"] != 0 or sorted(rows[dist]) != sorted(self.N_list):
                ops.append((f"scan {dist}", False,
                            f"exit {res['exit']}, rows {sorted(rows[dist])}"))
                continue
            for N in self.N_list:
                row = rows[dist][N]
                p, q = oracles.cycle_sides(SCAN_CYCLE["m_colors"], SCAN_CYCLE["n_colors"], [N] * 4)
                exact = oracles.quartic_cycle_mean(p, q, dist)
                ok, z = oracles.z_gate(row["mean"] - exact, row["stderr"], row["samples"] - 1)
                detail = f"mean {row['mean']!r} exact {exact} z {z:.2f}"
                gauss = rows.get("complex_gaussian", {}).get(N)
                if dist != "complex_gaussian" and N == max(self.N_list) and gauss is not None:
                    # criterion 6: the largest N agrees with the Gaussian row
                    dof = min(row["samples"], gauss["samples"]) - 1
                    ok32, z32 = oracles.z_gate(row["mean"] - gauss["mean"],
                                               math.hypot(row["stderr"], gauss["stderr"]), dof)
                    ok, detail = ok and ok32, detail + f", vs Gaussian z {z32:.2f}"
                ops.append((f"scan {dist} N={N}", ok, detail))
        return ops


CLASSES = {"verify": Verify, "enum": Enum, "wick": Wick, "scan": Scan}
