"""Tests of the benchmark harness itself: span tracing, oracles, and the
command's refusal to run without the program's sources.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tul  # noqa: E402
import tul.cli  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, busy, self_time  # noqa: E402
from worker import layer_metrics  # noqa: E402


def cycle(k, m, n):
    return tul.CycleSpec(k=k, m_colors=frozenset(m), n_colors=frozenset(n))


@pytest.fixture
def tracer():
    t = Tracer()
    wrapped = t.install(tul)
    yield t, wrapped
    t.uninstall()


def test_install_rebinds_from_imports_and_uninstall_restores(tracer):
    t, wrapped = tracer
    for module, attr in ((tul.cli, "universality_scan"), (tul.verify, "cross_check"),
                         (tul.tensors, "enumerate_coverings"),
                         (tul.asymptotics, "minimal_coverings"), (tul, "gaussian_exact_mean")):
        assert hasattr(getattr(module, attr), "__wrapped__"), (module, attr)
    assert "cli.main" in wrapped and "enumeration.enumerate_coverings" in wrapped
    t.uninstall()
    assert not hasattr(tul.cli.universality_scan, "__wrapped__")
    assert not hasattr(tul.enumeration.enumerate_coverings, "__wrapped__")


def test_traced_coverings_are_k_factorial_times_passes(tracer):
    t, wrapped = tracer
    spec = cycle(4, [1], [2])
    B = tul.make_cycle_graph(spec)
    gen = tul.enumerate_coverings(B)  # created but not iterated: no span yet
    assert t.rows == []
    del gen
    tul.minimal_coverings(B)
    tul.cross_check(B, spec, [Fraction(3, 2), Fraction(1, 2)])
    metrics, absent = layer_metrics(t.spans, wrapped, workloads.DISTRIBUTIONS)
    passes = metrics["enumeration.enumerate_coverings.passes"]
    assert passes == 3  # minimal_coverings, then twice inside cross_check
    assert metrics["enumeration.enumerate_coverings.coverings"] == math.factorial(4) * passes
    assert metrics["enumeration.useful_ratio"] == pytest.approx(1 / 3)
    assert metrics["asymptotics.cross_check.calls"] == 1
    assert 0 < metrics["asymptotics.cross_check.self_s"] < metrics["asymptotics.cross_check.busy_s"]
    assert absent == []


def test_removed_function_is_reported_absent(tracer):
    t, wrapped = tracer
    tul.minimal_coverings(tul.make_cycle_graph(cycle(2, [1], [2])))
    metrics, absent = layer_metrics(t.spans, [w for w in wrapped if w != "tensors.sample_tensor"],
                                    workloads.DISTRIBUTIONS)
    assert absent == ["tensors.sample_tensor"]
    assert metrics["tensors.sample_tensor.complex_gaussian.calls"] == 0


def test_busy_and_self_time_on_nested_spans():
    from spans import Span
    spans = [Span("a", 0.0, 10.0, -1), Span("b", 1.0, 3.0, 0), Span("b", 2.0, 4.0, 0),
             Span("a", 20.0, 21.0, -1)]
    assert busy(spans, {"b"}) == pytest.approx(3.0)
    assert busy(spans, {"a", "b"}) == pytest.approx(11.0)
    assert self_time(spans, "a") == pytest.approx(10.0 - 3.0 + 1.0)


def test_best_of_scales_each_operation_by_its_pass_reference_time():
    import run
    passes = [{"ops_s": {"a": {"s": 2.0, "ref_s": [0.01, 0.01]},
                         "b": {"s": 1.0, "ref_s": [0.01, 0.02]}}},
              {"ops_s": {"a": {"s": 1.5, "ref_s": [0.01, 0.005]},
                         "b": {"s": 1.0, "ref_s": [0.005, 0.005]}}}]
    assert run.best_of(passes, scaled=False) == pytest.approx(2.5)
    # each pass is scaled by the median of its reference times: 0.01, then 0.005
    assert run.best_of(passes) == pytest.approx(workloads.REF_S * (2.0 / 0.01 + 1.0 / 0.01))


def _small_specs(workload, tmp_path, **changes):
    spec_dir = tmp_path / "spec"
    workloads.write_specs(workload, 7, spec_dir)
    spec = json.loads((spec_dir / "spec.json").read_text())
    spec.update(changes)
    (spec_dir / "spec.json").write_text(json.dumps(spec))
    return spec_dir


@pytest.mark.parametrize("workload, changes", [
    ("wick", {"samples": 40}),
    ("scan", {"samples": [20, 2]}),
])
def test_traced_and_untraced_outputs_are_identical(workload, changes, tmp_path):
    work = workloads.CLASSES[workload](tul, _small_specs(workload, tmp_path, **changes))
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = work.run(tmp_path / "plain", {})
    t = Tracer()
    t.install(tul)
    try:
        traced = work.run(tmp_path / "traced", {})
    finally:
        t.uninstall()
    assert t.rows
    assert json.dumps(plain, sort_keys=True) == json.dumps(traced, sort_keys=True)


def test_specs_depend_only_on_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        workloads.write_specs(workload, 3, tmp_path / "a" / workload)
        workloads.write_specs(workload, 3, tmp_path / "b" / workload)
        workloads.write_specs(workload, 4, tmp_path / "c" / workload)
        a, b, c = (sorted((p.name, p.read_text()) for p in (tmp_path / x / workload).iterdir())
                   for x in "abc")
        assert a == b and a != c


def test_verify_check_fails_when_the_suite_drops_a_check(tmp_path):
    work = workloads.Verify(tul, _small_specs("verify", tmp_path))
    out = tmp_path / "cycle_11.json"
    code = tul.cli.main(["verify", "--max-k", str(workloads.VERIFY_MAX_K), "--families",
                         "cycle_11", "--seed", str(work.seed), "--out", str(out)])
    raw = {"cycle_11": {"exit": code, "text": out.read_text()}}
    ops = work.check(raw)
    assert len(ops) == len(workloads.verify_check_names("cycle_11"))
    assert all(ok for _, ok, _ in ops)
    report = json.loads(raw["cycle_11"]["text"])
    dropped = report["checks"].pop(3)["name"]
    raw["cycle_11"]["text"] = json.dumps(report)
    assert [(name, detail) for name, ok, detail in work.check(raw) if not ok] \
        == [(dropped, "not reported")]


@pytest.mark.parametrize("m, n", [([1], [2]), ([1], [2, 3]), ([1, 3], [2]), ([1, 2], [3, 4])])
def test_wishart_oracle_matches_gaussian_exact_mean(m, n):
    spec_D = len(m) + len(n)
    for k in range(1, 5):
        for c, N in (((1,) * spec_D, 2), ((Fraction(1, 2),) + (2,) * (spec_D - 1), 2)):
            B = tul.make_cycle_graph(cycle(k, m, n))
            dims = [int(ci * N) for ci in c]
            assert oracles.wishart_moment(*oracles.cycle_sides(m, n, dims), k) \
                == tul.gaussian_exact_mean(B, c, N)


def test_wick_sum_oracle_matches_gaussian_exact_mean():
    rng = np.random.default_rng(5)
    for D, k in ((3, 4), (4, 5), (5, 3)):
        B = tul.make_melonic(tul.random_melonic_recipe(rng, D, k))
        dims = [int(x) for x in rng.integers(1, 5, size=D)]
        assert oracles.wick_sum(B.sigma, dims) == tul.gaussian_exact_mean(B, dims, 1)


def test_quartic_mean_is_the_gaussian_wishart_moment():
    assert oracles.quartic_cycle_mean(6, 10, "complex_gaussian") == oracles.wishart_moment(6, 10, 2)


def test_student_t_gate():
    assert oracles.student_t_tail(1.0, 1) == pytest.approx(0.5)
    assert oracles.student_t_tail(4.0, 10 ** 6) == pytest.approx(oracles.P_4SIGMA, rel=1e-3)
    assert oracles.z_gate(3.9, 1.0, 10 ** 6)[0] and not oracles.z_gate(4.1, 1.0, 10 ** 6)[0]
    # eight samples: 4 standard errors are well within the noise of the estimate
    assert oracles.z_gate(8.0, 1.0, 7)[0] and not oracles.z_gate(9.0, 1.0, 7)[0]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
