"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --spec-dir DIR --out-dir DIR \
        [--trace-file FILE]

Set-up (importing numpy and `tul`, reading the spec files, building the
inputs, warming up LAPACK) is timed from the first line of this file.  The
timed phase follows; checks run after it and after peak memory is read, so
neither counts.  With --trace-file the `tul` layers are wrapped in spans and
the per-layer metrics are reported as well.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _import_tul():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tul
    import tul.cli
    if not Path(tul.__file__).resolve().is_relative_to(src):
        raise ImportError(f"tul was imported from {tul.__file__}, not from {src}")
    return tul


def _warm_up(np):
    # the first LAPACK and BLAS calls load and initialise them lazily
    a = np.eye(8, dtype=np.complex128)
    np.linalg.eigvalsh(a @ a.conj().T)


def layer_metrics(spans, wrapped, distributions) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and the traced functions a
    refactor removed (their metrics read 0)."""
    from spans import busy, gram_flops, self_time

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    enum = [s for s in spans if s.name == "enumeration.enumerate_coverings"]
    coverings = sum(s.attrs["items"] for s in enum)
    distinct = {s.attrs["graph"] for s in enum}
    predict = {n for n in wrapped if n.startswith("asymptotics.predict")}
    m = {
        "enumeration.enumerate_coverings.passes": len(enum),
        "enumeration.enumerate_coverings.coverings": coverings,
        "enumeration.enumerate_coverings.busy_s": busy(spans, {"enumeration.enumerate_coverings"}),
        "enumeration.minimal_coverings.calls": calls("enumeration.minimal_coverings"),
        "enumeration.minimal_coverings.busy_s": busy(spans, {"enumeration.minimal_coverings"}),
        "enumeration.limit_coefficient.busy_s": busy(spans, {"enumeration.limit_coefficient"}),
        "enumeration.useful_ratio":
            sum(math.factorial(B.k) for B in distinct) / coverings if coverings else 0.0,
        "asymptotics.cross_check.calls": calls("asymptotics.cross_check"),
        "asymptotics.cross_check.busy_s": busy(spans, {"asymptotics.cross_check"}),
        "asymptotics.cross_check.self_s": self_time(spans, "asymptotics.cross_check"),
        "asymptotics.predict.busy_s": busy(spans, predict),
        "tensors.gaussian_exact_mean.calls": calls("tensors.gaussian_exact_mean"),
        "tensors.gaussian_exact_mean.busy_s": busy(spans, {"tensors.gaussian_exact_mean"}),
        "tensors.trace_invariant_cycle.calls": calls("tensors.trace_invariant_cycle"),
        "tensors.trace_invariant_cycle.busy_s": busy(spans, {"tensors.trace_invariant_cycle"}),
        "tensors.trace_invariant_cycle.gram_flops": sum(
            gram_flops(s.attrs) for s in spans
            if s.name == "tensors.trace_invariant_cycle" and s.attrs),
        "tensors.trace_invariant_naive.calls": calls("tensors.trace_invariant_naive"),
        "tensors.trace_invariant_naive.busy_s": busy(spans, {"tensors.trace_invariant_naive"}),
        "tensors.monte_carlo_mean.self_s": self_time(spans, "tensors.monte_carlo_mean"),
        "tensors.universality_scan.self_s": self_time(spans, "tensors.universality_scan"),
        "verify.run_verify_suite.busy_s": busy(spans, {"verify.run_verify_suite"}),
        "verify.run_verify_suite.self_s": self_time(spans, "verify.run_verify_suite"),
        "verify.checks": sum(s.attrs["checks"] for s in spans
                             if s.name == "verify.run_verify_suite" and s.attrs),
        "cli.main.self_s": self_time(spans, "cli.main"),
    }
    for dist in distributions:
        draws = [s for s in spans if s.name == "tensors.sample_tensor"
                 and s.attrs and s.attrs["distribution"] == dist]
        m[f"tensors.sample_tensor.{dist}.calls"] = len(draws)
        m[f"tensors.sample_tensor.{dist}.busy_s"] = busy(draws, {"tensors.sample_tensor"})
        m[f"tensors.sample_tensor.{dist}.bytes"] = 16 * sum(s.attrs["entries"] for s in draws)
    needed = ["enumeration.enumerate_coverings", "enumeration.minimal_coverings",
              "enumeration.limit_coefficient", "asymptotics.cross_check",
              "tensors.gaussian_exact_mean", "tensors.sample_tensor",
              "tensors.trace_invariant_cycle", "tensors.trace_invariant_naive",
              "tensors.monte_carlo_mean", "tensors.universality_scan",
              "verify.run_verify_suite", "cli.main"]
    absent = [n for n in needed if n not in wrapped]
    if not predict:
        absent.append("asymptotics.predict*")
    return m, absent


def provenance(np, tul) -> dict:
    import ctypes
    import os
    import platform
    import tomllib

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    threads = fn()
                    break
    except OSError:
        pass
    try:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        version = getattr(tul, "__version__", None)
    return {"tul": version, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--spec-dir", required=True, type=Path)
    ap.add_argument("--out-dir", required=True, type=Path)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)

    import numpy as np
    tul = _import_tul()
    from workloads import CLASSES, DISTRIBUTIONS
    work = CLASSES[args.workload](tul, args.spec_dir)
    _warm_up(np)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    setup_s = time.perf_counter() - _T0

    tracer = None
    if args.trace_file is not None:
        from spans import Tracer
        tracer = Tracer()
        wrapped = tracer.install(tul)
    ops_s: dict[str, dict] = {}
    raw = work.run(args.out_dir, ops_s)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = work.check(raw)
    result = {"ops_s": ops_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
              "digest": hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest(),
              "provenance": provenance(np, tul)}
    if tracer is not None:
        spans = tracer.spans
        result["layers"], result["absent"] = layer_metrics(spans, wrapped, DISTRIBUTIONS)
        short = [s for s in spans if s.name == "enumeration.enumerate_coverings"
                 and s.attrs["items"] != math.factorial(s.attrs["graph"].k)]
        ops.append(("trace: every enumeration pass yields k! coverings", not short,
                    f"{len(short)} passes yielded fewer or more"))
        tracer.dump(args.trace_file)
    result["attempted"] = len(ops)
    result["failed"] = [[n, d] for n, ok, d in ops if not ok]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
