"""The repository benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload {verify,enum,wick,scan} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The inputs are drawn from --seed and
written to spec files under .perfbench/; each pass then runs in a fresh
worker process (perfbench/worker.py), so that set-up time and peak memory
belong to that workload and no cache survives from one pass to the next.
Passes repeat while another one still fits in --seconds, and at least
MIN_PASSES run.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported.
wall_s is the timed phase's wall time taken operation by operation and
scaled to a nominal machine speed.  A fixed pure-Python reference loop is
timed before and after each operation; each operation's time is divided by the median
reference time of its pass, the fastest of these ratios among the passes is
taken, and their sum is multiplied by the loop's nominal time REF_S.  Other
tenants of a shared machine slow a pass by up to 2x for seconds to minutes
at a time; the reference loop slows with it, and the fastest of several
passes drops short bursts.  The unscaled sum
of fastest times is printed too.  setup_s and peak_rss_mb are medians over
the passes.  With
--trace 1 untraced and traced passes alternate, the per-layer metrics are
medians over the traced passes, and trace.overhead_s compares the two kinds.
Every result is checked; the last line of stdout is one JSON object with
correct, attempted, failed and metrics.  See DESIGN.md for why each workload
and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REF_S, WORKLOADS, write_specs

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
MIN_PASSES = 3          # per kind of pass: untraced, and traced with --trace 1
BUDGET_S = 170.0        # the whole run, set-up included, must end within 180 s


def _git_commit() -> str | None:
    # the ceiling keeps git from taking the commit of a repository around ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run_pass(workload: str, run_dir: Path, index: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
           "--spec-dir", str(run_dir / "spec"),
           "--out-dir", str(run_dir / f"pass{index}")]
    if traced:
        cmd += ["--trace-file", str(run_dir / f"spans-pass{index}.json")]
    env = {k: v for k, v in os.environ.items() if k != "TUL_ENUM_CAP"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker pass {index} exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-4000:]}")
    return json.loads(lines[-1])


def measure(run_dir: Path, workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[list, list]:
    """Run passes while another fits in `seconds`; return (untraced, traced) results."""
    shutil.rmtree(run_dir, ignore_errors=True)
    write_specs(workload, seed, run_dir / "spec")
    kinds = (False, True) if trace else (False,)
    done: dict[bool, list] = {False: [], True: []}
    start = time.monotonic()
    index = 0
    while True:
        traced = kinds[index % len(kinds)]
        before = time.monotonic()
        done[traced].append(_run_pass(workload, run_dir, index, traced,
                                      BUDGET_S - (before - start)))
        index += 1
        now = time.monotonic()
        enough = all(len(done[k]) >= MIN_PASSES for k in kinds)
        if enough and now - start + (now - before) > seconds:
            break
        if now - start + (now - before) > BUDGET_S:
            if not enough:
                raise RuntimeError(f"only {index} passes fit in {BUDGET_S:.0f} s")
            break
    return done[False], done[True]


def best_of(passes, scaled: bool = True) -> float:
    """Sum over the timed phase's operations of each one's fastest time.

    Scaled, each time is first divided by its pass's median reference-loop
    time, and the sum is given in seconds at REF_S.
    """
    ops = set.intersection(*(set(p["ops_s"]) for p in passes))
    if not scaled:
        return sum(min(p["ops_s"][op]["s"] for p in passes) for op in ops)
    refs = [statistics.median(r for t in p["ops_s"].values() for r in t["ref_s"])
            for p in passes]
    return REF_S * sum(min(p["ops_s"][op]["s"] / ref for p, ref in zip(passes, refs))
                       for op in ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tul" / "__init__.py").is_file():
        print(f"error: no tul sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    run_dir = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        plain, traced = measure(run_dir, args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    passes = plain + traced
    failures = [f for p in passes for f in p["failed"]]
    attempted = sum(p["attempted"] for p in passes)
    same_outputs = len({p["digest"] for p in passes}) == 1
    wall = best_of(plain)
    if args.trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = best_of(traced) - wall
        values = layers
    else:
        values = {"wall_s": wall,
                  "setup_s": statistics.median(p["setup_s"] for p in plain),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
    if set(values) != set(wanted):
        print(f"error: metrics {sorted(set(values) ^ set(wanted))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    provenance = dict(plain[0]["provenance"], commit=_git_commit(), seed=args.seed)
    absent = sorted({a for p in traced for a in p.get("absent", [])})
    record = {"workload": args.workload, "seed": args.seed, "provenance": provenance,
              "absent": absent, "same_outputs": same_outputs, "failures": failures,
              "passes": passes}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced passes, "
          f"{len(traced)} traced")
    for name, value in values.items():
        print(f"  {name:44s} {value:.6g} {wanted[name]}")
    print(f"  {'unscaled wall time, fastest per operation':44s} {best_of(plain, False):.6g} s")
    print(f"  {'failed_ratio':44s} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} operations)")
    if absent:
        print(f"  absent functions, reported as 0: {', '.join(absent)}")
    if not same_outputs:
        print("  outputs differ between passes", file=sys.stderr)
    for name, detail in failures[:20]:
        print(f"  FAILED {name}: {detail}", file=sys.stderr)
    print("provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": not failures and same_outputs,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": wanted[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
