"""Command-line entry point: enumerate / asym / mc / verify.

Every subcommand is a pure function of its flags, input files, and seed, so
identical invocations produce byte-identical output.  Outputs are JSON by
default (with a schema version field) or CSV via --format csv; malformed
inputs exit with status 2 and a diagnostic naming the offending field.

`asym`, `mc` and `verify` build each result once, as dicts whose keys are both
the JSON keys and the CSV columns; the rows of `mc` and `verify` are their
`ScanRow` and `CheckResult` fields, read into shallow dicts by `_fields`, so a
new field needs no edit here.
`enumerate`'s CSV is a table of its own: one row per minimal covering.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from .asymptotics import predict
from .enumeration import minimal_coverings, narayana_face_distribution
from .families import cycle_spec_from_json_dict, melonic_recipe_from_json_dict
from .graphs import graph_from_json_dict
from .permutations import cycle_string, to_one_based
from .tensors import STREAM, ScanRow, tensor_spec_from_json_dict, universality_scan
from .verify import FAMILIES, CheckResult, run_verify_suite

SCHEMA = 1


class CliError(Exception):
    """User-facing input problem; message printed without a traceback."""


def _int_list(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or a comma list of integers, got {raw!r}") from None


def _seed(raw: str) -> int:
    try:
        value = int(raw)
        if value < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw!r}") from None
    return value


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise CliError(f"cannot read {path}: {err.strerror or err}") from None
    except (ValueError, RecursionError) as err:  # bad syntax, encoding, or int size
        raise CliError(f"{path} cannot be read as JSON: {err}") from None


def _fields(records, cls) -> list[dict]:
    """Each record's fields as a dict in cls's field order.  The values are
    shared, not copied as dataclasses.asdict copies them: they are numbers,
    bools and strings, written out at once."""
    names = [f.name for f in dataclasses.fields(cls)]
    return [{name: getattr(record, name) for name in names} for record in records]


def _report(args, data, header=None, rows=None):
    """Write header + rows as CSV under --format csv, else data as JSON; to --out or stdout."""
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        text = buf.getvalue()
    else:
        text = json.dumps({"schema": SCHEMA, **data}, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as err:
            raise CliError(f"cannot write {args.out}: {err.strerror or err}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    B = graph_from_json_dict(_load_json(args.graph))
    # the histogram refuses a graph or color it does not take before any pass, in either format
    hist = (None if args.histogram is None
            else narayana_face_distribution(B, anchor_color=args.histogram))
    mcs = minimal_coverings(B)
    if args.format == "csv":
        header = ["tau"] + [f"f_{i}" for i in range(1, B.D + 1)] + ["total"]
        rows = [[cycle_string(tau), *zero, mcs.gamma] for tau, zero in mcs.members]
        _report(args, None, header, rows)
        return 0
    data = {"gamma": mcs.gamma, "count": mcs.count}
    if args.faces:
        data["members"] = [{"tau": list(to_one_based(tau)), "zero_faces": list(zero),
                             "total": mcs.gamma} for tau, zero in mcs.members]
    if hist is not None:
        data["histogram"] = {str(l): n for l, n in hist.items()}
    _report(args, data)
    return 0


def _cmd_asym(args) -> int:
    read = melonic_recipe_from_json_dict if args.family == "melonic" else cycle_spec_from_json_dict
    spec = read(_load_json(args.spec))
    pred = predict(spec, args.c.split(",") if args.c is not None else [1] * spec.D)
    data = {"family": pred.family, "gamma": pred.gamma, "coefficient": pred.coefficient}
    _report(args, data, list(data), [list(data.values())])
    return 0


def _cmd_mc(args) -> int:
    tspec = tensor_spec_from_json_dict(_load_json(args.spec))
    if args.seed is not None:
        tspec = dataclasses.replace(tspec, seed=args.seed)
    graph = (cycle_spec_from_json_dict(_load_json(args.cycle)) if args.cycle
             else graph_from_json_dict(_load_json(args.graph)))
    samples = args.samples[0] if len(args.samples) == 1 else args.samples
    report = universality_scan(tspec, graph, args.N_list or [tspec.N], samples)
    head = {"graph": report.graph_id, "distribution": report.distribution,
            "gamma": report.gamma, "predicted": report.predicted}
    rows = _fields(report.rows, ScanRow)
    header = [*head, *(f.name for f in dataclasses.fields(ScanRow))]
    _report(args, {"stream": STREAM, **head, "rows": rows}, header,
            [[*head.values(), *r.values()] for r in rows])
    return 0


def _cmd_verify(args) -> int:
    # "" names no family, which the suite refuses as an empty set
    results = run_verify_suite(max_k=args.max_k, max_D=args.max_D,
                               families=args.families.split(",") if args.families else (),
                               seed=args.seed)
    passed = all(r.passed for r in results)
    checks = _fields(results, CheckResult)
    # the CSV heads CheckResult's first field, its name, "check"
    header = ["check", *(f.name for f in dataclasses.fields(CheckResult)[1:])]
    _report(args, {"stream": STREAM, "passed": passed, "checks": checks},
            header, [list(c.values()) for c in checks])
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="tul",
        description="Exact enumeration and Monte Carlo checks for average "
                    "trace invariants of random rectangular tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="minimal covering graphs of a colored graph")
    p.add_argument("--graph", required=True, help="colored graph JSON file")
    p.add_argument("--faces", action="store_true",
                   help="include every minimal covering with its face profile")
    p.add_argument("--histogram", type=int, metavar="COLOR",
                   help="face-count histogram over minimal coverings for this color "
                        "(two-color cycle graphs only; JSON only, CSV lists the members "
                        "alone)")
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("asym", parents=[common],
                       help="closed-form leading asymptotics for a graph family")
    p.add_argument("--family", choices=("melonic", "cycle"), required=True)
    p.add_argument("--spec", required=True,
                   help="family spec JSON: melonic recipe or cycle spec")
    p.add_argument("--c", help="comma-separated side ratios, e.g. 1,2,0.5 or 3/2,1")
    p.set_defaults(run=_cmd_asym)

    p = sub.add_parser("mc", parents=[common],
                       help="seeded Monte Carlo scan of normalized invariant means")
    p.add_argument("--spec", required=True, help="tensor spec JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", help="colored graph JSON (network contraction route)")
    group.add_argument("--cycle", help="cycle spec JSON (matricized route)")
    p.add_argument("--samples", type=_int_list, default="1000",
                   help="sample count, or one count per N as a comma list")
    p.add_argument("--N-list", dest="N_list", type=_int_list,
                   help="comma-separated tensor sizes N")
    p.add_argument("--seed", type=_seed, help="override the tensor spec's seed")
    p.set_defaults(run=_cmd_mc)

    p = sub.add_parser("verify", parents=[common],
                       help="run the closed-form vs enumeration vs Monte Carlo suite")
    p.add_argument("--max-k", dest="max_k", type=int, default=5)
    p.add_argument("--max-D", dest="max_D", type=int, default=5)
    p.add_argument("--families", default=",".join(FAMILIES),
                   help=f"comma list from {{{','.join(FAMILIES)}}}")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(run=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (CliError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
