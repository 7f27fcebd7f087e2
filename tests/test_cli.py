import contextlib
import csv
import hashlib
import io
import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reference import CoveringGraph, face_profile
from tul.asymptotics import predict
from tul.cli import main
from tul.enumeration import catalan
from tul.families import (CycleSpec, cycle_spec_to_json_dict, make_cycle_graph,
                          melonic_recipe_to_json_dict, MelonicRecipe)
from tul.graphs import ColoredGraph, graph_from_json_dict, graph_to_json_dict
from tul.tensors import STREAM, TensorSpec, gaussian_exact_mean, tensor_spec_from_json_dict


@pytest.fixture
def cycle22_graph(tmp_path):
    spec = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2]))
    path = tmp_path / "c22.json"
    path.write_text(json.dumps(graph_to_json_dict(make_cycle_graph(spec))))
    return str(path)


@pytest.fixture
def tensor_spec_file(tmp_path):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"D": 2, "c": [1, 1], "N": 4,
                                "distribution": "complex_gaussian", "seed": 42}))
    return str(path)


@pytest.fixture
def cycle_spec_file(tmp_path):
    spec = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2]))
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cycle_spec_to_json_dict(spec)))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_enumerate_json(capsys, cycle22_graph):
    code, data = run_json(capsys, ["enumerate", "--graph", cycle22_graph])
    assert code == 0
    assert data["schema"] == 1
    assert data["gamma"] == 3
    assert data["count"] == catalan(2)
    assert "members" not in data


def test_enumerate_faces_and_histogram(capsys, cycle22_graph):
    code, data = run_json(capsys, ["enumerate", "--graph", cycle22_graph,
                                   "--faces", "--histogram", "1"])
    assert code == 0
    assert len(data["members"]) == 2
    for member in data["members"]:
        assert sum(member["zero_faces"]) == member["total"] == 3
        assert sorted(member["tau"]) == [1, 2]
    assert data["histogram"] == {"1": 1, "2": 1}


def test_enumerate_faces_of_a_graph_with_unsorted_colors(capsys, tmp_path):
    # the pass sweeps this graph with its rows sorted, then puts every face
    # vector back in these colors; each member is checked covering by covering
    B = ColoredGraph(k=4, sigma=((1, 2, 3, 0), (0, 1, 2, 3), (2, 3, 0, 1), (0, 1, 2, 3)))
    path = _write(tmp_path, "graph.json", json.dumps(graph_to_json_dict(B)))
    code, data = run_json(capsys, ["enumerate", "--graph", path, "--faces"])
    assert code == 0
    profiles = {tau: face_profile(CoveringGraph(base=B, tau=tau))
                for tau in itertools.permutations(range(4))}
    gamma = max(sum(zero) for zero in profiles.values())
    expected = [{"tau": [j + 1 for j in tau], "zero_faces": list(zero), "total": gamma}
                for tau, zero in profiles.items() if sum(zero) == gamma]
    assert (data["gamma"], data["count"], data["members"]) == (gamma, len(expected), expected)
    assert len({tuple(m["zero_faces"]) for m in data["members"]}) > 1


def test_enumerate_csv(capsys, cycle22_graph):
    code = main(["enumerate", "--graph", cycle22_graph, "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["tau", "f_1", "f_2", "total"]
    assert len(rows) == 3
    assert {r[0] for r in rows[1:]} == {"(1)(2)", "(1 2)"}
    for r in rows[1:]:
        assert int(r[1]) + int(r[2]) == int(r[3]) == 3


# The exact stdout of `tul enumerate`, captured from the command, on the
# README's k=2 graph and on the unsorted-color k=4 graph above; --histogram
# takes two-color cycle graphs only, so on the k=4 graph it exits 2.
README_GRAPH = {"k": 2, "D": 2, "sigma": [[1, 2], [2, 1]]}
UNSORTED_GRAPH = {"k": 4, "D": 4,
                  "sigma": [[2, 3, 4, 1], [1, 2, 3, 4], [3, 4, 1, 2], [1, 2, 3, 4]]}

README_JSON = """\
{
  "schema": 1,
  "gamma": 3,
  "count": 2,
  "members": [
    {
      "tau": [
        1,
        2
      ],
      "zero_faces": [
        2,
        1
      ],
      "total": 3
    },
    {
      "tau": [
        2,
        1
      ],
      "zero_faces": [
        1,
        2
      ],
      "total": 3
    }
  ],
  "histogram": {
    "1": 1,
    "2": 1
  }
}
"""

README_CSV = """\
tau,f_1,f_2,total
(1)(2),2,1,3
(1 2),1,2,3
"""

UNSORTED_JSON = """\
{
  "schema": 1,
  "gamma": 11,
  "count": 3,
  "members": [
    {
      "tau": [
        1,
        2,
        3,
        4
      ],
      "zero_faces": [
        1,
        4,
        2,
        4
      ],
      "total": 11
    },
    {
      "tau": [
        1,
        4,
        3,
        2
      ],
      "zero_faces": [
        2,
        3,
        3,
        3
      ],
      "total": 11
    },
    {
      "tau": [
        3,
        2,
        1,
        4
      ],
      "zero_faces": [
        2,
        3,
        3,
        3
      ],
      "total": 11
    }
  ]
}
"""

UNSORTED_CSV = """\
tau,f_1,f_2,f_3,f_4,total
(1)(2)(3)(4),1,4,2,4,11
(1)(2 4)(3),2,3,3,3,11
(1 3)(2)(4),2,3,3,3,11
"""


@pytest.mark.parametrize("graph, flags, code, out", [
    (README_GRAPH, ["--faces", "--histogram", "1"], 0, README_JSON),
    (README_GRAPH, ["--faces", "--format", "csv"], 0, README_CSV),
    (UNSORTED_GRAPH, ["--faces"], 0, UNSORTED_JSON),
    (UNSORTED_GRAPH, ["--faces", "--histogram", "1"], 2, ""),
    (UNSORTED_GRAPH, ["--faces", "--format", "csv"], 0, UNSORTED_CSV),
], ids=["readme-json", "readme-csv", "unsorted-json", "unsorted-histogram", "unsorted-csv"])
def test_enumerate_stdout_is_pinned(capsys, tmp_path, graph, flags, code, out):
    path = _write(tmp_path, "graph.json", json.dumps(graph))
    assert main(["enumerate", "--graph", path, *flags]) == code
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("sigma, color, message", [
    ([list(range(1, 10)), [*range(2, 10), 1], [9, *range(1, 9)]], "1",
     "error: narayana_face_distribution expects a two-color cycle graph\n"),
    ([list(range(1, 10)), [*range(2, 10), 1]], "3", "error: anchor color must be 1 or 2, got 3\n"),
], ids=["not-a-two-color-cycle", "anchor-color"])
def test_enumerate_histogram_errors_come_before_any_sweep(capsys, tmp_path, sigma, color,
                                                          message, sorts):
    # k=9: a pass would sort the 9! rows by its distinct rows' face columns first;
    # CSV, which prints no histogram, refuses the same input
    path = _write(tmp_path, "graph.json", json.dumps({"k": 9, "D": len(sigma), "sigma": sigma}))
    for fmt in ("json", "csv"):
        assert main(["enumerate", "--graph", path, "--histogram", color, "--format", fmt]) == 2
        assert capsys.readouterr() == ("", message)
    assert sorts == []


# The sha256 of the stdout of `tul verify --seed 0` at its defaults, 23,493
# bytes of JSON, captured from the command.
VERIFY_SHA256 = "7a892981ded2ea0ceeded442650a8162b1c214b47a535e25281a3ca280aa3082"


def test_verify_stdout_is_pinned(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (23_493, VERIFY_SHA256)


# The same for `tul verify --seed 0 --format csv`, 11,357 bytes of CSV.
VERIFY_CSV_SHA256 = "5ef6a18a273c66330f85d178eb7d02ae8b30abedfb22f253c17b25c61d7e83b0"


def test_verify_csv_stdout_is_pinned(capsys):
    assert main(["verify", "--seed", "0", "--format", "csv"]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (11_357, VERIFY_CSV_SHA256)


# The stdout of `tul mc` on the (1,1)-cycle at k=2 and on a D=3 melonic graph
# at k=3, captured from the command.
MC_CYCLE_JSON = """\
{
  "schema": 1,
  "stream": 3,
  "graph": "cycle(k=2, m_colors=[1], n_colors=[2])",
  "distribution": "complex_gaussian",
  "gamma": 3,
  "predicted": 2.0,
  "rows": [
    {
      "N": 2,
      "samples": 100,
      "mean": 15.270702911015752,
      "stderr": 1.6571227215327817,
      "normalized": 1.908837863876969,
      "flagged": false
    },
    {
      "N": 4,
      "samples": 50,
      "mean": 127.71261617287543,
      "stderr": 9.816276996291688,
      "normalized": 1.9955096277011786,
      "flagged": false
    }
  ]
}
"""

MC_CYCLE_CSV = """\
graph,distribution,gamma,predicted,N,samples,mean,stderr,normalized,flagged
"cycle(k=2, m_colors=[1], n_colors=[2])",complex_gaussian,3,2.0,2,100,15.270702911015752,\
1.6571227215327817,1.908837863876969,False
"cycle(k=2, m_colors=[1], n_colors=[2])",complex_gaussian,3,2.0,4,50,127.71261617287543,\
9.816276996291688,1.9955096277011786,False
"""

MC_GRAPH_JSON = """\
{
  "schema": 1,
  "stream": 3,
  "graph": "graph(k=3, D=3)",
  "distribution": "uniform_disc",
  "gamma": 7,
  "predicted": 1.0,
  "rows": [
    {
      "N": 4,
      "samples": 20,
      "mean": 25575.22071193179,
      "stderr": 1448.7372549502334,
      "normalized": 1.560987592280993,
      "flagged": true
    },
    {
      "N": 8,
      "samples": 4,
      "mean": 2735324.7796820444,
      "stderr": 158947.94079627065,
      "normalized": 1.304304494706175,
      "flagged": true
    }
  ]
}
"""

MC_GRAPH_CSV = """\
graph,distribution,gamma,predicted,N,samples,mean,stderr,normalized,flagged
"graph(k=3, D=3)",uniform_disc,7,1.0,4,20,25575.22071193179,1448.7372549502334,\
1.560987592280993,True
"graph(k=3, D=3)",uniform_disc,7,1.0,8,4,2735324.7796820444,158947.94079627065,\
1.304304494706175,True
"""


@pytest.fixture
def melonic_mc_args(tmp_path):
    graph = _write(tmp_path, "graph.json", json.dumps(
        {"k": 3, "D": 3, "sigma": [[2, 1, 3], [3, 2, 1], [1, 2, 3]]}))
    tensor = _write(tmp_path, "tensor3.json", json.dumps(
        {"D": 3, "c": [1, 1, 1], "N": 4, "distribution": "uniform_disc", "seed": 7}))
    return ["--spec", tensor, "--graph", graph, "--N-list", "4,8", "--samples", "20,4"]


@pytest.mark.parametrize("route, fmt, out", [
    ("cycle", "json", MC_CYCLE_JSON), ("cycle", "csv", MC_CYCLE_CSV),
    ("graph", "json", MC_GRAPH_JSON), ("graph", "csv", MC_GRAPH_CSV),
], ids=["cycle-json", "cycle-csv", "graph-json", "graph-csv"])
def test_mc_stdout_is_pinned(capsys, tensor_spec_file, cycle_spec_file, melonic_mc_args,
                             route, fmt, out):
    if route == "cycle":
        args = ["--spec", tensor_spec_file, "--cycle", cycle_spec_file,
                "--N-list", "2,4", "--samples", "100,50"]
    else:
        args = melonic_mc_args
    assert main(["mc", *args, "--format", fmt]) == 0
    assert capsys.readouterr().out == out


def test_mc_json_and_csv_rows_hold_the_same_values(capsys, tensor_spec_file, cycle_spec_file):
    argv = ["mc", "--spec", tensor_spec_file, "--cycle", cycle_spec_file,
            "--N-list", "2,4,8", "--samples", "100,50,20"]
    code, data = run_json(capsys, argv)
    assert code == 0
    assert main([*argv, "--format", "csv"]) == 0
    table = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    head = {key: data[key] for key in ("graph", "distribution", "gamma", "predicted")}
    assert len(table) == len(data["rows"]) == 3
    for csv_row, json_row in zip(table, data["rows"]):
        assert list(csv_row) == [*head, *json_row]
        # JSON reads each float back to the same double, whose str is its CSV text
        assert csv_row == {key: str(value) for key, value in {**head, **json_row}.items()}


def test_enumerate_missing_file(capsys, tmp_path):
    code = main(["enumerate", "--graph", str(tmp_path / "nope.json")])
    assert code == 2


@pytest.mark.parametrize("content, problem", [
    (b"[" * 100_000, "maximum recursion depth"),
    (b'{"k": "\xff"}', "can't decode byte 0xff"),
    (b'{"k": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
], ids=["deep", "not-utf8", "long-int"])
def test_unreadable_json_exits_2_naming_the_file(capsys, tmp_path, content, problem):
    path = tmp_path / "graph.json"
    path.write_bytes(content)
    assert main(["enumerate", "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} cannot be read as JSON: ") and problem in err


def test_enumerate_bad_graph_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 2, "D": 2, "sigma": [[1, 2]]}))
    code = main(["enumerate", "--graph", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "sigma" in err and "'D'" in err


def test_enumerate_cap_env(capsys, monkeypatch, no_column, tmp_path):
    # the bound is fixed: no environment variable raises it
    monkeypatch.setenv("TUL_ENUM_CAP", "20")
    spec = CycleSpec(k=10, m_colors=frozenset([1]), n_colors=frozenset([2]))
    path = tmp_path / "c10.json"
    path.write_text(json.dumps(graph_to_json_dict(make_cycle_graph(spec))))
    code = main(["enumerate", "--graph", str(path)])
    assert code == 2
    assert "cap" in capsys.readouterr().err


@pytest.fixture
def cycle11_k2000_graph(tmp_path):
    spec = CycleSpec(k=2000, m_colors=frozenset([1]), n_colors=frozenset([2]))
    return _write(tmp_path, "c2000.json", json.dumps(graph_to_json_dict(make_cycle_graph(spec))))


def test_enumerate_far_over_the_cap_gives_the_cap(capsys, cycle11_k2000_graph):
    # 2000! has 5,736 digits, more than str of an int may print
    assert main(["enumerate", "--graph", cycle11_k2000_graph]) == 2
    err = capsys.readouterr().err
    assert "k=2000 exceeds the enumeration cap (9): 2000! = 3.316e+5735 pairings" in err


def test_mc_graph_over_the_label_limit_exits_2_before_any_draw(capsys, no_draw, tmp_path,
                                                               cycle11_k2000_graph):
    # refused by its label count, before a path search over 4000 operands
    tensor = _write(tmp_path, "tensor.json", json.dumps({"D": 2, "c": [1, 1], "N": 2,
                                                         "distribution": "complex_gaussian"}))
    t0 = time.perf_counter()
    assert main(["mc", "--spec", tensor, "--graph", cycle11_k2000_graph]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert "network contraction needs 4001 einsum labels" in err and "over the limit 52" in err


@pytest.mark.parametrize("k, size", [(200, "5.644e+479"), (128, "4.443e+306")])
def test_mc_past_the_double_range_exits_2_before_any_draw(capsys, no_draw, tmp_path, k,
                                                          size):
    # the (1,1)-cycle at N=64: N^(k+1) itself overflows a double at k=200;
    # at k=128 the predicted mean fits, but its square does not
    cycle = _write(tmp_path, "cycle.json", json.dumps({"k": k, "m_colors": [1], "n_colors": [2]}))
    tensor = _write(tmp_path, "tensor.json", json.dumps({"D": 2, "c": [1, 1], "N": 64,
                                                         "distribution": "complex_gaussian"}))
    assert main(["mc", "--spec", tensor, "--cycle", cycle, "--samples", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: at N=64 the predicted mean N^{k + 1} * coefficient, or N^{k + 1}, "
                   f"is ~{size}, over 1e146: its square must stay 16 decades inside the double "
                   f"range\n")


def test_mc_draws_past_the_double_range_exit_2(capsys, tmp_path):
    # the (1,2)-cycle at N=1 predicts a mean of 1, but each draw is |t|^600
    # for one complex Gaussian t, so the squares of 100 draws overflow
    cycle = _write(tmp_path, "cycle.json", json.dumps({"k": 300, "m_colors": [1],
                                                       "n_colors": [2, 3]}))
    tensor = _write(tmp_path, "tensor.json", json.dumps({"D": 3, "c": [1, 1, 1], "N": 1,
                                                         "distribution": "complex_gaussian"}))
    assert main(["mc", "--spec", tensor, "--cycle", cycle, "--samples", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: at N=1 the draws left the double range: mean ")
    assert err.endswith(", standard error inf\n") and err.count("\n") == 1


def test_asym_cycle(capsys, tmp_path):
    spec = CycleSpec(k=3, m_colors=frozenset([1]), n_colors=frozenset([2]))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cycle_spec_to_json_dict(spec)))
    code, data = run_json(capsys, ["asym", "--family", "cycle", "--spec", str(path)])
    assert code == 0
    assert data == {"schema": 1, "family": "cycle_11", "gamma": 4,
                    "coefficient": float(catalan(3))}


def test_asym_cycle_with_ratios(capsys, tmp_path):
    spec = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2, 3]))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cycle_spec_to_json_dict(spec)))
    code, data = run_json(capsys, ["asym", "--family", "cycle", "--spec", str(path),
                                   "--c", "2,1,1/2"])
    assert code == 0
    assert data["family"] == "cycle_mn"
    assert data["gamma"] == 5
    # coefficient is c_1 * (c_2 c_3)^k = 2 * (1/2)^2
    assert data["coefficient"] == pytest.approx(0.5)


def test_asym_melonic(capsys, tmp_path):
    recipe = MelonicRecipe(D=3, steps=((1, 1), (2, 1)))
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(melonic_recipe_to_json_dict(recipe)))
    code, data = run_json(capsys, ["asym", "--family", "melonic", "--spec", str(path)])
    assert code == 0
    assert data["family"] == "melonic"
    assert data["gamma"] == 1 + 3 * 2
    assert data["coefficient"] == pytest.approx(1.0)


def test_asym_melonic_past_the_sweep_cap(capsys, tmp_path):
    # k=12 with three cuts of color 1: the coefficient is 2^9 at c=(2,1,1),
    # from the recipe alone, although no sweep accepts k > 9
    recipe = MelonicRecipe(D=3, steps=((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2),
                                       (1, 3), (2, 3), (3, 3), (2, 4), (3, 4)))
    path = _write(tmp_path, "recipe.json", json.dumps(melonic_recipe_to_json_dict(recipe)))
    code, data = run_json(capsys, ["asym", "--family", "melonic", "--spec", path,
                                   "--c", "2,1,1"])
    assert code == 0
    assert (data["gamma"], data["coefficient"]) == (1 + 12 * 2, 512.0)


def test_asym_bad_ratio(capsys, tmp_path):
    spec = CycleSpec(k=1, m_colors=frozenset([1]), n_colors=frozenset([2]))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cycle_spec_to_json_dict(spec)))
    code = main(["asym", "--family", "cycle", "--spec", str(path), "--c", "1,zap"])
    assert code == 2
    assert "'c[2]'" in capsys.readouterr().err


def test_asym_empty_ratios_are_refused(capsys, tmp_path):
    # "" is one empty ratio, not a missing --c: it is never read as all ones
    spec = _write(tmp_path, "spec.json", json.dumps({"k": 3, "m_colors": [1], "n_colors": [2]}))
    assert main(["asym", "--family", "cycle", "--spec", spec, "--c", ""]) == 2
    assert capsys.readouterr() == ("", "error: expected 2 side ratios, got 1\n")


@pytest.mark.parametrize("family, spec, ratios, out", [
    ("cycle", {"k": 2, "m_colors": [1], "n_colors": [2, 3]}, "2,1,1/2",
     "family,gamma,coefficient\ncycle_mn,5,0.5\n"),
    ("melonic", {"D": 3, "steps": [[1, 1], [2, 1], [3, 1], [1, 2], [2, 2], [3, 2], [1, 3],
                                   [2, 3], [3, 3], [2, 4], [3, 4]]}, "2,1,1",
     "family,gamma,coefficient\nmelonic,25,512.0\n"),
], ids=["cycle", "melonic"])
def test_asym_csv_stdout_is_pinned(capsys, tmp_path, family, spec, ratios, out):
    path = _write(tmp_path, "spec.json", json.dumps(spec))
    assert main(["asym", "--family", family, "--spec", path, "--c", ratios,
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == out


def test_asym_csv(capsys, tmp_path):
    spec = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2]))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cycle_spec_to_json_dict(spec)))
    code = main(["asym", "--family", "cycle", "--spec", str(path), "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["family", "gamma", "coefficient"]
    assert rows[1] == ["cycle_11", "3", "2.0"]


def test_mc_json(capsys, tensor_spec_file, cycle_spec_file):
    code, data = run_json(capsys, ["mc", "--spec", tensor_spec_file,
                                   "--cycle", cycle_spec_file,
                                   "--samples", "200", "--N-list", "4,8"])
    assert code == 0
    assert data["schema"] == 1
    assert data["stream"] == STREAM == 3
    assert data["graph"].startswith("cycle(k=2")
    assert data["distribution"] == "complex_gaussian"
    assert data["gamma"] == 3
    assert data["predicted"] == pytest.approx(2.0)
    assert [r["N"] for r in data["rows"]] == [4, 8]
    assert all(r["samples"] == 200 for r in data["rows"])
    for r in data["rows"]:
        assert r["normalized"] == pytest.approx(r["mean"] / r["N"] ** 3)


def test_mc_deterministic(capsys, tensor_spec_file, cycle_spec_file):
    argv = ["mc", "--spec", tensor_spec_file, "--cycle", cycle_spec_file,
            "--samples", "100"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_mc_seed_override_changes_output(capsys, tensor_spec_file, cycle_spec_file):
    base = ["mc", "--spec", tensor_spec_file, "--cycle", cycle_spec_file,
            "--samples", "100"]
    main(base)
    first = capsys.readouterr().out
    main(base + ["--seed", "999"])
    assert capsys.readouterr().out != first


def test_mc_per_N_samples_and_csv(capsys, tensor_spec_file, cycle_spec_file):
    code = main(["mc", "--spec", tensor_spec_file, "--cycle", cycle_spec_file,
                 "--samples", "100,50", "--N-list", "2,4", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0][:6] == ["graph", "distribution", "gamma", "predicted", "N", "samples"]
    assert [(r[4], r[5]) for r in rows[1:]] == [("2", "100"), ("4", "50")]


def test_mc_graph_route(capsys, tensor_spec_file, cycle22_graph):
    code, data = run_json(capsys, ["mc", "--spec", tensor_spec_file,
                                   "--graph", cycle22_graph, "--samples", "50"])
    assert code == 0
    assert data["graph"] == "graph(k=2, D=2)"
    assert data["gamma"] == 3


def test_mc_graph_route_with_a_complex_invariant(capsys, tmp_path):
    # this graph is not isomorphic to its white/black mirror, so each draw's
    # invariant is complex (2941.07 + 126.93j on one tensor); its mean is the
    # Wick integer 1152, and the mean of the real part is checked against it.
    # About 1.2 s: three seeds of 2000 samples.
    spec = {"k": 3, "D": 4, "sigma": [[2, 3, 1], [1, 2, 3], [1, 3, 2], [3, 2, 1]]}
    exact = gaussian_exact_mean(graph_from_json_dict(spec), (1, 1, 1, 1), 2)
    assert exact == 1152
    graph = _write(tmp_path, "graph.json", json.dumps(spec))
    tensor = _write(tmp_path, "tensor.json", json.dumps(
        {"D": 4, "c": [1, 1, 1, 1], "N": 2, "distribution": "complex_gaussian", "seed": 1}))
    for seed in (1, 2, 3):
        code, data = run_json(capsys, ["mc", "--spec", tensor, "--graph", graph,
                                       "--N-list", "2", "--samples", "2000",
                                       "--seed", str(seed)])
        assert code == 0
        row = data["rows"][0]
        assert abs(row["mean"] - exact) < 4 * row["stderr"], (seed, row)


def test_mc_graph_and_cycle_conflict(tensor_spec_file, cycle_spec_file, cycle22_graph):
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--spec", tensor_spec_file, "--graph", cycle22_graph,
              "--cycle", cycle_spec_file])
    assert exc.value.code == 2


def test_mc_bad_tensor_spec(capsys, tmp_path, cycle_spec_file):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"D": 2, "c": [1, 1], "distribution": "complex_gaussian"}))
    code = main(["mc", "--spec", str(path), "--cycle", cycle_spec_file])
    assert code == 2
    assert "'N'" in capsys.readouterr().err


def test_mc_sample_length_mismatch(capsys, tensor_spec_file, cycle_spec_file):
    code = main(["mc", "--spec", tensor_spec_file, "--cycle", cycle_spec_file,
                 "--samples", "100,50,25", "--N-list", "2,4"])
    assert code == 2
    assert "sample counts" in capsys.readouterr().err


def test_verify_passes(capsys):
    code, data = run_json(capsys, ["verify", "--max-k", "2", "--max-D", "3",
                                   "--families", "cycle_11,cycle_mn"])
    assert code == 0
    assert data["stream"] == STREAM == 3
    assert data["passed"] is True
    assert all(chk["passed"] for chk in data["checks"])
    names = [chk["name"] for chk in data["checks"]]
    assert any("cycle_11" in n for n in names)


def test_verify_bad_family(capsys):
    code = main(["verify", "--families", "hexagonal"])
    assert code == 2
    assert "families" in capsys.readouterr().err


@pytest.mark.parametrize("families, message", [
    ("", "families must not be empty"),
    (",", "unknown families: ['']"),
], ids=["empty", "comma"])
def test_verify_empty_family_names_are_refused(capsys, no_column, families, message):
    # "" is the empty family set, not the flag's default of every family
    code = main(["verify", "--families", families, "--max-k", "1", "--max-D", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_verify_max_D_past_the_split_bound_is_refused(capsys, no_column):
    # D=40 has about 2^40 color splits, so the run is refused before any
    # check and counted without listing a split
    start = time.perf_counter()
    code = main(["verify", "--max-D", "40", "--max-k", "1"])
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: max_D=40 and max_k=1 give the cycle families more than 65536 "
                   "color splits to check\n")


def test_verify_k_over_cap(capsys, no_column):
    code = main(["verify", "--max-k", "10", "--families", "cycle_11"])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_out_file(tmp_path, capsys, cycle22_graph):
    out = tmp_path / "result.json"
    code = main(["enumerate", "--graph", cycle22_graph, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    data = json.loads(out.read_text())
    assert data["gamma"] == 3


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_mc_non_finite_ratio_exits_2(capsys, tmp_path, cycle_spec_file):
    for bad in ("Infinity", "-Infinity", "NaN"):
        spec = _write(tmp_path, "tensor.json", '{"D": 2, "c": [%s, 1], "N": 4, '
                      '"distribution": "complex_gaussian"}' % bad)
        code = main(["mc", "--spec", spec, "--cycle", cycle_spec_file])
        assert code == 2
        assert "'c[1]'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["--cycle", "--graph"])
def test_mc_color_count_mismatch_names_the_graph(capsys, tmp_path, cycle_spec_file,
                                                  cycle22_graph, kind):
    # a D=4 tensor with a D=2 graph: the colors are at fault, not the ratios
    spec = _write(tmp_path, "tensor.json", json.dumps(
        {"D": 4, "c": [1, 1, 1, 1], "N": 2, "distribution": "complex_gaussian"}))
    graph = cycle_spec_file if kind == "--cycle" else cycle22_graph
    assert main(["mc", "--spec", spec, kind, graph]) == 2
    assert capsys.readouterr().err == "error: tensor has 4 axes, graph has D=2 colors\n"


@pytest.mark.parametrize("x", [1e-10, 0.3333333333])
def test_mc_json_float_ratio_is_its_decimal_text(capsys, tmp_path, cycle_spec_file, x):
    # read as --c reads the same text: neither 0 nor 1/3, so c_1 N is not an integer
    spec = _write(tmp_path, "tensor.json", json.dumps({"D": 2, "c": [x, 1], "N": 3,
                                                       "distribution": "complex_gaussian"}))
    assert main(["mc", "--spec", spec, "--cycle", cycle_spec_file]) == 2
    assert f"c[1]*N = {Fraction(repr(x))}*3 is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("D", True), ("N", True), ("seed", False),
                                          ("c", [True, 1])])
def test_mc_tensor_spec_rejects_booleans(capsys, tmp_path, cycle_spec_file, field, value):
    data = {"D": 2, "c": [1, 1], "N": 4, "distribution": "complex_gaussian", "seed": 1}
    data[field] = value
    spec = _write(tmp_path, "tensor.json", json.dumps(data))
    code = main(["mc", "--spec", spec, "--cycle", cycle_spec_file])
    assert code == 2
    assert f"'{field}" in capsys.readouterr().err


@pytest.mark.parametrize("data, field", [
    ({"k": True, "D": 1, "sigma": [[1]]}, "'k'"),
    ({"k": 1, "D": True, "sigma": [[1]]}, "'D'"),
    ({"k": 1, "D": 1, "sigma": [[True]]}, "sigma[1]"),
])
def test_enumerate_graph_rejects_booleans(capsys, tmp_path, data, field):
    code = main(["enumerate", "--graph", _write(tmp_path, "g.json", json.dumps(data))])
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("data, field", [
    ({"k": True, "m_colors": [1], "n_colors": [2]}, "'k'"),
    ({"k": 2, "m_colors": [True], "n_colors": [2]}, "'m_colors'"),
    ({"k": 2, "m_colors": [1], "n_colors": [2, False]}, "'n_colors'"),
])
def test_asym_cycle_spec_rejects_booleans(capsys, tmp_path, data, field):
    spec = _write(tmp_path, "cycle.json", json.dumps(data))
    code = main(["asym", "--family", "cycle", "--spec", spec])
    assert code == 2
    assert field in capsys.readouterr().err


def test_asym_cycle_spec_refuses_a_repeated_color(capsys, tmp_path):
    # the JSON reader hands the lists to CycleSpec, which refuses the repeat
    # before it collapses them into the (1,1)-cycle's color sets
    spec = _write(tmp_path, "cycle.json",
                  json.dumps({"k": 3, "m_colors": [1, 1], "n_colors": [2, 2, 2]}))
    assert main(["asym", "--family", "cycle", "--spec", spec]) == 2
    assert capsys.readouterr() == ("", "error: m_colors repeats color 1\n")


@pytest.mark.parametrize("data, field", [
    ({"D": True, "steps": []}, "'D'"),
    ({"D": 3, "steps": [[True, 1]]}, "'steps'"),
])
def test_asym_melonic_recipe_rejects_booleans(capsys, tmp_path, data, field):
    spec = _write(tmp_path, "recipe.json", json.dumps(data))
    code = main(["asym", "--family", "melonic", "--spec", spec])
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["-3", "0"])
def test_threads_below_one_exits_2(capsys, tensor_spec_file, cycle_spec_file, threads):
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--spec", tensor_spec_file, "--cycle", cycle_spec_file,
              "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("ratios, value", [("1e-200,1e-200", "0.0"),
                                           ("1e200,1e200", "inf")])
def test_asym_float_range_is_not_a_ratio_error(capsys, tmp_path, ratios, value):
    # each ratio fits a float, but the coefficient 5 c^4 does not
    spec = _write(tmp_path, "cycle.json", json.dumps({"k": 3, "m_colors": [1],
                                                      "n_colors": [2]}))
    code = main(["asym", "--family", "cycle", "--spec", spec, "--c", ratios])
    assert code == 2
    size, lost = {"0.0": ("5.000e-800", "underflows"), "inf": ("5.000e+800", "overflows")}[value]
    assert capsys.readouterr().err == (f"error: the cycle_11 coefficient ~{size} "
                                       f"{lost} a float to {value}\n")


def test_huge_decimal_exponent_exits_2_at_once(capsys, tmp_path, cycle_spec_file):
    # Fraction("1e99999999") would build a 10^99999999 first
    spec = _write(tmp_path, "cycle.json", json.dumps({"k": 1, "m_colors": [1],
                                                      "n_colors": [2]}))
    tensor = _write(tmp_path, "tensor.json", json.dumps(
        {"D": 2, "c": [1, "1e-99999999"], "N": 4, "distribution": "complex_gaussian"}))
    start = time.perf_counter()
    assert main(["asym", "--family", "cycle", "--spec", spec, "--c", "1e99999999,1"]) == 2
    assert "side ratio 'c[1]' has a decimal exponent outside" in capsys.readouterr().err
    assert main(["mc", "--spec", tensor, "--cycle", cycle_spec_file]) == 2
    assert "side ratio 'c[2]' has a decimal exponent outside" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_asym_far_out_of_range_coefficient_exits_2_at_once(capsys, tmp_path):
    # the exact sum would multiply 400,000-digit integers for minutes; the
    # float estimate of its log10 refuses it first, in the usual words
    spec = _write(tmp_path, "cycle.json", json.dumps({"k": 2000, "m_colors": [1],
                                                      "n_colors": [2]}))
    start = time.perf_counter()
    assert main(["asym", "--family", "cycle", "--spec", spec, "--c", "1e200,1e200"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == ("error: the cycle_11 coefficient ~8.310e+401398 "
                                       "overflows a float to inf\n")


def test_asym_ratio_outside_float_range(capsys, tmp_path):
    spec = _write(tmp_path, "cycle.json", json.dumps({"k": 1, "m_colors": [1],
                                                      "n_colors": [2]}))
    # 1e310 lies inside the range whose exact sum is built, and its float
    # conversion overflows
    for ratios, lost in (("1e-400,1", "~1.000e-400 underflows"),
                         ("1,1e400", "~1.000e+400 overflows"),
                         ("1,1e310", "~1.000e+310 overflows")):
        assert main(["asym", "--family", "cycle", "--spec", spec, "--c", ratios]) == 2
        assert f"the cycle_11 coefficient {lost} a float" in capsys.readouterr().err


def test_asym_ratio_outside_float_range_is_short(capsys, tmp_path):
    # the exact ratio 1e-400 has a 401-digit denominator; only the
    # coefficient's size is printed
    spec = _write(tmp_path, "cycle.json", json.dumps({"k": 2, "m_colors": [1],
                                                      "n_colors": [2, 3]}))
    assert main(["asym", "--family", "cycle", "--spec", spec, "--c", "1e-400,1,1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: the cycle_mn coefficient ~1.000e-400 underflows a float to 0.0\n"
    assert main(["asym", "--family", "cycle", "--spec", spec, "--c", "1,1,3e-401"]) == 2
    err = capsys.readouterr().err
    assert "the cycle_mn coefficient ~9.000e-802 underflows" in err and len(err) < 80


@pytest.mark.parametrize("k, ratios, coefficient", [(3, "1.1,1.1", 7.3205),
                                                    (1, "1e-400,1e400", 1.0)])
def test_asym_coefficient_is_exact_then_rounded(capsys, tmp_path, k, ratios, coefficient):
    # 5 * 1.1^4 = 7.3205 exactly; 1e-400 * 1e400 = 1, though neither ratio
    # is a float
    spec = _write(tmp_path, "cycle.json", json.dumps({"k": k, "m_colors": [1],
                                                      "n_colors": [2]}))
    assert main(["asym", "--family", "cycle", "--spec", spec, "--c", ratios]) == 0
    assert f'"coefficient": {coefficient!r}\n' in capsys.readouterr().out


def test_mc_oversized_tensor_exits_2_before_any_draw(capsys, no_draw, tmp_path):
    cycle = _write(tmp_path, "cycle.json", json.dumps({"k": 1, "m_colors": [1],
                                                       "n_colors": [2]}))
    spec = _write(tmp_path, "tensor.json", json.dumps({"D": 2, "c": [1, 1], "N": 4,
                                                       "distribution": "complex_gaussian"}))
    code = main(["mc", "--spec", spec, "--cycle", cycle, "--N-list", "4,100000",
                 "--samples", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "N=100000" in err and "limit" in err


def test_mc_sample_count_below_two_exits_2_before_any_draw(capsys, no_draw, tmp_path):
    cycle = _write(tmp_path, "cycle.json", json.dumps({"k": 1, "m_colors": [1],
                                                       "n_colors": [2]}))
    spec = _write(tmp_path, "tensor.json", json.dumps({"D": 2, "c": [1, 1], "N": 4,
                                                       "distribution": "complex_gaussian"}))
    code = main(["mc", "--spec", spec, "--cycle", cycle, "--N-list", "4,8",
                 "--samples", "3000,1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "at least 2 samples" in err and "N=8" in err


@pytest.mark.parametrize("argv, flag", [
    (["mc", "--samples", "abc"], "--samples"),
    (["mc", "--N-list", "4,x"], "--N-list"),
    (["mc", "--seed", "-1"], "--seed"),
    (["verify", "--seed", "-5"], "--seed"),
    (["verify", "--seed", "x"], "--seed"),
])
def test_flag_parse_errors_name_the_flag(capsys, tensor_spec_file, cycle_spec_file,
                                         argv, flag):
    if argv[0] == "mc":
        argv = argv + ["--spec", tensor_spec_file, "--cycle", cycle_spec_file]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_unwritable_out_exits_2(capsys, tmp_path, cycle_spec_file):
    out = tmp_path / "missing" / "x.json"
    code = main(["asym", "--family", "cycle", "--spec", cycle_spec_file, "--out", str(out)])
    assert code == 2
    assert f"cannot write {out}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mc", "--threads", "2"],
    ["asym", "--threads", "2"],
    ["enumerate", "--seed", "1"],
    ["asym", "--seed", "1"],
])
def test_removed_flags_exit_2(capsys, tensor_spec_file, cycle_spec_file, cycle22_graph, argv):
    inputs = {"mc": ["--spec", tensor_spec_file, "--cycle", cycle_spec_file],
              "asym": ["--family", "cycle", "--spec", cycle_spec_file],
              "enumerate": ["--graph", cycle22_graph]}
    with pytest.raises(SystemExit) as exc:
        main(argv + inputs[argv[0]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_mc_network_budget_exits_2_before_any_draw(capsys, no_draw, tmp_path):
    # K_{3,3} with one color per perfect matching: every pairwise step at
    # N=128 holds 128^4 = 2^28 entries, so the whole scan is refused
    graph = _write(tmp_path, "graph.json", json.dumps(
        {"k": 3, "D": 3, "sigma": [[1, 2, 3], [2, 3, 1], [3, 1, 2]]}))
    tensor = _write(tmp_path, "tensor.json", json.dumps({"D": 3, "c": [1, 1, 1], "N": 2,
                                                         "distribution": "complex_gaussian"}))
    code = main(["mc", "--spec", tensor, "--graph", graph, "--N-list", "2,128",
                 "--samples", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "128x128x128 tensor needs a contraction step of 9.223e+18 entries" in err
    assert "Traceback" not in err


def test_mc_graph_runs_past_the_naive_budget(capsys, tmp_path):
    # the (1,2)-cycle at k=4 and N=16 needs 2.815e+14 naive terms per sample
    spec = CycleSpec(k=4, m_colors=frozenset([1]), n_colors=frozenset([2, 3]))
    graph = _write(tmp_path, "graph.json",
                   json.dumps(graph_to_json_dict(make_cycle_graph(spec))))
    cycle = _write(tmp_path, "cycle.json", json.dumps(cycle_spec_to_json_dict(spec)))
    tensor = _write(tmp_path, "tensor.json", json.dumps({"D": 3, "c": [1, 1, 1], "N": 2,
                                                         "distribution": "complex_gaussian"}))
    rows = {}
    for flag, path in (("--graph", graph), ("--cycle", cycle)):
        code, data = run_json(capsys, ["mc", "--spec", tensor, flag, path, "--N-list", "2,16",
                                       "--samples", "5"])
        assert code == 0
        rows[flag] = data["rows"]
    assert [r["N"] for r in rows["--graph"]] == [2, 16]
    for a, b in zip(rows["--graph"], rows["--cycle"]):
        assert a["mean"] == pytest.approx(b["mean"], rel=1e-9)
        assert a["flagged"] == b["flagged"]


@pytest.fixture(scope="module")
def cycle11_k3_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("ratios") / "cycle.json"
    path.write_text(json.dumps({"k": 3, "m_colors": [1], "n_colors": [2]}))
    return str(path)


@settings(max_examples=50)
@given(st.integers(1, 1000), st.integers(1, 1000))
def test_property_ratio_readers_agree(cycle11_k3_spec, p, q):
    # one ratio p/q as a --c token, a JSON string and a library Fraction
    token, exact = f"{p}/{q}", Fraction(p, q)
    fields = {"D": 2, "N": exact.denominator, "distribution": "complex_gaussian", "seed": 0}
    library = TensorSpec(c=(exact, 1), **fields)
    assert tensor_spec_from_json_dict({"c": [token, 1], **fields}).c == library.c
    assert TensorSpec(c=(token, "1"), **fields).c == library.c == (exact, 1)
    spec = CycleSpec(k=3, m_colors=frozenset([1]), n_colors=frozenset([2]))
    prediction = predict(spec, (exact, 1))
    assert predict(spec, (token, "1")) == prediction
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["asym", "--family", "cycle", "--spec", cycle11_k3_spec,
                     "--c", f"{token},1"])
    assert code == 0
    assert json.loads(out.getvalue())["coefficient"] == prediction.coefficient
