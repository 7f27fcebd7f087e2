import json
import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from tul.families import (CycleSpec, MelonicRecipe, cycle_spec_from_json_dict, make_cycle_graph,
                          make_melonic, melonic_recipe_from_json_dict)
from reference import CoveringGraph, face_profile, genus
from tul.graphs import (MAX_DECIMAL_EXPONENT, ColoredGraph, e_notation, graph_from_json_dict,
                        graph_to_json_dict, is_connected, side_ratios)
from tul.tensors import tensor_spec_from_json_dict


def two_color_cycle(k):
    return make_cycle_graph(CycleSpec(k=k, m_colors=frozenset([1]), n_colors=frozenset([2])))


def test_colored_graph_validation():
    with pytest.raises(ValueError):
        ColoredGraph(k=0, sigma=())
    with pytest.raises(ValueError):
        ColoredGraph(k=2, sigma=((0, 0),))
    with pytest.raises(ValueError):
        ColoredGraph(k=2, sigma=())
    with pytest.raises(ValueError):
        ColoredGraph(k=2, sigma=((0, 1), (0,)))
    B = ColoredGraph(k=2, sigma=((0, 1), (1, 0)))
    assert B.D == 2


def test_covering_graph_validation():
    B = two_color_cycle(2)
    CoveringGraph(base=B, tau=(1, 0))
    with pytest.raises(ValueError):
        CoveringGraph(base=B, tau=(0, 0))
    with pytest.raises(ValueError):
        CoveringGraph(base=B, tau=(0,))


def test_dipole_face_profile():
    B = make_melonic(MelonicRecipe(D=3))
    profile = face_profile(CoveringGraph(base=B, tau=(0,)))
    assert profile == (1, 1, 1)
    assert sum(profile) == 3


def test_face_totals_two_color_cycle_k3():
    # over all 6 pairings the face totals are five 4s and one 2
    B = two_color_cycle(3)
    totals = sorted(sum(face_profile(CoveringGraph(base=B, tau=tau)))
                    for tau in permutations(range(3)))
    assert totals == [2, 4, 4, 4, 4, 4]


def test_is_connected():
    assert is_connected(make_melonic(MelonicRecipe(D=4)))
    assert is_connected(two_color_cycle(3))
    # identity on both colors with k=2: two disjoint white/black pairs
    B = ColoredGraph(k=2, sigma=((0, 1), (0, 1)))
    assert not is_connected(B)


def test_genus_values():
    B = two_color_cycle(3)
    assert genus(CoveringGraph(base=B, tau=(0, 1, 2))) == 0
    assert genus(CoveringGraph(base=B, tau=(2, 0, 1))) == 1


def test_genus_integer_nonnegative():
    B = two_color_cycle(4)
    for tau in permutations(range(4)):
        g = genus(CoveringGraph(base=B, tau=tau))
        assert isinstance(g, Fraction)
        assert g.denominator == 1
        assert g >= 0


def test_genus_requires_two_colors():
    B = make_melonic(MelonicRecipe(D=3))
    with pytest.raises(ValueError):
        genus(CoveringGraph(base=B, tau=(0,)))


def test_json_round_trip():
    B = two_color_cycle(3)
    data = graph_to_json_dict(B)
    assert data["k"] == 3
    assert data["D"] == 2
    assert data["sigma"][0] == [1, 2, 3]  # one-based images
    assert graph_from_json_dict(data) == B


def test_json_diagnostics_name_fields():
    with pytest.raises(ValueError, match="'k'"):
        graph_from_json_dict({"D": 2, "sigma": [[1]]})
    with pytest.raises(ValueError, match="'sigma'"):
        graph_from_json_dict({"k": 1, "D": 2})
    with pytest.raises(ValueError, match="sigma\\[2\\]"):
        graph_from_json_dict({"k": 2, "D": 2, "sigma": [[1, 2], [1, 1]]})
    with pytest.raises(ValueError, match="'D'"):
        graph_from_json_dict({"k": 1, "D": 3, "sigma": [[1]]})
    with pytest.raises(ValueError):
        graph_from_json_dict([1, 2, 3])
    with pytest.raises(ValueError, match="field 'sigma' must be a list of rows"):
        graph_from_json_dict({"k": 2, "D": 2, "sigma": "ab"})


def test_e_notation_carries_a_mantissa_rounded_up_to_ten():
    # 10^0.99999999 rounds to 10.000 at three decimals, which is 1.000 of
    # the next power, as f"{x:.3e}" writes it
    assert e_notation(3.99999999) == "1.000e+04"
    assert e_notation(math.log10(9999.9)) == f"{9999.9:.3e}" == "1.000e+04"
    assert e_notation(math.log10(2.5e-7)) == f"{2.5e-7:.3e}" == "2.500e-07"


# the name of each JSON input in messages, mapped to its reader, a valid
# input, its integer fields with the noun they must be, and its integer lists
# with their message
JSON_READERS = {
    "graph": (graph_from_json_dict, {"k": 2, "D": 2, "sigma": [[1, 2], [2, 1]]},
              {"k": "a positive integer", "D": "a positive integer"}, {}),
    "cycle spec": (cycle_spec_from_json_dict, {"k": 2, "m_colors": [1], "n_colors": [2]},
                   {"k": "an integer"},
                   {"m_colors": "field 'm_colors' must be a list of integers",
                    "n_colors": "field 'n_colors' must be a list of integers"}),
    "melonic recipe": (melonic_recipe_from_json_dict, {"D": 3, "steps": [[1, 1]]},
                       {"D": "an integer"},
                       {"steps": "field 'steps' must be a list of [color, white_vertex] pairs"}),
    "tensor spec": (tensor_spec_from_json_dict,
                    {"D": 2, "c": [1, 1], "N": 4, "distribution": "complex_gaussian", "seed": 3},
                    {"D": "an integer", "N": "an integer", "seed": "an integer"}, {}),
}


def _json_refusals():
    for what, (reader, valid, ints, int_lists) in JSON_READERS.items():
        for value in ([valid], None, "{}", 3):
            yield reader, value, f"{what} JSON must be an object"
        for key in valid:
            if key != "seed":  # a tensor spec's seed defaults to 0
                data = {k: v for k, v in valid.items() if k != key}
                yield reader, data, f"{what} JSON is missing field '{key}'"
        for key, noun in ints.items():
            for junk in (True, False, 2.0, "2"):
                yield reader, {**valid, key: junk}, f"field '{key}' must be {noun}, got {junk!r}"
        for key, message in int_lists.items():
            for junk in (True, 1.0, "1"):
                value = [[junk, 1]] if key == "steps" else [junk]
                yield reader, {**valid, key: value}, message
    # with two faults the first in each reader's order is reported: a color
    # list before k, c and distribution before seed, D before N, k before D,
    # D before steps, and a missing field before a bad one
    yield (cycle_spec_from_json_dict, {"k": True, "m_colors": "x", "n_colors": [2]},
           "field 'm_colors' must be a list of integers")
    yield (cycle_spec_from_json_dict, {"k": 1.5, "m_colors": [1], "n_colors": [True]},
           "field 'n_colors' must be a list of integers")
    yield (tensor_spec_from_json_dict, {"D": 2, "c": "x", "N": 4,
                                        "distribution": "complex_gaussian", "seed": True},
           "field 'c' must be a list of ratios")
    yield (tensor_spec_from_json_dict, {"D": 2, "c": [1, 1], "N": 4, "distribution": 5,
                                        "seed": True},
           "field 'distribution' must be a string, got 5")
    yield (tensor_spec_from_json_dict, {"D": True, "N": "4", "c": [1, 1], "distribution": 5},
           "field 'D' must be an integer, got True")
    yield (graph_from_json_dict, {"k": 0, "D": False, "sigma": "x"},
           "field 'k' must be a positive integer, got 0")
    yield (melonic_recipe_from_json_dict, {"D": "3", "steps": "x"},
           "field 'D' must be an integer, got '3'")
    yield graph_from_json_dict, {"sigma": [], "D": True}, "graph JSON is missing field 'k'"


@pytest.mark.parametrize("reader, data, message", list(_json_refusals()))
def test_json_readers_refuse_with_exact_messages(reader, data, message):
    with pytest.raises(ValueError) as exc:
        reader(data)
    assert str(exc.value) == message


def test_face_profile_total_consistency():
    B = two_color_cycle(4)
    for tau in permutations(range(4)):
        profile = face_profile(CoveringGraph(base=B, tau=tau))
        assert len(profile) == B.D
        assert all(f >= 1 for f in profile)


def test_side_ratios_bound_the_decimal_exponent():
    assert MAX_DECIMAL_EXPONENT == 4300
    assert side_ratios(["1e-4300", "2E+0004300", " 1e01 "], 3) == (
        Fraction(1, 10 ** 4300), 2 * 10 ** 4300, 10)
    for text in ("1e4301", "1e-4301", "3.5e99999999", "1e1_0000"):
        with pytest.raises(ValueError, match=r"'c\[2\]' has a decimal exponent outside "
                                             r"-4300\.\.4300"):
            side_ratios([1, text], 2)


@pytest.mark.parametrize("ratio, message", [
    (-0.0, "must be a positive finite number or 'p/q' ratio, got -0.0"),
    (math.nan, "must be a positive finite number or 'p/q' ratio, got nan"),
    (math.inf, "must be a positive finite number or 'p/q' ratio, got inf"),
    (True, "must be a positive finite number or 'p/q' ratio, got True"),
    ("1e9999", "has a decimal exponent outside -4300..4300"),
], ids=["negative-zero", "nan", "inf", "true", "exponent-9999"])
def test_side_ratio_refusals_keep_their_messages(ratio, message):
    # only text is read for its decimal exponent, and a sign is read off the
    # numerator; the refusals of every other entry keep their words
    with pytest.raises(ValueError) as exc:
        side_ratios([1, ratio], 2)
    assert str(exc.value) == f"side ratio 'c[2]' {message}"


@st.composite
def colored_graphs(draw):
    """A graph of 1-4 colors on 1-6 white vertices, connected or not."""
    k = draw(st.integers(1, 6))
    rows = draw(st.lists(st.permutations(range(k)), min_size=1, max_size=4))
    return ColoredGraph(k=k, sigma=tuple(tuple(row) for row in rows))


@settings(max_examples=100)
@given(colored_graphs())
def test_property_graph_json_round_trip(B):
    assert graph_from_json_dict(json.loads(json.dumps(graph_to_json_dict(B)))) == B
