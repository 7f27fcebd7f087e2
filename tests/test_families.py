import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import is_melonic, json_dict
from tul.enumeration import minimal_coverings
from tul.families import (CycleSpec, MelonicRecipe, cycle_spec_from_json_dict, make_cycle_graph,
                          make_melonic, melonic_recipe_from_json_dict, random_melonic_recipe)
from tul.graphs import ColoredGraph, is_connected
from tul.permutations import identity


def test_make_dipole():
    # the D-dipole is the melonic recipe with no cuts
    B = make_melonic(MelonicRecipe(D=4))
    assert B.k == 1
    assert B.D == 4
    assert all(s == (0,) for s in B.sigma)
    with pytest.raises(ValueError, match="D must be positive"):
        MelonicRecipe(D=0)


def test_melonic_recipe_validation():
    MelonicRecipe(D=3, steps=())
    MelonicRecipe(D=3, steps=((2, 1), (3, 2)))
    with pytest.raises(ValueError, match="D >= 3"):
        MelonicRecipe(D=2, steps=((1, 1),))
    with pytest.raises(ValueError, match="color"):
        MelonicRecipe(D=3, steps=((4, 1),))
    with pytest.raises(ValueError, match="vertex"):
        MelonicRecipe(D=3, steps=((1, 2),))  # only one white exists at step 1
    assert MelonicRecipe(D=3, steps=((1, 1), (2, 2))).k == 3


def test_melonic_recipe_steps_must_be_integers():
    # a float color or vertex is refused, never truncated; numpy integers are read
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        MelonicRecipe(D=3, steps=((1.7, 1),))
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        MelonicRecipe(D=3, steps=((1, 1.0),))
    recipe = MelonicRecipe(D=3, steps=((np.int64(2), np.int8(1)),))
    assert recipe == MelonicRecipe(D=3, steps=((2, 1),))
    assert all(type(x) is int for x in recipe.steps[0])


def test_make_melonic_single_insertion():
    # cutting the color-1 edge of the dipole reroutes it through the new pair
    B = make_melonic(MelonicRecipe(D=3, steps=((1, 1),)))
    assert B.k == 2
    assert B.sigma == ((1, 0), (0, 1), (0, 1))
    assert is_connected(B)


def test_make_melonic_dipole_for_empty_recipe():
    # two vertices joined by all D colors
    for D in range(1, 7):
        assert make_melonic(MelonicRecipe(D=D, steps=())) == ColoredGraph(k=1, sigma=((0,),) * D)


def test_melonic_graphs_are_melonic():
    rng = np.random.default_rng(17)
    for D in (3, 4, 5):
        for k in range(1, 6):
            recipe = random_melonic_recipe(rng, D, k)
            B = make_melonic(recipe)
            assert B.k == k
            assert is_connected(B)
            assert is_melonic(B)


def test_is_melonic_rejects_two_color_cycles():
    # connected two-color graphs with k >= 2 are matrix traces, not melonic
    spec = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2]))
    assert not is_melonic(make_cycle_graph(spec))
    spec3 = CycleSpec(k=3, m_colors=frozenset([1]), n_colors=frozenset([2]))
    assert not is_melonic(make_cycle_graph(spec3))


def test_is_melonic_one_two_cycle():
    # (1,n)-cycle graphs reduce to a dipole step by step
    spec = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2, 3]))
    assert is_melonic(make_cycle_graph(spec))


def test_is_melonic_negative():
    # three distinct shifts: no white/black pair shares D-1 edges anywhere
    s = (1, 2, 0)
    s2 = (2, 0, 1)
    B = ColoredGraph(k=3, sigma=(identity(3), s, s2))
    assert is_connected(B)
    assert not is_melonic(B)


def test_is_melonic_dipole_any_D():
    assert is_melonic(make_melonic(MelonicRecipe(D=2)))
    assert is_melonic(make_melonic(MelonicRecipe(D=1)))


def test_is_melonic_requires_connected():
    B = ColoredGraph(k=2, sigma=((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        is_melonic(B)


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 6), st.integers(1, 6))
def test_property_random_melonic_recipes_are_melonic(seed, D, k):
    # a melonic graph has one minimal covering, with gamma = 1 + k(D-1)
    B = make_melonic(random_melonic_recipe(np.random.default_rng(seed), D, k))
    assert is_melonic(B)
    mcs = minimal_coverings(B)
    assert (mcs.count, mcs.gamma) == (1, 1 + k * (D - 1))


def test_random_melonic_recipe_bounds():
    rng = np.random.default_rng(5)
    for _ in range(30):
        recipe = random_melonic_recipe(rng, 4, 5)
        assert recipe.k == 5
        for t, (color, vertex) in enumerate(recipe.steps, start=1):
            assert 1 <= color <= 4
            assert 1 <= vertex <= t


def test_cycle_spec_validation():
    CycleSpec(k=1, m_colors=frozenset([1]), n_colors=frozenset([2]))
    with pytest.raises(ValueError, match="overlap"):
        CycleSpec(k=1, m_colors=frozenset([1]), n_colors=frozenset([1, 2]))
    with pytest.raises(ValueError, match="partition"):
        CycleSpec(k=1, m_colors=frozenset([1]), n_colors=frozenset([3]))
    with pytest.raises(ValueError, match="k"):
        CycleSpec(k=0, m_colors=frozenset([1]), n_colors=frozenset([2]))
    with pytest.raises(ValueError, match="nonempty"):
        CycleSpec(k=2, m_colors=frozenset(), n_colors=frozenset([1]))
    spec = CycleSpec(k=2, m_colors=frozenset([1, 3]), n_colors=frozenset([2, 4, 5]))
    assert (spec.m, spec.n, spec.D) == (2, 3, 5)


def test_cycle_spec_refuses_a_repeated_color():
    # a repeated color is refused before the colors collapse into a set, in
    # a list or an array, and the JSON reader shares the check
    for colors in ([1, 1], np.array([1, 1])):
        with pytest.raises(ValueError, match="^m_colors repeats color 1$"):
            CycleSpec(k=3, m_colors=colors, n_colors=[2, 2, 2])
        with pytest.raises(ValueError, match="^n_colors repeats color 1$"):
            CycleSpec(k=3, m_colors=[2], n_colors=colors)
    with pytest.raises(ValueError, match="^m_colors repeats color 1$"):
        cycle_spec_from_json_dict({"k": 3, "m_colors": [1, 1], "n_colors": [2, 2, 2]})


def test_cycle_spec_m_colors_must_be_integers():
    # 1.5 is refused, never truncated to color 1; numpy integers are read
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        CycleSpec(k=2, m_colors={1.5}, n_colors={2})
    spec = CycleSpec(k=2, m_colors={np.int64(1)}, n_colors={2})
    assert spec == CycleSpec(k=2, m_colors={1}, n_colors={2})
    assert [type(c) for c in spec.m_colors] == [int]


def test_cycle_spec_n_colors_must_be_integers():
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        CycleSpec(k=2, m_colors={1}, n_colors={2.0})
    spec = CycleSpec(k=2, m_colors={1}, n_colors=np.array([2, 3]))
    assert spec == CycleSpec(k=2, m_colors={1}, n_colors={2, 3})
    assert {type(c) for c in spec.n_colors} == {int}


def test_make_cycle_graph_rows():
    spec = CycleSpec(k=3, m_colors=frozenset([2]), n_colors=frozenset([1, 3]))
    B = make_cycle_graph(spec)
    shift = (1, 2, 0)
    assert B.sigma == (shift, identity(3), shift)
    assert is_connected(B)


def test_cycle_spec_json_round_trip():
    spec = CycleSpec(k=4, m_colors=frozenset([2, 3]), n_colors=frozenset([1, 4]))
    assert cycle_spec_from_json_dict(json_dict(spec)) == spec
    with pytest.raises(ValueError, match="'k'"):
        cycle_spec_from_json_dict({"m_colors": [1], "n_colors": [2]})
    with pytest.raises(ValueError, match="'m_colors'"):
        cycle_spec_from_json_dict({"k": 1, "m_colors": "x", "n_colors": [2]})


def test_melonic_recipe_json_round_trip():
    recipe = MelonicRecipe(D=4, steps=((1, 1), (4, 2)))
    assert melonic_recipe_from_json_dict(json_dict(recipe)) == recipe
    with pytest.raises(ValueError, match="'steps'"):
        melonic_recipe_from_json_dict({"D": 3, "steps": [[1]]})
    with pytest.raises(ValueError, match="'D'"):
        melonic_recipe_from_json_dict({"steps": []})


@st.composite
def cycle_specs(draw):
    """A split of colors 1..D, D = 2-7, into two nonempty sets; k = 1-50."""
    colors = draw(st.permutations(range(1, draw(st.integers(2, 7)) + 1)))
    m = draw(st.integers(1, len(colors) - 1))
    return CycleSpec(k=draw(st.integers(1, 50)), m_colors=frozenset(colors[:m]),
                     n_colors=frozenset(colors[m:]))


@st.composite
def melonic_recipes(draw):
    """D = 1-6 colors; up to 7 steps, each on an edge of the graph so far."""
    D = draw(st.integers(1, 6))
    count = draw(st.integers(0, 7)) if D >= 3 else 0
    return MelonicRecipe(D=D, steps=tuple((draw(st.integers(1, D)), draw(st.integers(1, t)))
                                          for t in range(1, count + 1)))


@settings(max_examples=100)
@given(cycle_specs(), melonic_recipes())
def test_property_family_json_round_trips(spec, recipe):
    text = json.dumps(json_dict(spec))
    assert cycle_spec_from_json_dict(json.loads(text)) == spec
    text = json.dumps(json_dict(recipe))
    assert melonic_recipe_from_json_dict(json.loads(text)) == recipe
