import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tul.asymptotics import (AsymptoticPrediction, CrossCheckError, CrossCheckReport,
                             cross_check, cycle_faces, melonic_faces, predict)
from tul.enumeration import (MAX_K, catalan, covering_pass, face_sum, minimal_coverings,
                             minimal_faces)
from tul.families import (CycleSpec, MelonicRecipe, make_cycle_graph, make_melonic,
                          random_melonic_recipe)
from tul.graphs import side_ratios
from tul.permutations import cycles


def test_predict_cycle_reads_ratios_like_tensor_spec():
    spec = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2]))
    assert predict(spec, ("3/2", 1)) == predict(spec, (Fraction(3, 2), 1))
    with pytest.raises(ValueError, match=re.escape("'c[1]'")):
        predict(spec, (True, 1))


def test_predict_reads_ratios_before_the_histogram(monkeypatch, no_column):
    # a bad c is refused before any Narayana row is built or pass is run
    def row(k):
        raise AssertionError("a Narayana row was built")

    monkeypatch.setattr("tul.asymptotics.narayana_row", row)
    covering_pass.cache_clear()
    spec = CycleSpec(k=3, m_colors=frozenset([1]), n_colors=frozenset([2]))
    for target in (spec, make_cycle_graph(spec)):
        with pytest.raises(ValueError, match="expected 2 side ratios, got 1"):
            predict(target, [""])
    with pytest.raises(TypeError, match="MelonicRecipe, CycleSpec or ColoredGraph"):
        predict("dipole", (1, 1))


def test_predict_carries_its_face_histogram():
    spec = CycleSpec(k=3, m_colors=frozenset([1]), n_colors=frozenset([2]))
    recipe = MelonicRecipe(D=3, steps=((1, 1),))
    B = make_melonic(recipe)
    assert predict(spec, (1, 1)).faces == cycle_faces(spec)
    assert predict(recipe, (1, 1, 1)).faces == melonic_faces(recipe)
    assert predict(B, (1, 1, 1)).faces == minimal_faces(B)
    # the histogram is neither compared nor shown
    assert predict(recipe, (1, 1, 1)) == AsymptoticPrediction(
        gamma=5, coefficient=1.0, family="melonic", faces={})
    assert "faces" not in repr(predict(spec, (1, 1)))


def test_predict_melonic_uniform_ratios():
    pred = predict(MelonicRecipe(D=3, steps=((1, 1),)), (1, 1, 1))
    assert pred.family == "melonic"
    assert pred.gamma == 1 + 2 * (3 - 1)
    assert pred.coefficient == 1.0


def test_predict_melonic_exponents_from_enumeration():
    # the recipe's face counts are exactly the unique minimal covering's
    recipe = MelonicRecipe(D=3, steps=((1, 1),))
    B = make_melonic(recipe)
    assert melonic_faces(recipe) == minimal_faces(B)
    (exponents,) = melonic_faces(recipe)
    assert sum(exponents) == 5
    pred = predict(recipe, (2, 1, 1))
    assert pred.coefficient == pytest.approx(2.0 ** exponents[0], rel=1e-13)
    exact = face_sum(minimal_faces(B), side_ratios((2, 1, 1), B.D))
    assert pred.coefficient == pytest.approx(exact, rel=1e-12)


def test_predict_melonic_coefficient_at_unequal_ratios():
    # one cut of color 1 at k=2 leaves faces (1, 2, 2), so c=(2,1,1) gives 2^1
    recipe = MelonicRecipe(D=3, steps=((1, 1),))
    assert melonic_faces(recipe) == {(1, 2, 2): 1}
    pred = predict(recipe, (2, 1, 1))
    assert pred.coefficient == pytest.approx(2.0, rel=1e-14)


@st.composite
def melonic_recipes(draw, max_k):
    """A random melonic recipe with D = 3-6 and k <= max_k."""
    D, k = draw(st.integers(3, 6)), draw(st.integers(1, max_k))
    return MelonicRecipe(D=D, steps=tuple((draw(st.integers(1, D)), draw(st.integers(1, t)))
                                          for t in range(1, k)))


@settings(max_examples=60)
@given(melonic_recipes(7))
def test_property_melonic_faces_are_the_minimal_faces(recipe):
    assert melonic_faces(recipe) == minimal_faces(make_melonic(recipe))


@settings(max_examples=60)
@given(melonic_recipes(40))
def test_property_melonic_faces_are_the_identity_coverings(recipe):
    # make_melonic gives each inserted white vertex its own black one, so the
    # dominant covering is the identity and its faces are the cycles of sigma_i
    B = make_melonic(recipe)
    assert melonic_faces(recipe) == {tuple(len(cycles(s)) for s in B.sigma): 1}


def test_predict_melonic_past_the_sweep_cap():
    # three cuts of color 1 at k=12: f_1 = 9, so c=(2,1,1) gives 2^9; a sweep
    # of this graph is refused, so the closed form reads none
    recipe = MelonicRecipe(D=3, steps=((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2),
                                       (1, 3), (2, 3), (3, 3), (2, 4), (3, 4)))
    assert recipe.k > MAX_K
    with pytest.raises(ValueError, match="enumeration cap"):
        covering_pass(make_melonic(recipe))
    assert melonic_faces(recipe) == {(9, 8, 8): 1}
    pred = predict(recipe, (2, 1, 1))
    assert (pred.gamma, pred.coefficient) == (1 + 12 * 2, 512.0)


def test_predict_cycle_mm_values():
    spec = CycleSpec(k=3, m_colors=frozenset([1]), n_colors=frozenset([2]))
    assert predict(spec, (1, 1)).coefficient == pytest.approx(catalan(3))
    assert predict(spec, (1, 1)).gamma == 4

    k2 = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2]))
    c1, c2 = 0.8, 2.5
    expect = c1 * c2 ** 2 + c1 ** 2 * c2
    pred = predict(k2, (c1, c2))
    assert pred.coefficient == pytest.approx(expect, rel=1e-13)
    assert pred.family == "cycle_11"

    pairs = CycleSpec(k=1, m_colors=frozenset([1, 2]), n_colors=frozenset([3, 4]))
    pred = predict(pairs, (1.5, 2.0, 0.5, 3.0))
    assert pred.gamma == 4
    assert pred.coefficient == pytest.approx(1.5 * 2.0 * 0.5 * 3.0, rel=1e-13)
    assert pred.family == "cycle_mm"


def test_predict_cycle_mn_values():
    spec = CycleSpec(k=2, m_colors=frozenset([1, 2]), n_colors=frozenset([3, 4, 5]))
    pred = predict(spec, (1, 1, 1, 1, 1))
    assert pred.gamma == 3 * 2 + 2
    assert pred.coefficient == 1.0
    pred = predict(spec, (2, 3, 1, 1, 1))
    assert pred.coefficient == pytest.approx(6.0, rel=1e-14)

    one_n = CycleSpec(k=4, m_colors=frozenset([1]), n_colors=frozenset([2, 3]))
    assert predict(one_n, (1, 1, 1)).gamma == 2 * 4 + 1


def test_predict_cycle_swaps_roles_when_m_exceeds_n():
    # more identity colors than shift colors: exchange the roles
    spec = CycleSpec(k=2, m_colors=frozenset([1, 2]), n_colors=frozenset([3]))
    pred = predict(spec, (2.0, 1.5, 3.0))
    assert pred.gamma == 2 * 2 + 1
    assert pred.coefficient == pytest.approx(3.0 * (2.0 * 1.5) ** 2, rel=1e-13)
    B = make_cycle_graph(spec)
    mcs = minimal_coverings(B)
    assert mcs.gamma == pred.gamma
    exact = face_sum(minimal_faces(B), side_ratios((2.0, 1.5, 3.0), B.D))
    assert exact == pytest.approx(pred.coefficient, rel=1e-12)


def test_predict_generic_matches_enumeration():
    B = make_melonic(MelonicRecipe(D=4, steps=((2, 1), (1, 2))))
    c = (1.5, 0.5, 2.0, 1.0)
    pred = predict(B, c)
    mcs = minimal_coverings(B)
    assert pred.gamma == mcs.gamma
    assert pred.coefficient == pytest.approx(face_sum(minimal_faces(B), side_ratios(c, B.D)),
                                             rel=1e-14)
    assert pred.family == "generic"


def test_all_c_one_collapses_to_count():
    rng = np.random.default_rng(2)
    for D in (3, 4):
        recipe = random_melonic_recipe(rng, D, 3)
        pred = predict(recipe, [1] * D)
        assert pred.coefficient == pytest.approx(minimal_coverings(make_melonic(recipe)).count)


def test_cross_check_families_pass():
    rng = np.random.default_rng(9)
    # two-color cycles
    for k in range(1, 5):
        spec = CycleSpec(k=k, m_colors=frozenset([1]), n_colors=frozenset([2]))
        c = rng.uniform(0.5, 3.0, size=2)
        report = cross_check(make_cycle_graph(spec), spec, c)
        assert report.gamma_closed == k + 1
        assert report.count_enum == catalan(k)
    # melonic
    for D in (3, 4):
        recipe = random_melonic_recipe(rng, D, 3)
        report = cross_check(make_melonic(recipe), recipe, rng.uniform(0.5, 3.0, size=D))
        assert report.count_enum == 1
    # unequal split
    spec = CycleSpec(k=2, m_colors=frozenset([2]), n_colors=frozenset([1, 3]))
    report = cross_check(make_cycle_graph(spec), spec, rng.uniform(0.5, 3.0, size=3))
    assert report.gamma_closed == 2 * 2 + 1


def test_cross_check_rejects_mismatched_inputs():
    spec = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2]))
    with pytest.raises(ValueError, match="does not match"):
        cross_check(make_melonic(MelonicRecipe(D=2)), spec, (1, 1))
    with pytest.raises(TypeError):
        cross_check(make_melonic(MelonicRecipe(D=2)), "dipole", (1, 1))


def test_cross_check_error_carries_diff():
    report = CrossCheckReport(family="cycle_11", gamma_closed=3, gamma_enum=4,
                              count_closed=2, count_enum=2,
                              coeff_closed=2.0, coeff_enum=2.0)
    err = CrossCheckError(report)
    assert err.report.gamma_enum == 4
    assert "gamma 3 vs 4" in str(err)


def test_coefficient_monotonic_in_each_ratio():
    spec = CycleSpec(k=3, m_colors=frozenset([1]), n_colors=frozenset([2, 3]))
    base = [1.0, 1.0, 1.0]
    f0 = predict(spec, base).coefficient
    for i in range(3):
        bumped = list(base)
        bumped[i] = 1.2
        assert predict(spec, bumped).coefficient > f0


def test_gamma_overlap_between_families():
    # a (1,1)-cycle is covered by the m=n formula; melonic D=2 would give the
    # same exponent k+1, and both match enumeration
    for k in (1, 2, 3):
        spec = CycleSpec(k=k, m_colors=frozenset([1]), n_colors=frozenset([2]))
        assert predict(spec, (1, 1)).gamma == k + 1 == 1 + k * (2 - 1)


def test_cycle_faces_are_the_predicted_histograms():
    k3 = CycleSpec(k=3, m_colors=frozenset([2]), n_colors=frozenset([1]))
    assert cycle_faces(k3) == {(3, 1): 1, (2, 2): 3, (1, 3): 1}
    # m > n: one face on each color of the smaller set, k on the larger
    spec = CycleSpec(k=2, m_colors=frozenset([1, 3]), n_colors=frozenset([2]))
    assert cycle_faces(spec) == {(2, 1, 2): 1}
    assert cycle_faces(spec) == minimal_faces(make_cycle_graph(spec))


@settings(max_examples=200)
@given(st.floats(1e-50, 1e50), st.floats(1e-50, 1e50))
def test_property_coefficient_is_the_rounded_exact_value(x, y):
    # k=2 (1,1)-cycle: N_{2,1} = N_{2,2} = 1, so the coefficient is x y^2 + x^2 y
    spec = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2]))
    X, Y = Fraction(x), Fraction(y)
    exact = X * Y ** 2 + X ** 2 * Y
    assert predict(spec, (x, y)).coefficient == float(exact)
    assert face_sum(minimal_faces(make_cycle_graph(spec)), side_ratios((x, y), 2)) == exact


def test_cross_check_compares_exact_coefficients(monkeypatch):
    # a wrong histogram with the right gamma and count, equal to the true one
    # at c = (1, 1) and off by c2 (c2 - 1)^2 elsewhere
    spec = CycleSpec(k=3, m_colors=frozenset([1]), n_colors=frozenset([2]))
    B = make_cycle_graph(spec)
    monkeypatch.setattr("tul.asymptotics.cycle_faces",
                        lambda spec: {(1, 3): 2, (2, 2): 1, (3, 1): 2})
    assert cross_check(B, spec, (1, 1)).coeff_enum == 5.0
    with pytest.raises(CrossCheckError) as err:
        cross_check(B, spec, (1, Fraction(10 ** 15 + 1, 10 ** 15)))
    # the coefficients differ by 1e-30, far below any float tolerance
    assert err.value.report.coeff_closed == err.value.report.coeff_enum
    with pytest.raises(CrossCheckError):
        cross_check(B, spec, (1, 2))


def test_cross_check_melonic_compares_the_recipe_with_the_sweep(monkeypatch):
    # a wrong split of the right gamma: equal coefficients at c = (1, 1, 1)
    # only, so the check fails at unequal ratios
    recipe = MelonicRecipe(D=3, steps=((1, 1),))
    B = make_melonic(recipe)
    monkeypatch.setattr("tul.asymptotics.melonic_faces", lambda recipe: {(2, 1, 2): 1})
    assert cross_check(B, recipe, (1, 1, 1)).gamma_enum == 5
    with pytest.raises(CrossCheckError):
        cross_check(B, recipe, (2, 1, 1))
