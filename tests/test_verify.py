import pytest

from tul.verify import (FAMILIES, MAX_CYCLE_SPLITS, MAX_MELONIC_GRAPHS, _cycle_specs, _cycle_splits,
                        run_verify_suite)

BOUNDS = {"max_k": 2, "max_D": 3, "families": FAMILIES, "seed": 0}


@pytest.mark.parametrize("change, message", [
    ({"max_k": 0}, "max_k must be positive, got 0"),
    ({"max_k": 10}, "max_k=10 exceeds the enumeration cap (9)"),
    ({"max_D": 1}, "max_D must be at least 2, got 1"),
    ({"families": ["cycle_11", "hexagonal"]},
     "unknown families: ['hexagonal']; choose from "
     "('cycle_11', 'cycle_mm', 'cycle_mn', 'melonic')"),
    ({"families": []}, "families must not be empty"),
    ({"families": [], "max_D": 40}, "families must not be empty"),
    ({"max_k": 4, "max_D": 14},
     "max_D=14 and max_k=4 give the cycle families more than 65536 color splits to check"),
    ({"families": ["cycle_mm"], "max_k": 1, "max_D": 18, "seed": 2 ** 64},
     "max_D=18 and max_k=1 give the cycle families more than 65536 color splits to check"),
    ({"max_k": 1, "max_D": 1600},
     "max_D=1600 and max_k=1 give the cycle families more than 65536 color splits to check"),
    ({"families": ["melonic"], "max_k": 9, "max_D": 169},
     "max_D=169 and max_k=9 give the melonic family more than 1500 graphs to check"),
    ({"families": ["melonic"], "max_k": 2, "max_D": 100000, "seed": 2 ** 64},
     "max_D=100000 and max_k=2 give the melonic family more than 1500 graphs to check"),
    ({"seed": 2 ** 64}, "seed must fit in 64 unsigned bits, got 18446744073709551616"),
    ({"seed": -1}, "seed must fit in 64 unsigned bits, got -1"),
], ids=["max-k-0", "max-k-10", "max-D-1", "unknown-family", "no-family",
        "no-family-before-splits", "splits-4-14", "splits-before-seed", "splits-before-melonic",
        "melonic-9-169", "melonic-before-seed", "seed-2-64", "seed-negative"])
def test_refusals_come_before_any_check(monkeypatch, change, message):
    def no_check(*args):
        raise AssertionError("a check ran")

    for name in ("minimal_coverings", "narayana_face_distribution", "cross_check",
                 "gaussian_exact_mean", "monte_carlo_mean"):
        monkeypatch.setattr(f"tul.verify.{name}", no_check)
    with pytest.raises(ValueError) as exc:
        run_verify_suite(**{**BOUNDS, **change})
    assert str(exc.value) == message


def test_parameters_are_required_keywords():
    with pytest.raises(TypeError):
        run_verify_suite(2, 3, FAMILIES, 0)
    with pytest.raises(TypeError):
        run_verify_suite(max_k=2, max_D=3, families=FAMILIES)


def test_families_may_be_any_collection_of_names():
    names = [r.name for r in run_verify_suite(max_k=2, max_D=2, families=("cycle_11",),
                                              seed=0)]
    assert names == ["cycle_11 catalan k=1", "cycle_11 narayana k=1",
                     "cycle_11 catalan k=2", "cycle_11 narayana k=2",
                     "wick gaussian cycle_11 k=2 N=8"]


def test_max_D_bounds_every_family():
    # the melonic family starts at D=3, so at max_D=2 only the Wick gate runs
    names = [r.name for r in run_verify_suite(max_k=2, max_D=2, families=("melonic",),
                                              seed=0)]
    assert names == ["wick gaussian cycle_11 k=2 N=8"]


def test_cross_check_mismatches_are_failed_checks(monkeypatch):
    # a closed form of one face on every color is right at k=1 and wrong at
    # k=2; each mismatch is a failed check with its numbers, and the suite
    # goes on to the next check
    monkeypatch.setattr("tul.asymptotics.cycle_faces", lambda spec: {(1,) * spec.D: 1})
    monkeypatch.setattr("tul.asymptotics.melonic_faces", lambda recipe: {(1,) * recipe.D: 1})
    results = run_verify_suite(max_k=2, max_D=3, families=("cycle_mn", "melonic"), seed=0)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [
        "cycle_mn k=2 m=[1] n=[2, 3]", "cycle_mn k=2 m=[2] n=[1, 3]",
        "cycle_mn k=2 m=[3] n=[1, 2]", "melonic coeff D=3 k=2"]
    for r, family in zip(failed, ["cycle_mn"] * 3 + ["melonic"]):
        assert r.detail.startswith(f"closed form vs enumeration mismatch for family {family}: "
                                   f"gamma 3 vs 5, count 1 vs 1, coefficient "), r.detail
    assert len(results) == 11 and results[-1].name == "wick gaussian cycle_11 k=2 N=8"


def test_cycle_splits_are_counted_without_listing_them():
    # the count is the number of specs the cycle families walk, and the
    # largest runs under the bound are accepted
    for max_k, max_D in ((1, 2), (3, 7), (2, 9)):
        for families in (FAMILIES, ("cycle_mm",), ("cycle_mn",), ("cycle_11", "melonic")):
            walked = sum(1 for family, want_equal in (("cycle_mm", True), ("cycle_mn", False))
                         if family in families for _ in _cycle_specs(max_k, max_D, want_equal))
            assert _cycle_splits(max_k, max_D, families) == walked
    assert MAX_CYCLE_SPLITS == 2 ** 16
    assert _cycle_splits(3, 14, FAMILIES) == 56166 <= MAX_CYCLE_SPLITS
    assert _cycle_splits(9, 12, FAMILIES) == 42480 <= MAX_CYCLE_SPLITS
    mm = ("cycle_mm",)
    assert _cycle_splits(1, 17, mm) <= MAX_CYCLE_SPLITS < _cycle_splits(1, 18, mm)
    assert _cycle_splits(9, 10 ** 18, ("cycle_mn",)) > MAX_CYCLE_SPLITS
    assert _cycle_splits(9, 10 ** 18, ("cycle_11", "melonic")) == 0


def test_melonic_graphs_up_to_the_bound_are_accepted(monkeypatch):
    # the seed is read next, so reaching it means the bound let the run through
    class Accepted(Exception):
        pass

    def gate(**fields):
        raise Accepted

    monkeypatch.setattr("tul.verify.TensorSpec", gate)
    assert MAX_MELONIC_GRAPHS == 1500
    for max_k, max_D, families in ((9, 168, ("melonic",)), (1, 1502, ("melonic",)),
                                   (2, 752, ("melonic",)), (9, 10 ** 6, ("cycle_11",))):
        with pytest.raises(Accepted):
            run_verify_suite(max_k=max_k, max_D=max_D, families=families, seed=0)
