import pytest

from tul.verify import FAMILIES, run_verify_suite

BOUNDS = {"max_k": 2, "max_D": 3, "families": FAMILIES, "seed": 0}


@pytest.mark.parametrize("change, message", [
    ({"max_k": 0}, "max_k must be positive, got 0"),
    ({"max_k": 10}, "max_k=10 exceeds the enumeration cap (9)"),
    ({"max_D": 1}, "max_D must be at least 2, got 1"),
    ({"families": ["cycle_11", "hexagonal"]},
     "unknown families: ['hexagonal']; choose from "
     "('cycle_11', 'cycle_mm', 'cycle_mn', 'melonic')"),
    ({"families": []}, "families must not be empty"),
    ({"seed": 2 ** 64}, "seed must fit in 64 unsigned bits, got 18446744073709551616"),
    ({"seed": -1}, "seed must fit in 64 unsigned bits, got -1"),
], ids=["max-k-0", "max-k-10", "max-D-1", "unknown-family", "no-family", "seed-2-64",
        "seed-negative"])
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
