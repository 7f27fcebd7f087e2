import numpy as np
import pytest

from tul.permutations import (compose, cycle_count, cycle_string, cycles, identity,
                              inverse, is_perm, to_one_based)


def test_identity_and_is_perm():
    assert identity(4) == (0, 1, 2, 3)
    assert is_perm((2, 0, 1))
    assert not is_perm((0, 0, 1))
    assert not is_perm((0, 2))


def test_compose_order():
    # compose(p, q) applies q first: result[i] = p[q[i]]
    p = (2, 0, 1)
    q = (1, 2, 0)
    assert compose(p, q) == identity(3)


def test_compose_length_mismatch():
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))


def test_inverse_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        p = tuple(int(i) for i in rng.permutation(k))
        assert compose(p, inverse(p)) == identity(k)
        assert compose(inverse(p), p) == identity(k)


def test_cycles_structure():
    p = (2, 0, 1, 3)  # 0 -> 2 -> 1 -> 0, 3 fixed
    assert cycles(p) == ((0, 2, 1), (3,))
    assert cycle_count(p) == 2
    assert cycle_count(identity(5)) == 5
    shift = tuple((j + 1) % 6 for j in range(6))
    assert cycle_count(shift) == 1


def test_cycle_count_invariant_under_inverse():
    rng = np.random.default_rng(3)
    for _ in range(30):
        p = tuple(int(i) for i in rng.permutation(int(rng.integers(1, 10))))
        assert cycle_count(p) == cycle_count(inverse(p))


def test_transposition():
    t = (0, 3, 2, 1)
    assert compose(t, t) == identity(4)
    assert inverse(t) == t
    assert cycle_count(t) == 3


def test_one_based_round_trip():
    p = (2, 0, 1)
    one = to_one_based(p)
    assert one == (3, 1, 2)
    assert tuple(i - 1 for i in one) == p


def test_cycle_string():
    assert cycle_string((2, 0, 1, 3)) == "(1 3 2)(4)"
    assert cycle_string(identity(2)) == "(1)(2)"


def test_package_exports_resolve():
    import tul

    missing = [name for name in tul.__all__ if not hasattr(tul, name)]
    assert missing == []
