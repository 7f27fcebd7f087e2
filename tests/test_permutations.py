import numpy as np

from tul.permutations import cycle_string, cycles, identity, inverse, is_perm, to_one_based


def test_identity_and_is_perm():
    assert identity(4) == (0, 1, 2, 3)
    assert is_perm((2, 0, 1))
    assert not is_perm((0, 0, 1))
    assert not is_perm((0, 2))


def test_inverse_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        p = tuple(int(i) for i in rng.permutation(k))
        inv = inverse(p)
        assert tuple(p[inv[i]] for i in range(k)) == identity(k)
        assert tuple(inv[p[i]] for i in range(k)) == identity(k)


def test_cycles_structure():
    p = (2, 0, 1, 3)  # 0 -> 2 -> 1 -> 0, 3 fixed
    assert cycles(p) == ((0, 2, 1), (3,))
    assert len(cycles(p)) == 2
    assert len(cycles(identity(5))) == 5
    shift = tuple((j + 1) % 6 for j in range(6))
    assert len(cycles(shift)) == 1


def test_cycle_count_invariant_under_inverse():
    rng = np.random.default_rng(3)
    for _ in range(30):
        p = tuple(int(i) for i in rng.permutation(int(rng.integers(1, 10))))
        assert len(cycles(p)) == len(cycles(inverse(p)))


def test_transposition():
    t = (0, 3, 2, 1)
    assert tuple(t[t[i]] for i in range(4)) == identity(4)
    assert inverse(t) == t
    assert len(cycles(t)) == 3


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
