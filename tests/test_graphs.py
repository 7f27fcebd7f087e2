from fractions import Fraction
from itertools import permutations

import pytest

from tul.families import CycleSpec, make_cycle_graph, make_dipole
from tul.graphs import (ColoredGraph, CoveringGraph, FaceProfile, face_profile, genus,
                        graph_from_json_dict, graph_to_json_dict, is_connected)


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
    B = make_dipole(3)
    profile = face_profile(CoveringGraph(base=B, tau=(0,)))
    assert profile.zero_faces == (1, 1, 1)
    assert profile.total == 3


def test_face_totals_two_color_cycle_k3():
    # over all 6 pairings the face totals are five 4s and one 2
    B = two_color_cycle(3)
    totals = sorted(face_profile(CoveringGraph(base=B, tau=tau)).total
                    for tau in permutations(range(3)))
    assert totals == [2, 4, 4, 4, 4, 4]


def test_is_connected():
    assert is_connected(make_dipole(4))
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
    B = make_dipole(3)
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


def test_face_profile_total_consistency():
    B = two_color_cycle(4)
    for tau in permutations(range(4)):
        profile = face_profile(CoveringGraph(base=B, tau=tau))
        assert profile.total == sum(profile.zero_faces)
        assert all(f >= 1 for f in profile.zero_faces)


def test_face_profile_type():
    p = FaceProfile(zero_faces=(2, 1), total=3)
    assert p.total == 3
