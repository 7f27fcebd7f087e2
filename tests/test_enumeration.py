import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reference import CoveringGraph, face_profile, narayana_recurrence
from tul import enumeration
from tul.asymptotics import cross_check
from tul.enumeration import (MAX_K, catalan, covering_pass, enumerate_coverings,
                             limit_coefficient, minimal_coverings, narayana_face_distribution,
                             narayana_row)
from tul.families import (CycleSpec, MelonicRecipe, make_cycle_graph, make_melonic,
                          random_melonic_recipe)
from tul.graphs import ColoredGraph, is_connected
from tul.permutations import cycles, inverse
from tul.tensors import gaussian_exact_mean


def two_color_cycle(k):
    return make_cycle_graph(CycleSpec(k=k, m_colors=frozenset([1]), n_colors=frozenset([2])))


def test_enumerate_single_covering_k1():
    # the pass's stack has one row per pairing of S_k
    assert enumeration._lex_perms(1).tolist() == [[0]]
    assert enumeration._faces(make_melonic(MelonicRecipe(D=3))).tolist() == [[1, 1, 1]]


def test_enumerate_yields_all_pairings_in_order():
    B = two_color_cycle(3)
    taus = [tuple(tau) for tau in enumeration._lex_perms(3).tolist()]
    assert len(taus) == len(enumeration._faces(B)) == math.factorial(3)
    assert taus == sorted(taus) == list(itertools.permutations(range(3)))


def test_enumerate_face_totals_k3():
    B = two_color_cycle(3)
    totals = sorted(enumeration._faces(B).sum(axis=1).tolist())
    assert totals == [2, 4, 4, 4, 4, 4]


def test_enumerate_cap_refusal():
    assert MAX_K == 9
    with pytest.raises(ValueError, match=r"k=10 exceeds the enumeration cap \(9\): "
                                         r"10! = 3\.629e\+06 pairings"):
        covering_pass(two_color_cycle(10))
    with pytest.raises(ValueError, match="cap"):
        minimal_coverings(two_color_cycle(10))
    assert minimal_coverings(two_color_cycle(9)).count == catalan(9)


def test_enumerate_requires_connected():
    B = ColoredGraph(k=2, sigma=((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="connected"):
        minimal_coverings(B)
    with pytest.raises(ValueError, match="connected"):
        covering_pass(B)


def test_minimal_coverings_cycle_k3():
    mcs = minimal_coverings(two_color_cycle(3))
    assert mcs.count == 5
    assert mcs.gamma == 4
    assert all(sum(zero) == 4 for _, zero in mcs.members)


def test_minimal_coverings_melonic():
    B = make_melonic(MelonicRecipe(D=3, steps=((1, 1),)))
    mcs = minimal_coverings(B)
    assert mcs.count == 1
    assert mcs.gamma == 5


def test_minimal_coverings_23_cycle():
    spec = CycleSpec(k=2, m_colors=frozenset([1, 2]), n_colors=frozenset([3, 4, 5]))
    mcs = minimal_coverings(make_cycle_graph(spec))
    assert mcs.count == 1
    assert mcs.gamma == 3 * 2 + 2


def test_minimal_coverings_are_the_maximizers():
    B = two_color_cycle(3)
    mcs = minimal_coverings(B)
    members = {tau for tau, _ in mcs.members}
    for tau in itertools.permutations(range(B.k)):
        zero = face_profile(CoveringGraph(base=B, tau=tau))
        if tau in members:
            assert sum(zero) == mcs.gamma
        else:
            assert sum(zero) < mcs.gamma


def test_limit_coefficient_reduces_to_count():
    for B in (two_color_cycle(3), make_melonic(MelonicRecipe(D=3, steps=((2, 1),)))):
        mcs = minimal_coverings(B)
        assert limit_coefficient(B, [1.0] * B.D) == pytest.approx(mcs.count, rel=1e-15)


def test_limit_coefficient_two_color_k2():
    B = two_color_cycle(2)
    c1, c2 = 1.7, 0.6
    expect = c1 * c2 ** 2 + c1 ** 2 * c2
    assert limit_coefficient(B, (c1, c2)) == pytest.approx(expect, rel=1e-13)


def test_limit_coefficient_23_cycle():
    spec = CycleSpec(k=2, m_colors=frozenset([1, 2]), n_colors=frozenset([3, 4, 5]))
    B = make_cycle_graph(spec)
    c = (2.0, 3.0, 1.5, 0.5, 1.25)
    expect = c[0] * c[1] * (c[2] * c[3] * c[4]) ** 2
    assert limit_coefficient(B, c) == pytest.approx(expect, rel=1e-13)


def test_limit_coefficient_errors():
    B = two_color_cycle(2)
    with pytest.raises(ValueError):
        limit_coefficient(B, (1.0,))
    with pytest.raises(ValueError):
        limit_coefficient(B, (1.0, -2.0))


@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_property_library_floats_are_read_exactly(x):
    # a positive finite float is read as its exact value, so no rounding: the
    # dipole's coefficient is c itself
    assert limit_coefficient(make_melonic(MelonicRecipe(D=1)), [x]) == Fraction(x)


def test_catalan_values():
    assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(5) == 42
    assert catalan(20) == 6564120420
    with pytest.raises(ValueError):
        catalan(-1)


def test_narayana_values():
    assert narayana_row(3) == [1, 3, 1]
    assert narayana_row(4)[1] == 6
    assert narayana_row(1) == [1]


def test_narayana_rows_sum_to_catalan():
    for k in range(1, 21):
        assert sum(narayana_row(k)) == catalan(k)


def test_narayana_row_matches_closed_form():
    for k in range(1, 61):
        row = narayana_row(k)
        assert row == [math.comb(k, l) * math.comb(k, l - 1) // k for l in range(1, k + 1)]
        assert sum(row) == catalan(k)
    for k in (0, -4):
        with pytest.raises(ValueError, match="positive"):
            narayana_row(k)


def test_narayana_symmetry():
    for k in range(1, 13):
        row = narayana_row(k)
        assert row == row[::-1]


def test_narayana_recurrence_matches_closed_form():
    assert narayana_recurrence(2, 1) == 1
    assert narayana_recurrence(3, 2) == 3
    assert narayana_recurrence(4, 4) == 1
    for k in range(1, 13):
        for l, n in enumerate(narayana_row(k), start=1):
            assert narayana_recurrence(k, l) == n, (k, l)


def test_narayana_face_distribution():
    assert narayana_face_distribution(two_color_cycle(1), 1) == {1: 1}
    assert narayana_face_distribution(two_color_cycle(2), 1) == {1: 1, 2: 1}
    assert narayana_face_distribution(two_color_cycle(3), 1) == {1: 1, 2: 3, 3: 1}


def test_narayana_face_distribution_anchor_symmetry():
    # totals are k+1, so the color-2 histogram is the color-1 one reflected
    for k in range(1, 6):
        B = two_color_cycle(k)
        h1 = narayana_face_distribution(B, 1)
        h2 = narayana_face_distribution(B, 2)
        assert h2 == {k + 1 - l: n for l, n in h1.items()}


def test_narayana_face_distribution_rejects_other_graphs():
    with pytest.raises(ValueError):
        narayana_face_distribution(make_melonic(MelonicRecipe(D=3)), 1)
    with pytest.raises(ValueError):
        narayana_face_distribution(two_color_cycle(2), 3)


def test_minimal_coverings_color_relabeling():
    # swapping the two colors permutes each member's zero_faces
    spec = CycleSpec(k=3, m_colors=frozenset([2]), n_colors=frozenset([1]))
    B = two_color_cycle(3)
    B_swapped = make_cycle_graph(spec)
    a = minimal_coverings(B)
    b = minimal_coverings(B_swapped)
    assert a.gamma == b.gamma
    assert a.count == b.count
    faces_a = sorted(zero for _, zero in a.members)
    faces_b = sorted(tuple(reversed(zero)) for _, zero in b.members)
    assert faces_a == faces_b


# ---------------------------------------------------------------------------
# The blocked S_k pass against the per-covering definition
# ---------------------------------------------------------------------------

def _pass_graphs():
    """Every graph family with k <= 6: cycles with every (m,n) color split up
    to D=5, random melonic recipes, dipoles, and random connected graphs."""
    graphs = []
    for D in range(2, 6):
        for m in range(1, D):
            for m_colors in itertools.combinations(range(1, D + 1), m):
                n_colors = frozenset(range(1, D + 1)) - set(m_colors)
                for k in range(1, 7):
                    graphs.append(make_cycle_graph(CycleSpec(
                        k=k, m_colors=frozenset(m_colors), n_colors=n_colors)))
    rng = np.random.default_rng(11)
    for D in (3, 4, 5):
        for k in range(1, 7):
            graphs.append(make_melonic(random_melonic_recipe(rng, D, k)))
    graphs += [make_melonic(MelonicRecipe(D=D)) for D in range(1, 6)]
    while len(graphs) < 300:
        k, D = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        B = ColoredGraph(k=k, sigma=tuple(tuple(int(x) for x in rng.permutation(k))
                                          for _ in range(D)))
        if is_connected(B):
            graphs.append(B)
    return graphs


PASS_GRAPHS = _pass_graphs()


def test_pass_matches_face_profile_for_every_covering():
    for B in PASS_GRAPHS:
        expected = [(tau, face_profile(CoveringGraph(base=B, tau=tau)))
                    for tau in itertools.permutations(range(B.k))]
        # the stack row by row: pairing i of lexicographic S_k and its faces
        assert enumeration._lex_perms(B.k).tolist() == [list(tau) for tau, _ in expected]
        assert enumeration._faces(B).tolist() == [list(zero) for _, zero in expected], B
        assert list(enumerate_coverings(B)) == expected, B
        # a fresh record: gamma and count come from the kept rows, and the
        # member tuples are built only when members is first read
        result = covering_pass.__wrapped__(B)
        assert dict(result.histogram) == Counter(zero for _, zero in expected), B
        gamma = max(sum(zero) for _, zero in expected)
        members = tuple((tau, zero) for tau, zero in expected if sum(zero) == gamma)
        assert (result.gamma, result.count) == (gamma, len(members))
        assert "members" not in vars(result)
        assert result.members == members, B
        assert result.members is result.members


def test_pass_histogram_sums_to_k_factorial():
    for B in PASS_GRAPHS:
        histogram = covering_pass(B).histogram
        assert sum(histogram.values()) == math.factorial(B.k)
        assert all(len(zero) == B.D and all(1 <= f <= B.k for f in zero)
                   for zero in histogram)


def test_pass_histogram_is_read_only():
    with pytest.raises(TypeError):
        covering_pass(two_color_cycle(3)).histogram[(1, 1)] = 7


def test_minimal_coverings_is_the_pass_record():
    for B in PASS_GRAPHS:
        result = minimal_coverings(B)
        assert result is covering_pass(B)
        assert result.count == len(result.members)
        assert sum(n for zero, n in result.histogram.items()
                   if sum(zero) == result.gamma) == result.count, B


def test_pass_k1():
    result = covering_pass(make_melonic(MelonicRecipe(D=4)))
    assert dict(result.histogram) == {(1, 1, 1, 1): 1}
    assert result.gamma == 4
    assert result.members[0][0] == (0,)


def test_pass_many_colors():
    # with this many colors a base-k number over all of them overflows
    # int64, and in the last graph the identity pairing has 62 * 3 + 2 = 188
    # faces, past what an int8 total holds
    graphs = (ColoredGraph(k=2, sigma=tuple((0, 1) if i % 3 else (1, 0) for i in range(64))),
              ColoredGraph(k=3, sigma=tuple(p for p in itertools.permutations(range(3))) * 7),
              ColoredGraph(k=3, sigma=((0, 1, 2),) * 62 + ((1, 2, 0), (2, 0, 1))))
    for B in graphs:
        expected = [(tau, face_profile(CoveringGraph(base=B, tau=tau)))
                    for tau in itertools.permutations(range(B.k))]
        result = covering_pass(B)
        assert dict(result.histogram) == Counter(zero for _, zero in expected)
        gamma = max(sum(zero) for _, zero in expected)
        assert result.gamma == gamma
        assert result.members == tuple((tau, zero) for tau, zero in expected
                                       if sum(zero) == gamma)
    assert covering_pass(graphs[-1]).gamma == 188


def test_pass_errors_come_before_any_sweep():
    caches = (enumeration._face_column, enumeration._cycle_counts, enumeration._lex_perms,
              enumeration._lex_positions)
    for cached in caches:
        cached.cache_clear()
    with pytest.raises(ValueError, match="cap"):
        minimal_coverings(two_color_cycle(10))
    with pytest.raises(ValueError, match="connected"):
        covering_pass(ColoredGraph(k=2, sigma=((0, 1), (0, 1))))
    with pytest.raises(ValueError, match="cap"):
        gaussian_exact_mean(two_color_cycle(10), (1, 1), 2)
    with pytest.raises(ValueError, match="cap"):
        narayana_face_distribution(two_color_cycle(10), 1)
    for cached in caches:
        info = cached.cache_info()
        assert (info.hits, info.misses) == (0, 0)


def test_consumers_share_one_sweep():
    # one pass for the graph, one column for each of its two distinct rows
    spec = CycleSpec(k=5, m_colors=frozenset([1]), n_colors=frozenset([2, 3]))
    B = make_cycle_graph(spec)
    enumeration._face_column.cache_clear()
    enumeration.covering_pass.cache_clear()
    mcs = minimal_coverings(B)
    report = cross_check(B, spec, (1.5, 0.5, 2.0))
    wick = gaussian_exact_mean(B, (1, 2, 1), 3)
    assert enumeration.covering_pass.cache_info().misses == 1
    assert enumeration._face_column.cache_info().misses == 2
    assert (mcs.gamma, report.count_enum) == (2 * 5 + 1, 1)
    assert wick == sum(math.prod(d ** f for d, f in zip((3, 6, 3), zero))
                       for zero in enumeration._faces(B).tolist())
    assert enumeration._face_column.cache_info().misses == 2


def test_color_splits_share_one_sweep():
    # every split of 5 colors into 2 identities and 3 shifts stacks the same
    # two columns, so all ten splits compute two
    enumeration._face_column.cache_clear()
    enumeration.covering_pass.cache_clear()
    for m_colors in itertools.combinations(range(1, 6), 2):
        spec = CycleSpec(k=5, m_colors=frozenset(m_colors),
                         n_colors=frozenset(range(1, 6)) - set(m_colors))
        report = cross_check(make_cycle_graph(spec), spec, (2, 1, 3, 0.5, 1.5))
        assert (report.gamma_enum, report.count_enum) == (3 * 5 + 2, 1)
    assert enumeration.covering_pass.cache_info().misses == 10
    assert enumeration._face_column.cache_info().misses == 2


def test_cycles_of_one_k_share_two_columns():
    # the identity and the shift are the only rows of every (m,n)-cycle
    enumeration._face_column.cache_clear()
    enumeration.covering_pass.cache_clear()
    for m, n in ((1, 1), (2, 2), (1, 3)):
        spec = CycleSpec(k=5, m_colors=frozenset(range(1, m + 1)),
                         n_colors=frozenset(range(m + 1, m + n + 1)))
        gamma = m * 6 if m == n else n * 5 + m
        assert minimal_coverings(make_cycle_graph(spec)).gamma == gamma
    info = enumeration._face_column.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    for column in map(enumeration._face_column, ((0, 1, 2, 3, 4), (4, 0, 1, 2, 3))):
        assert column.dtype == np.int8 and column.shape == (120,)
        assert not column.flags.writeable
    assert enumeration._face_column.cache_info().misses == 2  # the identity's and the shift's


def _reference_column(table):
    # the cycle count of tau^-1 sigma, sigma = table^-1, for every tau of S_k in order
    sigma = inverse(table)
    base = ColoredGraph(k=len(table), sigma=(sigma,))
    return [face_profile(CoveringGraph(base=base, tau=tau))[0]
            for tau in itertools.permutations(range(len(table)))]


def test_face_column_is_the_reference_cycle_count():
    # every table of S_k for k <= 5, then two random tables at k = 7; the
    # columns are read through the Lehmer ranks of the relabeled pairings
    rng = np.random.default_rng(23)
    tables = [t for k in range(1, 6) for t in itertools.permutations(range(k))]
    tables += [tuple(rng.permutation(7).tolist()) for _ in range(2)]
    for table in tables:
        column = enumeration._face_column(table)
        assert column.dtype == np.int8 and not column.flags.writeable
        assert column.tolist() == _reference_column(table)


def test_lehmer_ranks_are_int32_and_a_bijection_at_k_9():
    # the weights reach 8! = 40,320, past int16, so a narrowed product would
    # wrap and repeat or overflow ranks; the identity reads S_9 in order
    k = 9
    for table in [tuple(range(k)), (3, 0, 8, 1, 6, 2, 7, 5, 4), tuple(range(k))[::-1]]:
        ranks = enumeration._lehmer_ranks(table)
        assert ranks.dtype == np.int32
        assert np.array_equal(np.sort(ranks), np.arange(math.factorial(k)))
    assert np.array_equal(enumeration._lehmer_ranks(tuple(range(k))),
                          np.arange(math.factorial(k)))
    # the reversal maps the lexicographic order onto its own reverse
    assert np.array_equal(enumeration._lehmer_ranks(tuple(range(k))[::-1]),
                          np.arange(math.factorial(k))[::-1])


def test_cycle_counts_are_the_cycles_of_each_permutation():
    # built level by level, each rank from the one before it by one
    # adjacent transposition of values; read against a plain cycle count
    for k in range(9):
        counts = enumeration._cycle_counts(k)
        assert counts.dtype == np.int8 and not counts.flags.writeable
        assert counts.tolist() == [len(cycles(p)) for p in itertools.permutations(range(k))]
    counts = enumeration._cycle_counts(9)
    assert counts.dtype == np.int8 and not counts.flags.writeable
    # the unsigned Stirling numbers of the first kind c(9, l), l = 1..9
    assert np.bincount(counts).tolist() == [
        0, 40320, 109584, 118124, 67284, 22449, 4536, 546, 36, 1]


def test_lex_positions_invert_the_lex_perms():
    for k in range(8):
        positions, perms = enumeration._lex_positions(k), enumeration._lex_perms(k)
        assert positions.dtype == np.int8 and not positions.flags.writeable
        assert np.array_equal(np.take_along_axis(perms, positions.astype(np.intp), axis=1),
                              np.broadcast_to(np.arange(k), perms.shape))


def test_lex_perms_is_itertools_order():
    for k in range(9):
        perms = enumeration._lex_perms(k)
        assert perms.dtype == np.int8 and not perms.flags.writeable
        assert list(map(tuple, perms.tolist())) == list(itertools.permutations(range(k)))


def _connected_graph(rng, k, D):
    while True:
        B = ColoredGraph(k=k, sigma=tuple(tuple(rng.permutation(k).tolist()) for _ in range(D)))
        if is_connected(B):
            return B


@pytest.mark.parametrize("k, D", [(5, 24), (5, 25), (7, 18), (7, 19)])
def test_pass_matches_unique_face_rows_with_many_colors(k, D):
    # these (k, D) lie on either side of where a face vector read as a
    # base-k number, times k!, first reaches 2^63: D = 25 for k = 5 and
    # D = 19 for k = 7; the pass must read the record np.unique reads off the
    # face rows on both.  D-1 identity rows and the shift: the identity
    # pairing's face vector, (k, ..., k, 1), is the last in lexicographic order
    shift = tuple(range(1, k)) + (0,)
    graphs = [_connected_graph(np.random.default_rng(24 + D), k, D),
              ColoredGraph(k=k, sigma=(tuple(range(k)),) * (D - 1) + (shift,))]
    if k == 7:
        # the (1,1)-cycle: its top total k+1 has the k Narayana vectors
        graphs.append(two_color_cycle(k))
    for B in graphs:
        columns = enumeration._columns(B)
        faces = np.stack(columns, axis=1)
        rows, counts = np.unique(faces, axis=0, return_counts=True)
        totals = faces.sum(axis=1, dtype=np.int64)
        gamma = int(totals.max())
        result = covering_pass(B)
        assert list(result.histogram.items()) == list(zip(map(tuple, rows.tolist()),
                                                          counts.tolist()))
        assert result.gamma == gamma
        assert result.members == tuple(
            (tau, tuple(zero)) for tau, zero, total
            in zip(itertools.permutations(range(B.k)), faces.tolist(), totals.tolist())
            if total == gamma)
        if B.D == 2:
            assert sorted(zero for zero in result.histogram if sum(zero) == gamma) == [
                (l, k + 1 - l) for l in range(1, k + 1)]


@st.composite
def connected_graphs(draw):
    """A connected graph with k = 1-6 and D = 1-5 random sigma rows."""
    k, D = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    B = ColoredGraph(k=k, sigma=tuple(draw(st.permutations(range(k))) for _ in range(D)))
    assume(is_connected(B))
    return B


@settings(max_examples=60)
@given(connected_graphs(), st.data())
def test_property_relabeling_colors_permutes_the_pass(B, data):
    # color i of B_pi is color pi[i] of B, so its face vectors are B's read through pi
    pi = data.draw(st.permutations(range(B.D)))
    B_pi = ColoredGraph(k=B.k, sigma=tuple(B.sigma[j] for j in pi))
    a, b = covering_pass(B), covering_pass(B_pi)

    def permuted(zero):
        return tuple(zero[j] for j in pi)

    assert dict(b.histogram) == {permuted(zero): n for zero, n in a.histogram.items()}
    assert list(b.histogram) == sorted(b.histogram)
    assert b.gamma == a.gamma
    assert [tau for tau, _ in b.members] == [tau for tau, _ in a.members]
    for (tau, zero), (_, other) in zip(b.members, a.members):
        assert zero == permuted(other)
        assert zero == face_profile(CoveringGraph(base=B_pi, tau=tau))
