import hashlib
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reference import (apply_unitaries, cycle_value_reference, cycle_values_fresh,
                       cycle_values_spectral, disc_entry, margins, random_unitary,
                       uniform_disc_block, unitary_invariance_check)
from tul.families import (CycleSpec, MelonicRecipe, make_cycle_graph, make_melonic,
                          random_melonic_recipe)
from tul.graphs import ColoredGraph, is_connected
from tul.tensors import (BLOCK_ENTRIES, DEFAULT_NAIVE_BUDGET, DISC_CHUNK, DISTRIBUTIONS,
                         EINSUM_LABELS, MAX_SAMPLES, MAX_TENSOR_ENTRIES, TensorSpec,
                         _check_naive_contraction, _cycle_values, _network_operands, _network_plan,
                         _network_values, _to_disc,
                         gaussian_exact_mean, monte_carlo_mean, sample_tensor,
                         tensor_spec_from_json_dict, trace_invariant_cycle, trace_invariant_naive,
                         trace_invariant_network, universality_scan)


def cycle_11(k):
    return CycleSpec(k=k, m_colors=frozenset([1]), n_colors=frozenset([2]))


def gaussian_spec(D, N, seed=0, c=None):
    return TensorSpec(D=D, c=c or (1,) * D, N=N, distribution="complex_gaussian", seed=seed)


def test_tensor_spec_validation():
    spec = TensorSpec(D=2, c=(Fraction(1, 2), 2), N=4, distribution="complex_gaussian", seed=1)
    assert spec.dims == (2, 8)
    with pytest.raises(ValueError, match="not an integer"):
        TensorSpec(D=2, c=(Fraction(1, 2), 1), N=3, distribution="complex_gaussian", seed=1)
    with pytest.raises(ValueError, match="positive"):
        TensorSpec(D=1, c=(-1,), N=2, distribution="complex_gaussian", seed=1)
    with pytest.raises(ValueError, match="distribution"):
        TensorSpec(D=1, c=(1,), N=2, distribution="laplace", seed=1)
    with pytest.raises(ValueError, match="seed"):
        TensorSpec(D=1, c=(1,), N=2, distribution="complex_gaussian", seed=-1)
    with pytest.raises(ValueError, match="ratios"):
        TensorSpec(D=3, c=(1, 1), N=2, distribution="complex_gaussian", seed=0)
    with pytest.raises(ValueError, match="D must be positive, got 0"):
        TensorSpec(D=0, c=(), N=2, distribution="complex_gaussian", seed=0)
    with pytest.raises(ValueError, match="N must be positive, got 0"):
        TensorSpec(D=1, c=(1,), N=0, distribution="complex_gaussian", seed=0)
    # the entry limit is checked on the spec, before anything is allocated
    assert gaussian_spec(2, 2 ** 13).dims == (2 ** 13, 2 ** 13)
    with pytest.raises(ValueError, match="N=8193 .* over the limit"):
        gaussian_spec(2, 2 ** 13 + 1)


def test_tensor_spec_N_must_be_an_integer():
    # side_lengths reads N as an integer: 4.0 is refused, a numpy integer read
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        gaussian_spec(2, 4.0)
    assert gaussian_spec(2, np.int64(4)).dims == (4, 4)


@pytest.mark.parametrize("bad", ["1/0", True, "inf", float("nan"), 0, "-3/2"])
def test_tensor_spec_refuses_bad_ratio_naming_it(bad):
    with pytest.raises(ValueError, match=re.escape("'c[1]'")):
        TensorSpec(D=2, c=(bad, 1), N=2, distribution="complex_gaussian", seed=0)


def test_sample_tensor_deterministic():
    spec = gaussian_spec(3, 4, seed=77)
    a = sample_tensor(spec, 5)
    b = sample_tensor(spec, 5)
    assert np.array_equal(a, b)
    assert a.shape == (4, 4, 4)
    assert not np.array_equal(a, sample_tensor(spec, 6))


def test_sample_tensor_unit_second_moment():
    for dist in DISTRIBUTIONS:
        spec = TensorSpec(D=2, c=(2, 1), N=16, distribution=dist, seed=3)
        second = np.mean([np.mean(np.abs(sample_tensor(spec, i)) ** 2) for i in range(50)])
        assert abs(second - 1.0) < 0.02, dist


def test_rademacher_modulus_is_one():
    spec = TensorSpec(D=2, c=(1, 1), N=8, distribution="complex_rademacher", seed=9)
    T = sample_tensor(spec)
    assert np.allclose(np.abs(T), 1.0)


def test_uniform_disc_stays_in_radius():
    spec = TensorSpec(D=2, c=(1, 1), N=32, distribution="uniform_disc", seed=9)
    T = sample_tensor(spec)
    assert np.all(np.abs(T) <= math.sqrt(2) + 1e-12)


def block_size(spec):
    return max(1, BLOCK_ENTRIES // math.prod(spec.dims))


@st.composite
def stream_cases(draw):
    """A tensor spec of 1-3 sides of 1-24, and a stack of samples start ..
    start + count - 1 that may straddle block boundaries."""
    dims = tuple(draw(st.lists(st.integers(1, 24), min_size=1, max_size=3)))
    spec = TensorSpec(D=len(dims), c=dims, N=1, distribution=draw(st.sampled_from(DISTRIBUTIONS)),
                      seed=draw(st.integers(0, 2 ** 64 - 1)))
    K = block_size(spec)
    start = draw(st.integers(0, 3)) * K + draw(st.integers(0, K - 1))
    return spec, start, draw(st.integers(1, 2 * K + 2))


@settings(max_examples=60)
@given(stream_cases())
def test_property_stack_is_its_samples(case):
    spec, start, count = case
    stack = sample_tensor(spec, start, count)
    assert stack.shape == (count, *spec.dims) and stack.dtype == np.complex128
    # the two ends, and both sides of every block boundary inside the stack
    K = block_size(spec)
    edges = {0, count - 1}
    for first in range((start // K + 1) * K, start + count, K):
        edges |= {first - start - 1, first - start}
    for j in edges:
        assert np.array_equal(stack[j], sample_tensor(spec, start + j)), j


# (D, N, count): a small shape whose block holds every sample, and the scan's
# D=4, N=16 tensor of 65,536 entries, one per block, two disc chunks each
STREAM_SHAPES = [(2, 3, 5), (4, 16, 3)]
STREAM_DIGESTS = {
    ("complex_gaussian", 2): "02b946b646c25d41fa263fb1e76884a4d22e1024d671d935e46d263df6cdbfbf",
    ("complex_gaussian", 4): "366491d022d6e80c09dcae66c540837f9fa2bb3921537eb5dd632475ce4d6b4f",
    ("complex_rademacher", 2): "3a49a7b18577e5297ec1dfcd1c3fb1341ab432058be936c658cace2bad90a280",
    ("complex_rademacher", 4): "9a6ccfd630472089133440953ab0f7a59cff87b40af746a15e31f19de0b3d421",
    ("uniform_disc", 2): "4854ebf041e0308fd5ea119d9a746d829a12f56caa232f2b87ec4c1030be3f6f",
    ("uniform_disc", 4): "da37f9c486b4f98dbd47f772efc70139bf29bdb5465dc8254903c88179fcdcd1",
}


def stream_spec(dist, D, N):
    return TensorSpec(D=D, c=(2, 1) if D == 2 else (1,) * D, N=N, distribution=dist, seed=12)


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("D, N, count", STREAM_SHAPES)
def test_stream_is_pinned(dist, D, N, count):
    # any change to these bytes is a new STREAM; the disc transform rounds
    # only in IEEE arithmetic, with no libm call, so its digest is pinned too
    stack = sample_tensor(stream_spec(dist, D, N), 0, count)
    assert hashlib.sha256(stack.tobytes()).hexdigest() == STREAM_DIGESTS[dist, D]


@pytest.mark.parametrize("D, N, count, chunks", [(*STREAM_SHAPES[0], 1), (*STREAM_SHAPES[1], 2),
                                                 (2, 200, 1, 3)],
                         ids=["one-chunk", "two-chunks", "partial-chunk"])
def test_uniform_disc_matches_the_one_pass_transform(D, N, count, chunks):
    # the same uniforms through np.sin and np.cos of 2 pi v in one pass: the
    # angle's rounding there and the kernels' here move an entry by ~1e-15
    spec = stream_spec("uniform_disc", D, N)
    assert -(-math.prod(spec.dims) // DISC_CHUNK) == chunks
    K = block_size(spec)
    expected = np.concatenate([uniform_disc_block(spec, b, min(K, count - b * K))
                               for b in range(-(-count // K))])
    stack = sample_tensor(spec, 0, count)
    assert np.abs(stack.view(np.float64) - expected.view(np.float64)).max() <= 2.0 ** -49


def test_disc_kernels_are_exact_at_quarter_turns_and_within_an_ulp_of_math():
    # u = 1/2 gives radius 1, so each entry is e^(2 pi i v) itself
    eighths = [k / 8 for k in range(8)]
    rng = np.random.default_rng(30)
    v = np.array([*eighths, 1 - 2.0 ** -53, *rng.random(2000)])
    entries = v + 0.5j
    _to_disc(entries)
    assert entries[[0, 2, 4, 6]].tolist() == [1, 1j, -1, -1j]
    # v = 1 - 2^-53 is the turn's last step, q = 4: cos 1, sin -2 pi 2^-53
    assert entries[8] == complex(1, -2 * math.pi * 2.0 ** -53)
    for vi, got in zip(v.tolist(), entries.tolist()):
        # the reduced angle as _to_disc rounds it, then the quarter turns
        t = 4 * vi
        q = round(t)
        phi = (t - q) * (0.5 * math.pi)
        want = complex(math.cos(phi), math.sin(phi)) * (1, 1j, -1, -1j)[q % 4]
        assert abs(got.real - want.real) <= math.ulp(want.real), vi
        assert abs(got.imag - want.imag) <= math.ulp(want.imag), vi
    # the bytes are those of the same IEEE operations, one scalar at a time
    assert [disc_entry(x, 0.5) for x in v.tolist()] == entries.tolist()


def test_sample_tensor_refuses_bad_range():
    for index, count in ((-1, None), (0, 0)):
        with pytest.raises(ValueError, match="sample_index"):
            sample_tensor(gaussian_spec(2, 4), index, count)


def test_rademacher_entries_are_exact():
    spec = TensorSpec(D=2, c=(1, 1), N=8, distribution="complex_rademacher", seed=9)
    parts = sample_tensor(spec, 0, 300).view(np.float64)
    # sqrt(0.5) is the double nearest 1/sqrt(2); 1 / math.sqrt(2) rounds twice
    assert set(np.unique(parts)) == {-math.sqrt(0.5), math.sqrt(0.5)}


def test_uniform_disc_stack_stays_in_radius():
    spec = TensorSpec(D=2, c=(1, 1), N=8, distribution="uniform_disc", seed=9)
    assert np.all(np.abs(sample_tensor(spec, 0, 300)) <= math.sqrt(2))


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_second_moment_within_four_sigma(dist):
    spec = TensorSpec(D=2, c=(1, 1), N=8, distribution=dist, seed=4)
    sq = np.abs(sample_tensor(spec, 0, 4000)).ravel() ** 2
    # rademacher |z|^2 is 1 up to rounding, so its sigma is 0
    assert abs(sq.mean() - 1) <= 4 * sq.std(ddof=1) / math.sqrt(sq.size) + 1e-12


@pytest.mark.parametrize("spec, dims", [
    (cycle_11(1), (3, 5)),
    (cycle_11(2), (5, 3)),
    (CycleSpec(k=2, m_colors=frozenset([1, 3]), n_colors=frozenset([2])), (2, 3, 2)),
    (CycleSpec(k=3, m_colors=frozenset([2]), n_colors=frozenset([1, 3])), (3, 2, 2)),
    (cycle_11(3), (4, 4)),
    (cycle_11(4), (4, 4)),
    (CycleSpec(k=5, m_colors=frozenset([1, 3]), n_colors=frozenset([2])), (2, 3, 2)),
], ids=["k1", "k2-tall", "k2-13-2", "k3-2-13", "k3", "k4", "k5-13-2"])
def test_cycle_values_stack_is_slice_by_slice(spec, dims):
    stack = sample_tensor(TensorSpec(D=len(dims), c=dims, N=1, distribution="uniform_disc",
                                     seed=6), 0, 40)
    # _cycle_values consumes the stack, so the slices are contracted first
    slices = [trace_invariant_cycle(T, spec) for T in stack]
    values = _cycle_values(stack, spec)
    assert values.shape == (40,)
    assert values.tolist() == slices


# (m_colors, n_colors, dims, K): the scan's (2,2)-cycle at N=16, one tensor
# per block, and Wick-sized blocks of the (1,1)-cycle and of a (2,1)-cycle
# whose identity side is the larger one
KERNEL_SHAPES = [
    ((1, 3), (2, 4), (16, 16, 16, 16), 1),
    ((1,), (2,), (8, 8), 64),
    ((2, 3), (1,), (4, 4, 4), 64),
]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("m, n, dims, K", KERNEL_SHAPES, ids=["scan", "wick-11", "wick-21"])
def test_cycle_values_match_the_fresh_buffer_kernel(k, m, n, dims, K):
    # three blocks through one workspace, the last one shorter where K > 1,
    # as a Monte Carlo mean draws them
    spec = CycleSpec(k=k, m_colors=frozenset(m), n_colors=frozenset(n))
    tensor = TensorSpec(D=len(dims), c=dims, N=1, distribution="uniform_disc", seed=k)
    work = {}
    for start, count in ((0, K), (K, K), (2 * K, max(1, K // 3))):
        stack = sample_tensor(tensor, start, count)
        expected = cycle_values_fresh(stack, spec)
        assert np.array_equal(_cycle_values(stack, spec, work), expected)
    assert len(work) == (0 if k == 1 else 1 if K == 1 else 2)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 9, 64])
@pytest.mark.parametrize("m, n, dims, K", [
    ((1,), (2,), (4, 4), 256),
    ((1,), (2,), (8, 8), 64),
    ((1, 3), (2, 4), (16, 16, 16, 16), 1),
], ids=["wick-4", "wick-8", "scan-256"])
def test_cycle_values_match_the_spectral_sum(k, m, n, dims, K):
    # the powers of the Gram against sum_j lambda_j^k of a stacked eigvalsh
    spec = CycleSpec(k=k, m_colors=frozenset(m), n_colors=frozenset(n))
    stack = sample_tensor(TensorSpec(D=len(dims), c=dims, N=1, distribution="complex_gaussian",
                                     seed=k), 0, K)
    expected = cycle_values_spectral(stack, spec)
    assert _cycle_values(stack, spec).tolist() == pytest.approx(expected.tolist(), rel=1e-12)


@pytest.mark.parametrize("layout", ["C", "F", "real"])
def test_trace_invariant_cycle_leaves_its_tensor(layout):
    spec = CycleSpec(k=2, m_colors=frozenset([1, 3]), n_colors=frozenset([2]))
    T = sample_tensor(TensorSpec(D=3, c=(3, 4, 2), N=1, distribution="complex_gaussian",
                                 seed=8))
    if layout == "F":
        T = np.asfortranarray(T)
    elif layout == "real":
        T = T.real.copy()
    before = T.copy()
    value = trace_invariant_cycle(T, spec)
    assert np.array_equal(T, before) and T.flags.f_contiguous == (layout == "F")
    assert value == cycle_values_fresh(before[None], spec)[0]


@st.composite
def gram_cases(draw):
    """A random (m,n)-cycle spec with D = 2-4 and k = 1-5, sides 1-5 that
    make the identity side the taller or the wider one, and a stack of 1-3
    complex tensors of those sides."""
    colors = draw(st.permutations(range(1, draw(st.integers(2, 4)) + 1)))
    m = draw(st.integers(1, len(colors) - 1))
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=len(colors), max_size=len(colors))))
    m_colors, n_colors = frozenset(colors[:m]), frozenset(colors[m:])
    p, q = (math.prod(dims[i - 1] for i in side) for side in (m_colors, n_colors))
    if draw(st.booleans()) != (p > q):
        m_colors, n_colors = n_colors, m_colors
    # hypothesis leans to the first value; k = 2 is the scan's Gram
    spec = CycleSpec(k=draw(st.sampled_from((2, 3, 1, 4, 5))), m_colors=m_colors,
                     n_colors=n_colors)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (draw(st.integers(1, 3)), *dims)
    return spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=80)
@given(gram_cases())
def test_property_cycle_values_match_complex_gram(case):
    spec, stack = case
    rel = 1e-12 if spec.k <= 2 else 1e-10
    expected = [cycle_value_reference(T, spec) for T in stack]
    assert _cycle_values(stack, spec).tolist() == pytest.approx(expected, rel=rel)


def test_naive_k1_is_squared_norm():
    rng = np.random.default_rng(1)
    T = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    B = make_melonic(MelonicRecipe(D=3))
    assert trace_invariant_naive(T, B) == pytest.approx(float(np.sum(np.abs(T) ** 2)), rel=1e-12)


def test_naive_homogeneity():
    rng = np.random.default_rng(2)
    B = make_melonic(MelonicRecipe(D=3, steps=((2, 1),)))
    T = (rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))) * 0.5
    base = trace_invariant_naive(T, B)
    for lam in (2.0, 1j, 1 + 1j):
        scaled = trace_invariant_naive(lam * T, B)
        assert scaled == pytest.approx(abs(lam) ** (2 * B.k) * base, rel=1e-10)


def test_naive_budget_refusal():
    B = make_cycle_graph(cycle_11(4))
    T = np.zeros((40, 40), dtype=complex)
    with pytest.raises(ValueError, match="budget"):
        trace_invariant_naive(T, B)


def test_naive_budget_boundary():
    # exactly the budget is accepted; 17 * 5882353 = 10^8 + 1 is refused
    assert DEFAULT_NAIVE_BUDGET == 100 ** 4
    _check_naive_contraction((100, 100), make_cycle_graph(cycle_11(2)))
    with pytest.raises(ValueError, match=r"1\.000e\+08 scalar terms, over the budget"):
        _check_naive_contraction((17, 5882353), make_cycle_graph(cycle_11(1)))


def test_naive_all_sides_one():
    # one term, t^k conj(t)^k, even where 2k operands would exceed einsum's limit
    t = 0.9 + 0.35j
    B = make_cycle_graph(cycle_11(40))
    value = trace_invariant_naive(np.full((1, 1), t), B)
    assert value == pytest.approx(abs(t) ** 80, rel=1e-12)


def test_naive_size_one_axis_matches_cycle():
    rng = np.random.default_rng(19)
    spec = CycleSpec(k=3, m_colors=frozenset([1, 3]), n_colors=frozenset([2]))
    T = rng.standard_normal((3, 1, 2)) + 1j * rng.standard_normal((3, 1, 2))
    naive = trace_invariant_naive(T, make_cycle_graph(spec))
    assert naive == pytest.approx(trace_invariant_cycle(T, spec), rel=1e-9)


@st.composite
def cycle_cases(draw):
    """A random (m,n)-cycle spec, k = 2-4 and sides 1-4, with at most 10^5
    naive terms, and a complex tensor of those sides.  k is drawn first and
    each side within what the budget leaves at that k; k = 1 builds no Gram
    and has its own test."""
    k, m, n = draw(st.integers(2, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    colors = draw(st.permutations(range(1, m + n + 1)))
    entries = max(p for p in range(1, 10 ** 3) if p ** k <= 10 ** 5)
    dims = ()
    for _ in range(m + n):
        dims += (draw(st.integers(1, min(4, entries // math.prod(dims)))),)
    spec = CycleSpec(k=k, m_colors=frozenset(colors[:m]), n_colors=frozenset(colors[m:]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    T = (rng.standard_normal(dims) + 1j * rng.standard_normal(dims)) * 0.8
    return spec, T


@settings(max_examples=100)
@given(cycle_cases())
def test_property_naive_matches_cycle(case):
    spec, T = case
    naive = trace_invariant_naive(T, make_cycle_graph(spec))
    assert naive == pytest.approx(trace_invariant_cycle(T, spec), rel=1e-9)


@settings(max_examples=100)
@given(cycle_cases(), st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0))
def test_property_naive_homogeneity(case, lam):
    spec, T = case
    B = make_cycle_graph(spec)
    scaled = trace_invariant_naive(lam * T, B)
    assert scaled == pytest.approx(abs(lam) ** (2 * B.k) * trace_invariant_naive(T, B), rel=1e-9)


def test_naive_shape_mismatch():
    B = make_melonic(MelonicRecipe(D=3))
    with pytest.raises(ValueError, match="axes"):
        trace_invariant_naive(np.zeros((2, 2)), B)


def test_cycle_k1_is_frobenius():
    rng = np.random.default_rng(3)
    spec = CycleSpec(k=1, m_colors=frozenset([1]), n_colors=frozenset([2, 3]))
    T = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    assert trace_invariant_cycle(T, spec) == pytest.approx(float(np.sum(np.abs(T) ** 2)), rel=1e-12)


def test_cycle_matches_naive():
    rng = np.random.default_rng(4)
    cases = [
        (cycle_11(2), (3, 3)),
        (cycle_11(3), (3, 3)),
        (CycleSpec(k=2, m_colors=frozenset([1, 2]), n_colors=frozenset([3, 4, 5])), (2,) * 5),
        (CycleSpec(k=2, m_colors=frozenset([2]), n_colors=frozenset([1, 3])), (2, 3, 2)),
        (CycleSpec(k=4, m_colors=frozenset([2]), n_colors=frozenset([1])), (2, 3)),
    ]
    for spec, dims in cases:
        B = make_cycle_graph(spec)
        T = (rng.standard_normal(dims) + 1j * rng.standard_normal(dims)) * 0.7
        naive = trace_invariant_naive(T, B)
        fast = trace_invariant_cycle(T, spec)
        assert fast == pytest.approx(naive, rel=1e-9)


def test_cycle_shape_mismatch():
    spec = cycle_11(2)
    with pytest.raises(ValueError, match="axes"):
        trace_invariant_cycle(np.zeros((2, 2, 2)), spec)


def test_gaussian_exact_mean_k1():
    B = make_melonic(MelonicRecipe(D=3))
    assert gaussian_exact_mean(B, (1, 2, 3), 2) == 2 * 4 * 6


def test_gaussian_exact_mean_cycle():
    B = make_cycle_graph(cycle_11(2))
    for N in (2, 5, 8):
        assert gaussian_exact_mean(B, (1, 1), N) == 2 * N ** 3
    B3 = make_cycle_graph(cycle_11(3))
    for N in (2, 3, 5):
        assert gaussian_exact_mean(B3, (1, 1), N) == 5 * N ** 4 + N ** 2


def test_gaussian_exact_mean_rectangular():
    # k=2, c=(1,2), N=2: tau=id gives 2^2*4, the swap gives 2*4^2
    B = make_cycle_graph(cycle_11(2))
    assert gaussian_exact_mean(B, (1, 2), 2) == 4 * 4 + 2 * 16


def test_gaussian_exact_mean_errors():
    B = make_cycle_graph(cycle_11(2))
    with pytest.raises(ValueError, match="not an integer"):
        gaussian_exact_mean(B, (Fraction(1, 2), 1), 3)
    with pytest.raises(ValueError, match="ratios"):
        gaussian_exact_mean(B, (1,), 3)


def test_gaussian_exact_matches_naive_monte_carlo():
    # Wick oracle against the naive contraction route on a small melonic graph
    B = make_melonic(MelonicRecipe(D=3, steps=((1, 1),)))
    spec = TensorSpec(D=3, c=(1, 1, 1), N=2, distribution="complex_gaussian", seed=31)
    mean, stderr = monte_carlo_mean(spec, B, 4000)
    exact = gaussian_exact_mean(B, (1, 1, 1), 2)
    assert abs(mean - exact) < 4 * stderr


def test_monte_carlo_mean_wick():
    spec = gaussian_spec(2, 8, seed=123)
    mean, stderr = monte_carlo_mean(spec, cycle_11(2), 3000)
    assert abs(mean - 1024) < 4 * stderr
    assert stderr > 0


# K_{3,3} with one color per perfect matching: adjacent vertices share one
# color of three, so every pairwise step of a 3-tensor network holds N^4
# entries, 2^28 at N=128
K33 = ColoredGraph(k=3, sigma=((0, 1, 2), (1, 2, 0), (2, 0, 1)))


def test_monte_carlo_mean_refuses_draws_past_the_double_range():
    # the (1,1)-cycle at k=128, N=64: each draw is near N^129 ~ 1e233, so the
    # power of the Gram overflows to inf, and the standard error is inf - inf
    spec = CycleSpec(k=128, m_colors=frozenset([1]), n_colors=frozenset([2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            monte_carlo_mean(gaussian_spec(2, 64), spec, 4)
    assert str(exc.value) == "the draws left the double range: mean inf, standard error nan"


def test_monte_carlo_network_budget_refused_before_any_draw(no_draw):
    with pytest.raises(ValueError, match="needs a contraction step of 9.223e\\+18 entries, "
                                         f"over the limit of {MAX_TENSOR_ENTRIES}"):
        monte_carlo_mean(gaussian_spec(3, 128), K33, 5)
    B = make_cycle_graph(cycle_11(26))
    with pytest.raises(ValueError, match="needs 53 einsum labels"):
        monte_carlo_mean(gaussian_spec(2, 2), B, 5)


def test_monte_carlo_cycle_colors_refused_before_any_draw(no_draw):
    spec = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2, 3]))
    with pytest.raises(ValueError, match="tensor has 2 axes, graph has D=3 colors"):
        monte_carlo_mean(gaussian_spec(2, 4), spec, 10)
    # a recipe names a graph but is neither kind that has a route
    recipe = MelonicRecipe(D=3, steps=((1, 1),))
    with pytest.raises(TypeError, match="graph must be ColoredGraph or CycleSpec"):
        monte_carlo_mean(gaussian_spec(3, 2), recipe, 10)
    with pytest.raises(TypeError, match="graph must be ColoredGraph or CycleSpec"):
        universality_scan(gaussian_spec(3, 2), recipe, [2], 10)


def test_monte_carlo_network_route_runs_past_the_naive_budget():
    # 2.815e+14 naive terms per sample; the network route agrees with the
    # cycle route on the same draws
    spec = CycleSpec(k=4, m_colors=frozenset([1]), n_colors=frozenset([2, 3]))
    tensor = gaussian_spec(3, 16, seed=9)
    network = monte_carlo_mean(tensor, make_cycle_graph(spec), 5)
    assert network == pytest.approx(monte_carlo_mean(tensor, spec, 5), rel=1e-9)


def test_network_label_limit():
    # k * D' labels, D' counting the sides > 1, plus one for the sample axis
    # of a block of more than one sample: a size-1 side frees k, and a block
    # of one sample frees the sample label
    assert EINSUM_LABELS == 52
    _network_plan((2, 2, 2), make_cycle_graph(cycle_11(25)))
    with pytest.raises(ValueError, match="needs 53 einsum labels"):
        _network_plan((2, 2, 2), make_cycle_graph(cycle_11(26)))
    _network_plan((1, 2, 2), make_cycle_graph(cycle_11(26)))
    _network_plan((2, 2, 1), make_cycle_graph(cycle_11(51)))
    with pytest.raises(ValueError, match="needs 2001 einsum labels"):
        _network_plan((2, 2, 1), make_cycle_graph(cycle_11(2000)))


def test_network_one_sample_blocks_reach_the_label_limit():
    # a D=4, k=13 melonic graph needs exactly 52 labels when each block holds
    # one tensor, as every D=4 block does from N=8 on
    B = make_melonic(random_melonic_recipe(np.random.default_rng(1), 4, 13))
    assert _network_plan((1, 8, 8, 8, 8), B)[2] == 4096
    assert _network_plan((1, 16, 16, 16, 16), B)[2] == 65536
    with pytest.raises(ValueError, match="needs 53 einsum labels"):
        _network_plan((2, 8, 8, 8, 8), B)
    mean, stderr = monte_carlo_mean(gaussian_spec(4, 8, seed=5), B, 4)
    assert math.isfinite(mean) and math.isfinite(stderr) and mean > 0


def test_network_step_limit():
    # one sample: pairwise steps of 64^4 = 2^24 entries fit; five: no pair
    # fits, and greedy's one term-by-term step over 5 * 64^9 = 9.007e+16 is
    # charged: a pairwise step keeps at most 6 of the 9 tensor labels, so
    # no pairwise path reaches that size
    axes, path, largest = _network_plan((1, 64, 64, 64), K33)
    assert (axes, largest) == ((0, 1, 2), 2 ** 24)
    assert all(len(step) == 2 for step in path[1:])
    with pytest.raises(ValueError, match="5 sample\\(s\\) of a 64x64x64 tensor needs a "
                                         "contraction step of 9.007e\\+16 entries"):
        _network_plan((5, 64, 64, 64), K33)


def test_network_shape_mismatch():
    with pytest.raises(ValueError, match="tensor has 2 axes, graph has D=3 colors"):
        trace_invariant_network(np.zeros((2, 2)), K33)


def test_network_all_sides_one():
    t = 0.6 - 0.8j
    assert trace_invariant_network(np.full((1, 1, 1), t), K33) == abs(t) ** 6


@pytest.mark.parametrize("graph, dims", [
    (make_melonic(MelonicRecipe(D=3, steps=((1, 1),))), (2, 2, 2)),
    (make_melonic(MelonicRecipe(D=3, steps=((1, 1), (2, 1)))), (3, 1, 2)),
    (make_cycle_graph(CycleSpec(k=3, m_colors=frozenset([1]), n_colors=frozenset([2, 3]))),
     (2, 3, 2)),
    (K33, (3, 3, 3)),
    (make_cycle_graph(cycle_11(1)), (4, 5)),
], ids=["melonic-k2", "melonic-k3-size-1", "cycle-12", "k33", "k1"])
def test_network_values_stack_is_slice_by_slice(graph, dims):
    stack = sample_tensor(TensorSpec(D=len(dims), c=dims, N=1, distribution="uniform_disc",
                                     seed=4), 0, 30)
    values = _network_values(stack, graph)
    assert values.shape == (30,)
    assert values.tolist() == [trace_invariant_network(T, graph) for T in stack]
    assert values.tolist() == pytest.approx(
        [trace_invariant_naive(T, graph) for T in stack], rel=1e-9)


def test_network_one_sample_block_has_no_sample_label():
    # at N=16 a D=3 block holds one tensor, contracted without the sample
    # label k * D = 9, which _network_plan does not count for it either
    B = ColoredGraph(k=3, sigma=((1, 0, 2), (2, 1, 0), (0, 1, 2)))
    dims, axes, sample = (16, 16, 16), (0, 1, 2), 9
    spec = TensorSpec(D=3, c=(1, 1, 1), N=16, distribution="uniform_disc", seed=7)
    assert block_size(spec) == 1
    stack = sample_tensor(spec, 0, 2)
    one = _network_operands(stack[:1], stack[:1], B, axes)
    assert one[-1] == ()
    for operand, labels in zip(one[:-1:2], one[1:-1:2]):
        assert operand.shape == dims
        assert sample not in labels
    two = _network_operands(stack, stack, B, axes)
    assert two[-1] == (sample,)
    assert all(labels[0] == sample for labels in two[1:-1:2])
    value = _network_values(stack[:1], B)
    assert value.shape == (1,)
    assert value[0] == pytest.approx(_network_values(stack, B)[0], rel=1e-13)


@st.composite
def network_cases(draw):
    """A connected graph with k = 1-3 and D = 1-3, and a stack of 1-3
    complex tensors of sides 1-3 within 10^5 naive terms each."""
    k, D = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    B = ColoredGraph(k=k, sigma=tuple(draw(st.permutations(range(k))) for _ in range(D)))
    assume(is_connected(B))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=D, max_size=D)))
    assume(math.prod(dims) ** k <= 10 ** 5)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (draw(st.integers(1, 3)), *dims)
    return B, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# not isomorphic to its white/black mirror, so each invariant is complex
MIRRORLESS = ColoredGraph(k=3, sigma=((1, 2, 0), (0, 1, 2), (0, 2, 1), (2, 1, 0)))


@settings(max_examples=80)
@given(network_cases())
@example((MIRRORLESS, np.exp(0.3j * np.arange(2 * 16)).reshape(2, 2, 2, 2, 2)))
@example((MIRRORLESS, np.exp(0.3j * np.arange(2 * 4)).reshape(2, 2, 1, 2, 1)))
def test_property_network_matches_naive(case):
    B, stack = case
    expected = [trace_invariant_naive(T, B) for T in stack]
    assert _network_values(stack, B).tolist() == pytest.approx(expected, rel=1e-9, abs=1e-12)


@settings(max_examples=60)
@given(cycle_cases())
def test_property_network_matches_cycle(case):
    spec, T = case
    network = trace_invariant_network(T, make_cycle_graph(spec))
    assert network == pytest.approx(trace_invariant_cycle(T, spec), rel=1e-9)


@pytest.mark.parametrize("D, N, graph, n", [
    (2, 8, cycle_11(2), 200),
    (2, 8, cycle_11(2), 64),
    (3, 2, make_melonic(MelonicRecipe(D=3, steps=((1, 1),))), 1100),
    (2, 64, cycle_11(1), 3),
], ids=["cycle", "cycle-one-block", "naive", "one-per-block"])
def test_monte_carlo_draws_one_block_per_call(monkeypatch, D, N, graph, n):
    # the draw-refusal tests patch tul.tensors.sample_tensor, so that name
    # must be the path every Monte Carlo draw takes
    spec = gaussian_spec(D, N, seed=3)
    expected = monte_carlo_mean(spec, graph, n)
    calls = []

    def recording(*args):
        calls.append(args[1:])
        return sample_tensor(*args)

    monkeypatch.setattr("tul.tensors.sample_tensor", recording)
    assert monte_carlo_mean(spec, graph, n) == expected
    K = block_size(spec)
    assert calls == [(start, min(K, n - start)) for start in range(0, n, K)]
    assert len(calls) == math.ceil(n / K)


def test_monte_carlo_requires_two_samples():
    with pytest.raises(ValueError, match="samples"):
        monte_carlo_mean(gaussian_spec(2, 4), cycle_11(2), 1)


def test_sample_counts_past_the_limit_are_refused_before_any_draw(no_draw):
    # every value is kept until the mean is taken, so the count is bounded
    assert MAX_SAMPLES == 2 ** 25
    with pytest.raises(ValueError, match=f"^{MAX_SAMPLES + 1} samples are over the limit"):
        monte_carlo_mean(gaussian_spec(2, 4), cycle_11(2), MAX_SAMPLES + 1)
    with pytest.raises(ValueError, match=f"^{10 ** 20} samples at N=8 are over the limit"):
        universality_scan(gaussian_spec(2, 4), cycle_11(2), [4, 8], [5, 10 ** 20])


@pytest.mark.parametrize("D, N, graph, contract", [
    (2, 4, cycle_11(2), trace_invariant_cycle),
    (3, 2, make_melonic(MelonicRecipe(D=3, steps=((1, 1),))), trace_invariant_network),
], ids=["cycle", "network"])
def test_monte_carlo_is_one_serial_loop(D, N, graph, contract):
    # sample i is a pure function of (seed, i): the estimate is the plain
    # mean over substreams 0..n-1, and drawing 2n keeps the first n
    spec, n = gaussian_spec(D, N, seed=55), 100
    values = np.array([contract(sample_tensor(spec, i), graph) for i in range(2 * n)])
    for count in (n, 2 * n):
        assert monte_carlo_mean(spec, graph, count) == (
            float(values[:count].mean()),
            float(values[:count].std(ddof=1) / math.sqrt(count)))


def test_monte_carlo_k1_any_distribution():
    for dist in DISTRIBUTIONS:
        spec = TensorSpec(D=2, c=(1, 2), N=4, distribution=dist, seed=8)
        mean, stderr = monte_carlo_mean(spec, CycleSpec(k=1, m_colors=frozenset([1]),
                                                        n_colors=frozenset([2])), 2000)
        # rademacher entries have unit modulus, so the k=1 invariant is constant
        assert abs(mean - 4 * 8) <= 4 * stderr + 1e-10 * 32


def test_universality_scan_report():
    spec = gaussian_spec(2, 4, seed=10)
    report = universality_scan(spec, cycle_11(2), [4, 8], [500, 500])
    assert report.gamma == 3
    assert report.predicted == pytest.approx(2.0)
    assert len(report.rows) == 2
    for row, N in zip(report.rows, (4, 8)):
        assert row.N == N
        assert row.samples == 500
        assert row.normalized == pytest.approx(row.mean / N ** 3, rel=1e-15)
    assert len(margins(report)) == 2
    assert report.graph_id == "cycle(k=2, m_colors=[1], n_colors=[2])"


def test_universality_scan_cycle_name_sorts_its_colors():
    spec = CycleSpec(k=1, m_colors=frozenset({3, 1}), n_colors=frozenset({4, 2}))
    report = universality_scan(gaussian_spec(4, 2, seed=3), spec, [2], 4)
    assert report.graph_id == "cycle(k=1, m_colors=[1,3], n_colors=[2,4])"


def test_universality_scan_predicted_is_one_for_unequal_split():
    spec = gaussian_spec(3, 4, seed=11)
    cyc = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2, 3]))
    report = universality_scan(spec, cyc, [4], 200)
    assert report.predicted == 1.0
    assert report.gamma == 5


def test_universality_scan_flags_biased_rows():
    # at N=4 the subleading 1/N term dwarfs the Monte Carlo error
    spec = gaussian_spec(3, 4, seed=12)
    cyc = CycleSpec(k=2, m_colors=frozenset([1]), n_colors=frozenset([2, 3]))
    report = universality_scan(spec, cyc, [4], 2000)
    assert report.rows[0].flagged


def test_universality_scan_errors():
    spec = gaussian_spec(2, 4)
    with pytest.raises(ValueError, match="N_list"):
        universality_scan(spec, cycle_11(2), [], 100)
    with pytest.raises(ValueError, match="sample counts"):
        universality_scan(spec, cycle_11(2), [4, 8], [100])


def test_universality_scan_N_list_must_be_integers(no_draw):
    # N=4.7 is refused before any draw, never run at N=4
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        universality_scan(gaussian_spec(2, 4), cycle_11(2), [4.7], [3])


def test_universality_scan_sample_counts_must_be_integers(no_draw):
    # 2.9 samples are refused before any draw, never run as 2
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        universality_scan(gaussian_spec(2, 4), cycle_11(2), [4], [2.9])


def test_universality_scan_reads_numpy_integers():
    spec = gaussian_spec(2, 4)
    report = universality_scan(spec, cycle_11(2), [np.int64(4)], [np.int32(3)])
    assert report == universality_scan(spec, cycle_11(2), [4], [3])
    assert (type(report.rows[0].N), type(report.rows[0].samples)) == (int, int)
    # one numpy count is one count for every N, not a per-N sequence
    assert universality_scan(spec, cycle_11(2), [4, 8], np.int64(5)) == \
        universality_scan(spec, cycle_11(2), [4, 8], 5)


INTEGER_FIELDS = {
    "CycleSpec.k": (lambda x: CycleSpec(k=x, m_colors={1}, n_colors={2}), "k", 2),
    "MelonicRecipe.D": (lambda x: MelonicRecipe(D=x), "D", 3),
    "TensorSpec.D": (lambda x: TensorSpec(D=x, c=(1, 1), N=4, distribution="complex_gaussian",
                                          seed=0), "D", 2),
    "TensorSpec.seed": (lambda x: gaussian_spec(2, 4, seed=x), "seed", 1),
}


@pytest.mark.parametrize("build, name, value", INTEGER_FIELDS.values(), ids=INTEGER_FIELDS)
def test_integer_fields_refuse_floats(build, name, value):
    # a float is refused when the spec is built, never later by its consumers;
    # a numpy integer is read as an int
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        build(float(value))
    spec = build(np.int64(value))
    assert spec == build(value)
    assert type(getattr(spec, name)) is int


def test_universality_scan_deterministic():
    spec = TensorSpec(D=2, c=(1, 1), N=4, distribution="uniform_disc", seed=21)
    a = universality_scan(spec, cycle_11(2), [4, 8], 300)
    b = universality_scan(spec, cycle_11(2), [4, 8], 300)
    assert a == b


def test_scan_via_naive_route_on_colored_graph():
    B = make_melonic(MelonicRecipe(D=3, steps=((1, 1),)))
    spec = TensorSpec(D=3, c=(1, 1, 1), N=2, distribution="complex_gaussian", seed=13)
    report = universality_scan(spec, B, [2, 3], 300)
    assert report.gamma == 5
    assert report.predicted == pytest.approx(1.0)
    assert report.graph_id == "graph(k=2, D=3)"


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(14)
    U = random_unitary(rng, 6)
    assert np.allclose(U @ U.conj().T, np.eye(6), atol=1e-12)


def test_apply_unitaries_preserves_norm():
    rng = np.random.default_rng(15)
    T = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    Us = [random_unitary(rng, 3), random_unitary(rng, 4)]
    rotated = apply_unitaries(T, Us)
    assert np.sum(np.abs(rotated) ** 2) == pytest.approx(np.sum(np.abs(T) ** 2), rel=1e-12)


def test_apply_unitaries_dimension_mismatch():
    T = np.zeros((3, 4), dtype=complex)
    with pytest.raises(ValueError, match="shape"):
        apply_unitaries(T, [np.eye(3), np.eye(3)])
    with pytest.raises(ValueError, match="slots"):
        apply_unitaries(T, [np.eye(3)])


def test_unitary_invariance():
    rng = np.random.default_rng(16)
    spec = cycle_11(2)
    T = sample_tensor(gaussian_spec(2, 4, seed=5))
    assert unitary_invariance_check(T, spec, [np.eye(4), np.eye(4)]) == 0.0
    phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=4)))
    assert unitary_invariance_check(T, spec, [phases, np.conj(phases)]) < 1e-12
    Us = [random_unitary(rng, 4), random_unitary(rng, 4)]
    assert unitary_invariance_check(T, spec, Us) < 1e-8


def test_unitary_invariance_naive_route():
    rng = np.random.default_rng(18)
    B = make_melonic(MelonicRecipe(D=3, steps=((3, 1),)))
    spec = TensorSpec(D=3, c=(1, 1, 1), N=3, distribution="uniform_disc", seed=44)
    T = sample_tensor(spec)
    Us = [random_unitary(rng, 3) for _ in range(3)]
    assert unitary_invariance_check(T, B, Us) < 1e-8


@st.composite
def rotated_graphs(draw):
    """A connected graph with k = 1-3 and D = 1-3, a complex tensor of sides
    1-3, and a Haar unitary for every side."""
    k, D = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    B = ColoredGraph(k=k, sigma=tuple(draw(st.permutations(range(k))) for _ in range(D)))
    assume(is_connected(B))
    dims = draw(st.lists(st.integers(1, 3), min_size=D, max_size=D))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    T = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return B, T, [random_unitary(rng, d) for d in dims]


@settings(max_examples=100)
@given(rotated_graphs())
def test_property_unitary_invariance_naive_route(case):
    B, T, Us = case
    assert unitary_invariance_check(T, B, Us) < 1e-8


@settings(max_examples=60)
@given(cycle_cases(), st.integers(0, 2 ** 32 - 1))
def test_property_unitary_invariance_cycle_route(case, seed):
    spec, T = case
    rng = np.random.default_rng(seed)
    assert unitary_invariance_check(T, spec, [random_unitary(rng, d) for d in T.shape]) < 1e-8


def test_tensor_spec_json():
    spec = tensor_spec_from_json_dict({"D": 2, "c": [0.5, 2], "N": 4,
                                       "distribution": "uniform_disc", "seed": 7})
    assert spec.dims == (2, 8)
    assert spec.seed == 7
    spec = tensor_spec_from_json_dict({"D": 1, "c": ["3/2"], "N": 2,
                                       "distribution": "complex_gaussian"})
    assert spec.dims == (3,)
    assert spec.seed == 0
    with pytest.raises(ValueError, match="'N'"):
        tensor_spec_from_json_dict({"D": 1, "c": [1], "distribution": "uniform_disc"})
    with pytest.raises(ValueError, match="c\\[1\\]"):
        tensor_spec_from_json_dict({"D": 1, "c": ["x"], "N": 2, "distribution": "uniform_disc"})
    with pytest.raises(ValueError, match="'seed'"):
        tensor_spec_from_json_dict({"D": 1, "c": [1], "N": 2,
                                    "distribution": "uniform_disc", "seed": "a"})


@st.composite
def tensor_spec_dicts(draw):
    """The JSON form of a valid tensor spec and the exact ratios it holds.
    Each ratio in [1/4, 4] is written as a JSON integer, a 'p/q' string or,
    when its decimal is finite, a JSON number; N is a multiple of every
    denominator, and seed may be left out."""
    ratios = draw(st.lists(st.fractions(Fraction(1, 4), 4, max_denominator=4),
                           min_size=1, max_size=3))
    written = []
    for x in ratios:
        forms = [f"{x.numerator}/{x.denominator}"]
        if x.denominator == 1:
            forms.append(x.numerator)
        elif x.denominator != 3:
            forms.append(float(x))
        written.append(draw(st.sampled_from(forms)))
    N = math.lcm(*(x.denominator for x in ratios)) * draw(st.integers(1, 3))
    data = {"D": len(ratios), "c": written, "N": N,
            "distribution": draw(st.sampled_from(DISTRIBUTIONS))}
    if draw(st.booleans()):
        data["seed"] = draw(st.integers(0, 2 ** 64 - 1))
    return data, tuple(ratios)


@settings(max_examples=100)
@given(tensor_spec_dicts())
def test_property_tensor_spec_json_is_read_exactly(case):
    data, ratios = case
    spec = tensor_spec_from_json_dict(json.loads(json.dumps(data)))
    assert spec == TensorSpec(D=len(ratios), c=ratios, N=data["N"],
                              distribution=data["distribution"], seed=data.get("seed", 0))
    assert spec.c == ratios and spec.dims == tuple(int(x * data["N"]) for x in ratios)


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=2)
# decimal texts, some with exponents far beyond what a Fraction can build quickly
RATIO_TEXTS = st.from_regex(r"\A-?[0-9]{1,3}(\.[0-9]{1,3})?([eE][-+]?[0-9]{1,9})?\Z")


@settings(max_examples=100)
@given(tensor_spec_dicts(), st.sampled_from([None, "D", "c", "N", "distribution", "seed"]),
       JSON_VALUES | RATIO_TEXTS)
def test_property_tensor_spec_json_is_read_or_refused(case, field, junk):
    # a valid spec, as is or with one field or its first ratio replaced by
    # any JSON value, gives a tensor spec or a ValueError, never another
    # exception
    data, _ = case
    if field == "c":
        data["c"][0] = junk
    elif field:
        data[field] = junk
    try:
        spec = tensor_spec_from_json_dict(data)
    except ValueError:
        return
    assert (spec.D, spec.N, spec.distribution) == (data["D"], data["N"], data["distribution"])
    assert spec.seed == data.get("seed", 0) and len(spec.c) == len(spec.dims) == spec.D
