import ast
import collections
import itertools
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitlab as q
from qubitlab.linalg import (
    BadDimensionError,
    DimensionCapError,
    MalformedOperatorError,
    NotPositiveError,
    WrongTraceError,
)
from qubitlab.states import SourceExhaustedError, _fold

from conftest import block_level_oracle, block_markers_oracle, entropy_oracle, random_density_oracle


# --- tracial ------------------------------------------------------------------


def test_tracial_levels_and_entropy():
    t = q.tracial_state(20)
    assert np.allclose(t.density(1).probs, [0.5, 0.5])
    for n in range(1, 21):
        assert t.entropy(n) == pytest.approx(n, abs=1e-12)
    report = q.check_coherence(t, 20, 1e-12)
    assert report.passed and all(dev == 0.0 for _, dev in report.deviations)


# --- pure bitstring -----------------------------------------------------------


def test_pure_bitstring_levels():
    s = q.pure_bitstring_state("000000", 6)
    assert np.allclose(s.density(2).probs, [1, 0, 0, 0])
    z = q.pure_bitstring_state("0110100110", 10)
    for n in range(1, 11):
        assert z.entropy(n) == 0.0
    assert q.check_coherence(z, 10, 1e-15).passed


def test_pure_bitstring_index_convention():
    # first bit is the most significant index bit
    s = q.pure_bitstring_state("10", 2)
    assert np.allclose(s.density(2).probs, [0, 0, 1, 0])


def test_pure_bitstring_bit_sources():
    ints = q.pure_bitstring_state([0, 1, 1, 0], 4)
    assert ints.spec["bits"] == "0110"
    assert np.array_equal(ints.density(4).probs, np.eye(16)[0b0110])
    with pytest.raises(ValueError, match="only 0 and 1"):
        q.pure_bitstring_state("012", 3)
    with pytest.raises(TypeError, match="string or an iterable"):
        q.pure_bitstring_state(5, 1)


def test_pure_bitstring_entries_must_equal_0_or_1():
    # a fractional entry once truncated (0.7 read as 0, 1.9 as 1) and NaN raised numpy's
    # own conversion error; both now get the bit-source ValueError, and booleans still count
    for bits in ([0.7, 1.9], [0, float("nan")], ["0", "1"], [2, 0]):
        with pytest.raises(ValueError, match="only 0 and 1"):
            q.pure_bitstring_state(bits, 2)
    state = q.pure_bitstring_state([True, 0], 2)
    assert state.spec["bits"] == "10"
    assert np.array_equal(state.density(2).probs, np.eye(4)[0b10])


def test_pure_bitstring_source_exhausted():
    with pytest.raises(SourceExhaustedError):
        q.pure_bitstring_state("0101", 10)
    assert len(q.prng_bits(30, 7)) == 30
    assert q.prng_bits(30, 7) == q.prng_bits(30, 7)


# --- block state ----------------------------------------------------------------


def test_block_checkpoint_values():
    assert [q.block_checkpoint(m) for m in (1, 2, 3)] == [2, 5, 9]
    assert q.block_checkpoint(8) == 44


def test_block_state_entropy_profile():
    b = q.block_state(44)
    assert b.entropy(9) == pytest.approx(6.0, abs=1e-12)  # checkpoint m=3
    for m in range(1, 9):
        n = q.block_checkpoint(m)
        assert b.entropy(n) == pytest.approx(n - m, abs=1e-10)
    # strictly between checkpoints: depth minus completed blocks minus 1
    for n in range(1, 45):
        m = max(k for k in range(0, 9) if q.block_checkpoint(k) <= n)
        expected = n - m if q.block_checkpoint(m) == n else n - m - 1
        assert b.entropy(n) == pytest.approx(expected, abs=1e-10)


def test_block_state_checkpoint_ratio_climbs():
    b = q.block_state(44)
    ratios = [b.entropy(q.block_checkpoint(m)) / q.block_checkpoint(m) for m in range(1, 9)]
    assert all(y > x for x, y in zip(ratios, ratios[1:]))


def test_block_state_coherence_deep_and_materialised():
    b = q.block_state(44)
    report = q.check_coherence(b, 44, 1e-10)
    assert report.passed
    # cross-check the factored representation against the definition
    for n in range(1, 15):
        mat = b.density(n).probs
        assert np.array_equal(mat, block_level_oracle(n))
        assert b.entropy(n) == pytest.approx(entropy_oracle(mat), abs=1e-10)


def test_block_state_deep_entropy_is_depth_minus_markers():
    b = q.block_state(1000)
    marks = [j for j, f in enumerate(b.diag_factors(1000)) if f[1] == 0.0]
    assert marks == block_markers_oracle(1000)
    profile = q.entropy_profile(b, 1000)
    assert [h for _, h, _ in profile.entries] == [
        n - len(block_markers_oracle(n)) for n in range(1, 1001)
    ]
    assert profile.entries[-1][:2] == (1000, 956)


def test_block_state_entropy_profile_to_100_000_is_a_lookup_per_level():
    start = time.perf_counter()
    profile = q.entropy_profile(q.block_state(100_000), 100_000)
    assert time.perf_counter() - start < 2.0
    # H = n - B(n), B(n) the markers before qubit n: at marker b's depth B is b
    markers = block_markers_oracle(100_000)
    assert len(markers) == 446
    for b, n in enumerate(markers[1:], 1):
        assert profile.entries[n - 1][:2] == (n, n - b)
    assert profile.entries[-1][:2] == (100_000, 100_000 - 446)


@pytest.mark.parametrize("depth, want", [(300, [26, 28]), (1100, [48, 50])])
def test_block_state_deep_ui_moduli(depth, want):
    # B(n) + ceil(log2(1/delta)); 0.5 and 0.25 would be exact ties
    deltas = [0.3, 0.1]
    profile = q.ui_profile(q.step_family(q.block_state(depth), depth), deltas, depth)
    markers = len(block_markers_oracle(depth))
    assert [markers + math.ceil(math.log2(1 / d)) for d in deltas] == want
    assert [e.modulus for e in profile.entries] == want


def test_block_state_coherence_deep_is_cheap():
    start = time.perf_counter()
    report = q.check_coherence(q.block_state(300), 300, 1e-12)
    assert time.perf_counter() - start < 1.0
    assert report.passed and all(dev == 0.0 for _, dev in report.deviations)


def test_block_state_materialisation_cap():
    b = q.block_state(44)
    with pytest.raises(DimensionCapError):
        b.density(30)


def test_tracial_and_block_states_answer_at_a_billion_qubits():
    # one run per repeated block: neither state holds a table of 10^9 entries
    start = time.perf_counter()
    assert q.tracial_state(10**9).entropy(10**9) == 1e9
    # the last checkpoint c(m) <= 10^9 closes block m - 1, after m markers: H = c(m) - m
    m = math.isqrt(2 * 10**9)
    while q.block_checkpoint(m) > 10**9:
        m -= 1
    assert q.block_state(10**9).entropy(q.block_checkpoint(m)) == q.block_checkpoint(m) - m
    assert time.perf_counter() - start < 1.0


# --- tensor powers ----------------------------------------------------------------


def test_tensor_power_of_uniform_is_tracial():
    t = q.tensor_power_state(q.DensityOperator.diagonal(np.array([0.5, 0.5])), 12)
    tr = q.tracial_state(12)
    for n in (1, 5, 12):
        assert np.allclose(t.density(n).probs, tr.density(n).probs)


def test_tensor_power_entropy_additive_diag():
    base = q.DensityOperator.diagonal(np.array([0.9, 0.1]))
    s = q.tensor_power_state(base, 24)
    h = entropy_oracle([0.9, 0.1])
    for n in range(1, 25):
        assert s.entropy(n) == pytest.approx(n * h, abs=1e-9)
    assert q.check_coherence(s, 24, 1e-10).passed


def test_tensor_power_rate_estimate_binary_entropy():
    base = q.DensityOperator.diagonal(np.array([0.9, 0.1]))
    s = q.tensor_power_state(base, 24)
    profile = q.entropy_profile(s, 24)
    est = q.entropy_rate_estimate(profile, 9)  # trailing n = 16..24
    assert est.n_lo == 16 and est.n_hi == 24
    assert est.value == pytest.approx(entropy_oracle([0.9, 0.1]), abs=0.02)


def test_tensor_power_dense_path(rng):
    base = random_density_oracle(rng, 2)
    s = q.tensor_power_state(base, 7)
    assert q.check_coherence(s, 7, 1e-8).passed
    h = q.von_neumann_entropy(base)
    assert s.entropy(6) == pytest.approx(3 * h, abs=1e-8)
    # off-multiple depths come from tracing the next full power
    assert s.density(5).qubits == 5


def test_tensor_power_dense_cap_at_construction():
    # construction takes any depth; the dense cap stops only the queries that hold a level
    base = q.DensityOperator.dense(np.eye(4, dtype=complex) / 4)
    raw = q.StateSequence("raw", 13, factors=[base.matrix] * 7)
    assert q.tracial_state(13).level_cap == 24 and raw.level_cap == 12
    for state in (q.tensor_power_state(base, 13), raw):
        assert state.entropy(13) == 13.0 and state.top_k_mass(13, 1 << 12) == 0.5
        g = q.Projection.from_factors([(13, [0, 5])])
        for query in (state.density, state.eigensystem, state.spectrum,
                      lambda n: q.state_weight(state, n, g)):
            with pytest.raises(DimensionCapError, match="dense cap 12"):
                query(13)


_UNITS = st.one_of(
    st.floats(-1e3, 1e3),
    st.builds(math.ldexp, st.integers(1, 2**20), st.integers(-60, 0)),  # dyadic: ties
    st.sampled_from([1.0, 0.0]),
)
_STARTS = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(1e6, 1e15), st.floats(0.0, 100.0))


@settings(max_examples=300, deadline=None)
@given(_STARTS, _UNITS, st.integers(0, 10**5))
def test_the_run_fold_equals_a_left_to_right_sum_bitwise(start, h, count):
    want = collections.deque(itertools.accumulate(itertools.repeat(h, count), initial=start), 1)[0]
    assert _fold(start, h, count).hex() == want.hex()


# --- profiles and estimates ---------------------------------------------------------


def test_entropy_profile_shapes():
    p = q.entropy_profile(q.tracial_state(8), 8)
    assert p.ratios() == pytest.approx([1.0] * 8)
    z = q.entropy_profile(q.pure_bitstring_state("0" * 8, 8), 8)
    assert z.ratios() == pytest.approx([0.0] * 8)
    est = q.entropy_rate_estimate(p, 3)
    assert est.value == 1.0 and est.window == 3
    with pytest.raises(ValueError):
        q.entropy_rate_estimate(p, 9)


# --- measure-induced states -----------------------------------------------------------


def test_uniform_density_gives_tracial():
    spec = q.DensitySpec(
        density=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        antiderivative=lambda x: np.asarray(x, dtype=float),
        name="uniform",
    )
    s = q.measure_state(spec, 10)
    tr = q.tracial_state(10)
    for n in (1, 4, 10):
        assert np.allclose(s.density(n).probs, tr.density(n).probs, atol=1e-15)


def test_log_power_cylinder_masses_closed_form():
    f2 = q.log_power_density(2)
    # mass of the left half-interval: antiderivative at 1/2
    assert f2.cylinder_masses(1)[0] == pytest.approx(1 / (1 + math.log(2)), abs=1e-12)
    f1 = q.log_power_density(3)
    assert float(f1.cylinder_masses(8).sum()) == pytest.approx(1.0, abs=1e-12)
    assert float(f2.cylinder_masses(12).sum()) == pytest.approx(1.0, abs=1e-12)


def test_log_power_antiderivative_consistent_with_density():
    # finite differences of the antiderivative recover the density
    for p in (2.0, 3.0):
        spec = q.log_power_density(p)
        xs = np.array([0.1, 0.3, 0.5, 0.9])
        h = 1e-7
        fd = (spec.antiderivative(xs + h) - spec.antiderivative(xs - h)) / (2 * h)
        assert np.allclose(fd, spec.density(xs), rtol=1e-5)


def test_measure_state_splits_are_exact():
    spec = q.log_power_density(2)
    s = q.measure_state(spec, 14)
    for n in (5, 10, 13):
        parent = s.density(n).probs
        child = s.density(n + 1).probs
        assert np.abs(child.reshape(-1, 2).sum(axis=1) - parent).max() <= 1e-12


def test_measure_state_quadrature_path_matches_closed_form():
    # density 2x integrates each cylinder to b^2 - a^2; no antiderivative given
    spec = q.DensitySpec(density=lambda x: 2.0 * x, name="linear-ramp")
    s = q.measure_state(spec, 8)
    masses = s.density(8).probs
    xs = np.linspace(0, 1, 257)
    assert np.abs(masses - np.diff(xs**2)).max() < 1e-10
    # each level integrates its own cells, and quadrature of 2x is exact to rounding
    assert q.check_coherence(s, 8, 1e-15).passed


def test_measure_state_from_cylinder_callable():
    # cylinder masses go through explicit_state, which checks their coherence
    with pytest.raises(TypeError, match="spec must be a DensitySpec"):
        q.measure_state(lambda sigma: 2.0 ** -len(sigma), 6, name="uniform-cyl")


def test_incoherent_cylinder_masses_are_refused():
    # level 1 is [0.99, 0.01], but every deeper level is uniform
    def masses(n):
        return np.array([0.99, 0.01]) if n == 1 else np.full(1 << n, 2.0**-n)

    unchecked = q.StateSequence("probe", 6, lambda n: q.DensityOperator.diagonal(masses(n)))
    assert q.check_coherence(unchecked, 6).deviations[0] == (2, pytest.approx(0.49))
    with pytest.raises(TypeError, match="spec must be a DensitySpec"):
        q.measure_state(lambda sigma: masses(len(sigma))[int(sigma, 2)], 6)
    levels = [q.DensityOperator.diagonal(masses(n)) for n in range(1, 7)]
    with pytest.raises(ValueError, match="levels 1 and 2 of 'probe' are not coherent"):
        q.explicit_state("probe", levels)


def test_density_must_normalise():
    with pytest.raises(q.linalg.WrongTraceError):
        q.DensitySpec(density=lambda x: 2.0 * np.ones_like(np.asarray(x, float)), name="double")


# --- coherence reports ------------------------------------------------------------------


def test_check_coherence_negative_control():
    levels = [
        q.DensityOperator.diagonal(np.array([0.5, 0.5])),
        q.DensityOperator.diagonal(np.array([0.25, 0.25, 0.25, 0.25])),
        q.DensityOperator.diagonal(np.array([0.5, 0.0, 0.25, 0.0, 0.25, 0.0, 0.0, 0.0])),
    ]
    broken = q.StateSequence("broken", 3, lambda n: levels[n - 1])
    report = q.check_coherence(broken, 3, 1e-8)
    assert not report.passed
    assert report.first_failure == 3


def _probe_levels(first):
    """Level 1 is ``first``; levels 2-6 are uniform, so level 2 traces to [1/2, 1/2]."""
    return [q.DensityOperator.diagonal(np.array(first))] + [
        q.DensityOperator.diagonal(np.full(1 << n, 2.0**-n)) for n in range(2, 7)]


def _listed_sup_moduli(levels, deltas):
    """Smallest m with max over n >= m of the top 2^(n-m) mass at most delta."""
    probs = [np.sort(d.probs)[::-1] for d in levels]
    sups = [max(p[: 1 << (n - m)].sum() for n, p in enumerate(probs, 1) if n >= m)
            for m in range(1, len(levels) + 1)]
    return [next(m for m, s in enumerate(sups, 1) if s <= d) for d in deltas]


def test_explicit_state_refuses_incoherent_levels():
    # the sup over these listed levels is 0.99 at m = 1 and 1/4 at m = 2, so
    # moduli 2 and 2; one query at depth 6 alone would read 1 and 1
    levels = _probe_levels([0.99, 0.01])
    assert _listed_sup_moduli(levels, [0.9, 0.5]) == [2, 2]
    with pytest.raises(ValueError, match="levels 1 and 2 of 'probe' are not coherent"):
        q.explicit_state("probe", levels)
    coherent = _probe_levels([0.5, 0.5])
    profile = q.ui_profile(q.step_family(q.explicit_state("probe", coherent), 6), [0.9, 0.5], 6)
    assert [e.modulus for e in profile.entries] == _listed_sup_moduli(coherent, [0.9, 0.5])


# --- factored states: one block sequence, each level a prefix ----------------------


def test_a_factors_callable_is_refused():
    half = np.array([0.5, 0.5])
    with pytest.raises(TypeError, match="sequence of blocks, not a callable"):
        q.StateSequence("callable", 4, factors=lambda n: [half] * n)


@pytest.mark.parametrize(
    "blocks, error",
    [
        ([[np.nan, 1.0]], MalformedOperatorError),
        ([[1.25, -0.25]], NotPositiveError),
        ([[0.6, 0.6]], WrongTraceError),
        ([[0.5, 0.25, 0.25]], BadDimensionError),
        ([[1.0]], BadDimensionError),  # a block on no qubit
        ([], BadDimensionError),  # the sequence stops at qubit 3, before max_depth 4
    ],
)
def test_bad_block_sequences_are_refused_at_construction(blocks, error):
    half = np.array([0.5, 0.5])
    factors = [half, half, *map(np.array, blocks), half]
    with pytest.raises(error):
        q.StateSequence("bad", 4, factors=factors)


def test_factored_coherence_matches_a_materialised_twin():
    # one entry nudged by 4e-9: every odd level n misses its parent by
    # sup(head) * 4e-9, and every even level traces exactly
    probs = np.array([0.4, 0.3, 0.2, 0.1 + 4e-9])
    s = q.tensor_power_state(q.DensityOperator.diagonal(probs), 16)
    twin = q.StateSequence("twin", 16, lambda n: s.density(n))
    for depth in range(2, 17):
        factored = q.check_coherence(s, depth).deviations
        materialised = q.check_coherence(twin, depth).deviations
        assert [n for n, _ in factored] == [n for n, _ in materialised]
        assert all(abs(a - b) <= 1e-15 for (_, a), (_, b) in zip(factored, materialised))
    assert all((dev > 0.0) == (n % 2 == 1) for n, dev in factored)
    assert factored[1] == (3, pytest.approx(0.4 * 4e-9, rel=1e-6))


def test_factored_state_ui_moduli_equal_the_sup_over_its_levels():
    # the probe's level 1 heads a block sequence, so its uniform levels
    # follow from it: the one query at depth 6 reads the listed sup
    s = q.StateSequence("probe", 6, factors=[np.array([0.99, 0.01])] + [np.array([0.5, 0.5])] * 5)
    assert q.check_coherence(s, 6).passed
    levels = [s.density(n) for n in range(1, 7)]
    profile = q.ui_profile(q.step_family(s, 6), [0.9, 0.5], 6)
    assert [e.modulus for e in profile.entries] == _listed_sup_moduli(levels, [0.9, 0.5]) == [2, 2]


def test_a_callers_block_written_after_construction_reaches_no_level():
    b = np.array([0.5, 0.5])
    pair = np.array([0.4, 0.3, 0.2, 0.1])
    s = q.StateSequence("t", 4, factors=[b] * 4)
    mixed = q.StateSequence("mixed", 5, factors=[b, pair, pair])
    assert s.entropy(3) == 3.0
    b[:] = [1.0, 0.0]
    pair[:] = [1.0, 0.0, 0.0, 0.0]
    assert b.flags.writeable  # the caller's array is copied, not frozen
    assert [s.entropy(n) for n in range(1, 5)] == [1.0, 2.0, 3.0, 4.0]
    assert np.array_equal(s.density(2).probs, [0.25] * 4)
    h = s.histogram(3)
    assert (h.values, h.multiplicities) == ((0.125,), (8,))
    assert q.check_coherence(s, 4).deviations == ((2, 0.0), (3, 0.0), (4, 0.0))
    # qubit 4 is half of the second 2-qubit block, traced from the held copy
    kept = np.kron(np.kron([0.5, 0.5], [0.4, 0.3, 0.2, 0.1]), [0.4 + 0.3, 0.2 + 0.1])
    assert np.array_equal(mixed.density(4).probs, kept)
    assert mixed.entropy(4) == pytest.approx(entropy_oracle(kept), abs=1e-12)
    assert mixed.entropy(5) == pytest.approx(1.0 + 2 * entropy_oracle([0.4, 0.3, 0.2, 0.1]), abs=1e-12)


def test_blocks_from_a_generator_are_each_held():
    # fresh arrays made one at a time: each must stay alive to keep its own id
    s = q.StateSequence("gen", 40, factors=(np.array([0.7, 0.3]) for _ in range(40)))
    assert s.entropy(40) == pytest.approx(40 * entropy_oracle([0.7, 0.3]), rel=1e-12)
    assert np.array_equal(s.density(2).probs, np.kron([0.7, 0.3], [0.7, 0.3]))


@pytest.mark.parametrize("make, depth", [
    (lambda: q.tracial_state(40), 40),
    (lambda: q.pure_bitstring_state("0110" * 10, 40), 40),
    (lambda: q.block_state(40), 40),
    (lambda: q.tensor_power_state(q.DensityOperator.diagonal(np.array([0.4, 0.3, 0.2, 0.1])), 40), 40),
], ids=["tracial", "pure", "block", "power"])
def test_factored_blocks_are_read_only(make, depth):
    blocks = make().diag_factors(depth)
    assert len(blocks) >= 20 and not any(f.flags.writeable for f in blocks)
    with pytest.raises(ValueError, match="read-only"):
        blocks[0][0] = 1.0


def test_quadrature_levels_do_not_depend_on_access_order():
    def sine(x):
        return 1.0 + 0.5 * np.sin(2 * np.pi * x)

    for n in range(1, 6):
        fresh = q.measure_state(q.DensitySpec(density=sine, name="sine"), 10)
        warm = q.measure_state(q.DensitySpec(density=sine, name="sine"), 10)
        warm.density(n + 3)
        assert warm.density(n).probs.tobytes() == fresh.density(n).probs.tobytes(), n


def test_state_sequence_depth_bounds():
    t = q.tracial_state(5)
    with pytest.raises(q.linalg.BadDimensionError):
        t.density(6)
    with pytest.raises(q.linalg.BadDimensionError):
        t.density(0)


def test_no_module_but_states_reads_a_state_private():
    # how a level is held is known only inside `states`: other modules ask public names
    power = q.tensor_power_state(random_density_oracle(np.random.default_rng(5), 1), 3)
    explicit = q.explicit_state("e", [q.tracial_state(2).density(1), q.tracial_state(2).density(2)])
    live = [q.tracial_state(3), power, q.measure_state(q.log_power_density(3), 3), explicit]
    private = {a for s in live for a in [*vars(s), *dir(type(s))] if a[0] == "_" and a[-2:] != "__"}
    src = Path(q.__file__).parent
    reads = [f"{path.name}:{node.lineno} ({node.attr})" for path in sorted(src.glob("*.py"))
             if path.name != "states.py" for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert not reads


def test_state_sequence_thread_safe_memoisation():
    s = q.block_state(20)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: s.density(12).probs.sum(), range(32)))
    assert all(r == results[0] for r in results)
    # the level and spectrum memos: every racer gets the stored level or
    # spectrum; fresh states give the race several chances to show a lost update
    factor = random_density_oracle(np.random.default_rng(3), 2)
    # a run's fold memo: racing entropy queries, up and down one run, each read a sum that
    # is bitwise the left-to-right one, whichever query's point they fold on from
    depths = np.random.default_rng(4).permutation(np.arange(1, 10**6, 997)).tolist()
    want = {n: q.tensor_power_state(factor, 10**6).entropy(n) for n in depths}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            deep = q.tensor_power_state(factor, 10**6)
            with ThreadPoolExecutor(max_workers=8) as pool:
                assert list(pool.map(deep.entropy, depths, timeout=60)) == [want[n] for n in depths]
            fresh = q.block_state(20)
            with ThreadPoolExecutor(max_workers=8) as pool:
                levels = list(pool.map(lambda _: fresh.density(14), range(32), timeout=60))
            assert all(d is levels[0] for d in levels)
            dense = q.tensor_power_state(factor, 6)
            with ThreadPoolExecutor(max_workers=8) as pool:
                spectra = list(pool.map(lambda _: dense.spectrum(6), range(32), timeout=60))
            assert all(w is spectra[0] for w in spectra)
    finally:
        sys.setswitchinterval(interval)
    # a dense power's spectrum is the sorted product of its factor's: bitwise a fresh
    # state's, and eigh's of the materialised level within rounding
    assert np.array_equal(spectra[0], q.tensor_power_state(factor, 6).spectrum(6))
    assert np.abs(spectra[0] - q.eigendecompose(dense.density(6)).eigenvalues).max() <= 1e-14


def _log_power_masses_reference(p: float, depth: int) -> np.ndarray:
    """Antiderivative-branch masses as first written: masked copies, np.diff, np.clip."""
    xs = np.linspace(0.0, 1.0, (1 << depth) + 1)
    big_f = np.zeros_like(xs)
    pos = xs > 0
    big_f[pos] = (1.0 - np.log(xs[pos])) ** (1.0 - p)
    return np.clip(np.diff(big_f), 0.0, None)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0])
def test_cylinder_masses_bitwise_equal_to_reference(p):
    spec = q.log_power_density(p)
    for depth in (1, 2, 9, 16):
        got = spec.cylinder_masses(depth)
        assert got.tobytes() == _log_power_masses_reference(p, depth).tobytes(), depth
    x = np.array([-1.0, 0.0, 1e-300, 0.5, 1.0])
    assert np.array_equal(spec.antiderivative(x)[:2], [0.0, 0.0])
    assert spec.antiderivative(x)[2:].tolist() == pytest.approx(
        [(1.0 - math.log(v)) ** (1.0 - p) for v in x[2:]], rel=1e-14
    )


def test_cylinder_masses_peak_memory_at_depth_20():
    import tracemalloc

    spec = q.log_power_density(2)
    tracemalloc.start()
    try:
        masses = spec.cylinder_masses(20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert masses.size == 1 << 20
    assert peak <= 2.5 * masses.nbytes, peak / masses.nbytes


def test_a_scan_past_the_level_cap_never_asks_the_generator():
    # the one cap, level_cap, refuses before a hand-written generator is called
    tracial = q.tracial_state(24)

    def level(n):
        if n > 24:
            raise AssertionError(f"the generator was asked for {n} qubits")
        return tracial.density(n)

    state = q.StateSequence("hand", 40, level)
    assert state.level_cap == 24
    for scan in (q.entropy_profile, q.step_family):
        with pytest.raises(DimensionCapError, match="cannot materialise 30 qubits past the diagonal cap 24"):
            scan(state, 30)
    assert not state._cache and not state._spectra and not state._values
