"""Spectrum histograms of factored levels, and builders that materialise only what they emit."""

import functools
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import qubitlab as q
from qubitlab.dyadic import rank_ceil, rank_floor
from qubitlab.linalg import DimensionCapError, SpectrumHistogram
from qubitlab.serialize import state_to_json
from qubitlab.states import BLOCK_QUBIT_CAP, _Block, _power_histogram

from conftest import binomial_top_sum_oracle


def _diag_power(probs, depth):
    return q.tensor_power_state(q.DensityOperator.diagonal(np.array(probs)), depth)


FACTORED = {
    "tracial": lambda d: q.tracial_state(d),
    "pure": lambda d: q.pure_bitstring_state(q.prng_bits(d, seed=3), d),
    "block": lambda d: q.block_state(d),
    "power-2": lambda d: _diag_power([0.7, 0.3], d),
    "power-4": lambda d: _diag_power([0.4, 0.3, 0.2, 0.1], d),
    "power-2-of-4": lambda d: _diag_power([0.35, 0.35, 0.15, 0.15], d),
    "power-zeros": lambda d: _diag_power([0.6, 0.4, 0.0, 0.0], d),
}


def _ranks(n: int) -> list[int]:
    ks = {1, 1 << n} | {1 << j for j in range(n + 1)}
    ks |= {rank_ceil(n, Fraction(a, 4)) for a in (1, 2, 3)}
    return sorted(k for k in ks if k <= 1 << n)


@pytest.mark.parametrize("key", sorted(FACTORED))
def test_histogram_top_k_matches_materialised_spectrum(key):
    state = FACTORED[key](20)
    for n in range(1, 21):
        hist = state.histogram(n)
        assert hist is state.histogram(n)
        if n >= 4:
            assert isinstance(hist, SpectrumHistogram), n
        spec = q.eigendecompose(state.density(n))
        if hist is not None:
            assert hist.qubits == n
            assert list(hist.values) == sorted(hist.values, reverse=True)
            assert all(v > 0.0 for v in hist.values)
            # exact integer count of the nonzero eigenvalues
            assert sum(hist.multiplicities) == int(np.count_nonzero(spec.eigenvalues))
        for k in _ranks(n):
            want = q.top_k_sum(spec, k)
            assert abs(state.top_k_mass(n, k) - want) <= 1e-12, (n, k)
            if hist is not None:
                assert abs(q.top_k_sum(hist, k) - want) <= 1e-12, (n, k)


def _dense_two_qubit_factor():
    rng = np.random.default_rng(29)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return q.DensityOperator.dense(g @ g.conj().T / np.trace(g @ g.conj().T).real)


#: (state maker, deepest depth checked against a decomposed level): a dense level's eigh
#: costs 1.5 s at 10 qubits and about 40 s at 12
BLOCK_SOURCES = {
    "tracial": (lambda d: q.tracial_state(d), 12),
    "pure": (lambda d: q.pure_bitstring_state(q.prng_bits(d, seed=5), d), 12),
    "block": (lambda d: q.block_state(d), 12),
    "power-0.9": (lambda d: _diag_power([0.9, 0.1], d), 12),
    "power-3-valued": (lambda d: _diag_power([0.5, 0.2, 0.2, 0.1], d), 12),
    "dense-power": (lambda d: q.tensor_power_state(_dense_two_qubit_factor(), d), 10),
}


@pytest.mark.parametrize("key", sorted(BLOCK_SOURCES))
def test_block_levels_are_never_built_to_be_decomposed(key):
    make, depth = BLOCK_SOURCES[key]
    state, twin = make(12), make(12)
    for n in range(1, depth + 1):
        want = q.eigendecompose(twin.density(n))
        assert np.abs(state.spectrum(n) - want.eigenvalues).max() <= 1e-14, n
        spec = state.eigensystem(n)
        for k in sorted({1, 2, 1 << (n // 2), (1 << n) - 1, 1 << n} - {0}):
            got, ref = q.top_k_projector(spec, k), q.top_k_projector(want, k)
            if ref.matrix is None:
                assert got == ref, (n, k)
            elif k == 1 << n or want.eigenvalues[k - 1] - want.eigenvalues[k] > 1e-6:
                # a k inside a (near-)degenerate eigenspace has no one projector; past a gap g
                # the eigh's rounding moves it by about 1e-16 dim / g (Davis-Kahan)
                assert np.abs(got.matrix - ref.matrix).max() <= 1e-8, (n, k)
    q.entropy_profile(state, 12)
    q.ui_profile(q.step_family(state, 12), [0.5, 0.25, 0.1], 12)
    q.build_ui_test(state, "1/2", 4, 8)
    q.build_entropy_deficiency_test(state, "1/2", "1/2", 4, 8)
    assert not state._cache


def test_a_block_that_misses_sum_one_within_tolerance_answers_top_k():
    # validation allows a sum 1 + 5e-9; the kept mass is then (1 + 5e-9)^n, not 1
    f = np.array([0.6, 0.4 + 5e-9])
    state = q.StateSequence("near-one", 8, factors=[f] * 8)
    for n in range(1, 9):
        want = np.cumsum(np.sort(functools.reduce(np.kron, [f] * n))[::-1])
        for k in range(1, (1 << n) + 1):
            assert abs(state.top_k_mass(n, k) - want[k - 1]) <= 1e-12, (n, k)
    profile = q.ui_profile(q.step_family(state, 8), [0.5, 0.25, 0.1], 8)
    assert len(profile.entries) == 3 and not state._cache


@pytest.mark.parametrize("p0", [0.9, 0.6])
def test_power_histogram_matches_binomial_oracle_to_depth_200(p0):
    state = _diag_power([p0, 1.0 - p0], 200)
    for n in range(1, 201):
        # one qubit has 2 = 2^1 eigenvalues, so only level 1 reads its spectrum
        assert n == 1 or len(state.histogram(n).values) == n + 1
        ks = {1, 1 << n, max(rank_floor(n, Fraction(3, 10)), 1)}
        ks |= {1 << (n - m) for m in (1, 2, n // 2) if m <= n}
        for k in sorted(ks):
            want = binomial_top_sum_oracle(p0, 1.0 - p0, n, k)
            assert abs(state.top_k_mass(n, k) - want) <= 1e-12, (n, k)
    # no level is built: level 1 reads its sorted block values alone
    assert not state._cache and not state._spectra and set(state._values) == {1}


def test_histogram_size_fallback_and_none_without_factors():
    # one copy of a 4-valued 2-qubit factor has 4 = 2^2 entries: no saving
    power = _diag_power([0.4, 0.3, 0.2, 0.1], 4)
    assert power.histogram(2) is None
    assert power.top_k_mass(2, 1) == q.top_k_sum(power.eigensystem(2), 1)
    want = q.top_k_sum(q.eigendecompose(power.density(2)), 1)
    assert abs(power.top_k_mass(2, 1) - want) <= 1e-15
    assert isinstance(power.histogram(4), SpectrumHistogram)
    measure = q.measure_state(q.log_power_density(2), 6)
    assert measure.histogram(6) is None
    assert measure.top_k_mass(6, 4) == q.top_k_sum(measure.eigensystem(6), 4)
    with pytest.raises(q.linalg.BadDimensionError):
        q.top_k_sum(power.histogram(4), 17)


def test_histogram_top_k_with_multiplicities_past_float_range():
    # 2^-1030 is subnormal, and 2^1029 copies of it have no float count
    state = q.tracial_state(1030)
    assert state.histogram(1030).multiplicities == (1 << 1030,)
    assert state.top_k_mass(1030, 1 << 1029) == 0.5
    assert state.top_k_mass(1030, 3 << 1027) == 0.375


def test_histogram_that_loses_mass_to_underflow_is_refused():
    # 2^-1075 rounds to 0.0, so the whole uniform spectrum is lost
    with pytest.raises(DimensionCapError, match="level 1075 keeps mass 0.0"):
        q.tracial_state(1075).top_k_mass(1075, 1 << 1075)
    # 48 markers leave 1,152 uniform qubits
    with pytest.raises(DimensionCapError, match="level 1200 keeps mass 0.0"):
        q.block_state(1200).top_k_mass(1200, 1)
    # the typical values 2^(-0.811 n) of this power underflow near 1,300 qubits
    with pytest.raises(DimensionCapError, match="level 1500"):
        _diag_power([0.75, 0.25], 1500).top_k_mass(1500, 1)


def test_histogram_that_keeps_its_mass_answers_deep():
    power = _diag_power([0.9, 0.1], 1500)
    assert power.top_k_mass(1500, 1 << 1500) == pytest.approx(1.0, abs=1e-12)
    # every eigenvalue with at most 200 factors of 0.1: about 2^849 of them
    rank = sum(math.comb(1500, j) for j in range(201))
    for k in (1, 1 << 600, rank):
        want = binomial_top_sum_oracle(0.9, 0.1, 1500, k)
        assert power.top_k_mass(1500, k) == pytest.approx(want, rel=1e-12, abs=1e-300)
    tracial = q.tracial_state(1074)
    assert tracial.top_k_mass(1074, 1 << 1074) == 1.0
    assert tracial.top_k_mass(1074, 1 << 1073) == 0.5


def test_ui_builder_on_block_materialises_only_emitted_levels():
    state = q.block_state(20)
    out = q.build_ui_test(state, "1/2", 6, 20)
    assert [t.qubits for t in out.test.seq.terms] == [1, 3, 6, 10, 15]
    assert out.exhausted == (6,)
    # each emitted term comes from its level's eigensystem, read off the blocks
    assert not state._cache
    assert set(state._spectra) == {1, 3, 6, 10, 15}


def test_tracial_builders_exhaust_at_cap_200_without_materialising():
    for build in (
        lambda s: q.build_entropy_deficiency_test(s, "1/2", "1/2", 6, 200),
        lambda s: q.build_ui_test(s, "1/2", 6, 200),
        lambda s: q.build_s_test(s, "1/2", "1/4", "1/2", 6, 200),
    ):
        state = q.tracial_state(200)
        out = build(state)
        assert out.exhausted == (1, 2, 3, 4, 5, 6) and out.depth_cap == 200
        assert not state._cache and not state._spectra


def test_emitted_level_past_the_diagonal_cap_still_raises():
    # a marker qubit at positions 1 and 25, uniform qubits elsewhere: the ui
    # builder emits order 1 at depth 1 and order 2 first at depth 25
    e0, half = np.array([1.0, 0.0]), np.array([0.5, 0.5])
    factors = [e0] + [half] * 23 + [e0] + [half] * 15
    state = q.StateSequence("two-markers", 40, factors=factors)
    assert q.check_coherence(state, 40).passed
    assert state.top_k_mass(25, 1 << 23) == 1.0
    with pytest.raises(DimensionCapError, match="order 2 would emit from depth 25"):
        q.build_ui_test(state, "1/2", 2, 40)
    # refused before order 1's level is materialised
    assert not state._cache


def test_factors_alone_make_a_diagonal_state_past_the_dense_cap():
    # a marker qubit at positions 1 and 14: given only `factors`, the levels
    # are diagonal, so order 2 is emitted from depth 14, past the dense cap
    e0, half = np.array([1.0, 0.0]), np.array([0.5, 0.5])
    factors = [e0] + [half] * 12 + [e0] + [half] * 2
    state = q.StateSequence("marker-at-14", 16, factors=factors)
    assert 14 > q.linalg.DENSE_QUBIT_CAP
    out = q.build_ui_test(state, "1/2", 2, 16)
    assert [t.qubits for t in out.test.seq.terms] == [1, 14] and out.complete
    assert state_to_json(state)["repr"] == "diag"


def test_factored_entropy_is_the_left_to_right_sum_of_factor_entropies():
    for key, make in FACTORED.items():
        state = make(60)
        for n in (1, 2, 7, 20, state.max_depth):
            want = float(sum(q.shannon_entropy(f) for f in state.diag_factors(n)))
            assert state.entropy(n) == want, (key, n)


def test_factor_summaries_are_shared_across_levels():
    power = _diag_power([0.8, 0.2], 200)
    q.entropy_profile(power, 200)
    two = _diag_power([0.4, 0.3, 0.2, 0.1], 101)
    q.entropy_profile(two, 101)
    block = q.block_state(44)
    q.entropy_profile(block, 44)
    f = block.diag_factors(20)[2]
    assert f is block.diag_factors(44)[2] and not f.flags.writeable


def test_histogram_memo_thread_safe():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            state = _diag_power([0.4, 0.3, 0.2, 0.1], 40)
            with ThreadPoolExecutor(max_workers=8) as pool:
                hists = list(pool.map(lambda _: state.histogram(40), range(32), timeout=60))
            assert all(h is hists[0] for h in hists)
    finally:
        sys.setswitchinterval(interval)


def _sixteen_valued_factor():
    p = np.arange(1.0, 17.0)
    return p / p.sum()


def test_costly_type_classes_past_the_cap_still_raise_at_once():
    # 16 values: from 6 copies on, the types cost more than a materialised level
    state = _diag_power(_sixteen_valued_factor(), 60)
    for n in (25, 40, 60):
        assert state.histogram(n) is None
        with pytest.raises(DimensionCapError):
            state.top_k_mass(n, 1)
    # uniform qubits up to the cap, then 16-valued factors: the builder
    # reads histograms below the cap and stops where the types turn costly
    half, f16 = np.array([0.5, 0.5]), _sixteen_valued_factor()
    state = q.StateSequence("uniform-then-16", 60, factors=[half] * 24 + [f16] * 9)
    start = time.perf_counter()
    with pytest.raises(DimensionCapError):
        q.build_ui_test(state, "1/2", 6, 60)
    assert time.perf_counter() - start < 10.0
    assert not state._cache
    assert state.histogram(28) is not None and state.histogram(44) is None


def test_factor_with_more_than_a_thousand_values():
    p = np.zeros(1 << 11)
    p[:1100] = np.linspace(1.0, 2.0, 1100)
    p /= p.sum()
    block = _Block(p)
    assert len(block.distinct) == 1100
    assert sum(_power_histogram(block, 1).values()) == 1100
    state, twin = _diag_power(p, 22), _diag_power(p, 22)
    for n in (11, 12, 22):
        assert state.top_k_mass(n, 7) == q.top_k_sum(q.eigendecompose(twin.density(n)), 7)
        del state._values[n], twin._cache[n]
    assert not state._cache


def test_summaries_are_dropped_with_their_factors():
    # 80 distinct arrays of equal values: each is its own block
    state = q.StateSequence(
        "fresh-arrays", 80,
        factors=[np.array([0.7, 0.3]) for _ in range(80)],
    )
    want = q.shannon_entropy(np.array([0.7, 0.3]))
    profile = q.entropy_profile(state, 80)
    assert profile.entries[-1][1] == pytest.approx(80 * want, rel=1e-12)
    assert state.top_k_mass(12, 1) == q.top_k_sum(state.eigensystem(12), 1)
    want = q.top_k_sum(q.eigendecompose(state.density(12)), 1)
    assert abs(state.top_k_mass(12, 1) - want) <= 1e-15


def test_a_deep_one_valued_level_answers_in_constant_time_and_memory():
    # the level's one eigenvalue 1.0 has multiplicity 1: no query forms 2^n
    import tracemalloc

    n = BLOCK_QUBIT_CAP
    queries = (lambda s: q.step_family(s, n).depth, lambda s: s.top_k_mass(n, 1), lambda s: s.entropy(n))
    answers = []
    for query in queries:
        state = _diag_power([1.0, 0.0], n)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            answers.append(query(state))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 1e6, (elapsed, peak)
    assert answers == [n, 1.0, 0.0]
