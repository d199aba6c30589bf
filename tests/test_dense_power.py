"""Dense tensor powers answer from their factor's eigensystem at any depth, checked
against product-spectrum, type-class and benchmark oracles; no level is ever
decomposed, and none past 12 qubits is held."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import qubitlab as q
from qubitlab.linalg import BadDimensionError, DimensionCapError
from qubitlab.states import BLOCK_QUBIT_CAP

from conftest import (
    block_markers_oracle,
    coherence_deviations_oracle,
    power_spectrum_oracle,
    power_top_k_types_oracle,
    random_density_oracle,
)


def _count_eigh(monkeypatch) -> Counter:
    """Count numpy eigh and eigvalsh calls by matrix dimension."""
    dims = Counter()
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(a, *args, _original=original, **kwargs):
            dims[np.shape(a)[0]] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return dims


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dense_power_matches_product_spectrum_oracle(monkeypatch, k):
    factor = random_density_oracle(np.random.default_rng(40 + k), k)
    dims = _count_eigh(monkeypatch)
    state = q.tensor_power_state(factor, 12)
    declined = []
    for n in range(1, 13):
        values, entropy = power_spectrum_oracle(factor.matrix, n)
        assert abs(state.entropy(n) - entropy) <= 1e-12, n
        if state.histogram(n) is None:
            declined.append(n)
        ranks = {1, 2, 3, 1 << (n // 2), (1 << n) - 1, 1 << n}
        for rank in sorted(r for r in ranks if 1 <= r <= 1 << n):
            want = math.fsum(values[:rank])
            assert abs(state.top_k_mass(n, rank) - want) <= 1e-13, (n, rank)
        if n <= 10:
            assert np.abs(state.spectrum(n) - values).max() <= 1e-14, n
    # levels with few distinct products decline the histogram; the mass comes from
    # the level's product eigensystem there (for k = 3 up to depth 12)
    assert declined and (k < 3 or 12 in declined), declined
    assert max(dims) <= 1 << k, dict(dims)


def test_dense_power_top_k_masses_build_no_eigenvectors():
    # levels 8-12 of a 3-qubit factor decline the histogram; their masses come from the
    # sorted eigenvalues alone, bitwise the eigensystem's prefix sums
    factor = random_density_oracle(np.random.default_rng(43), 3)
    state = q.tensor_power_state(factor, 12)
    for n in (8, 9, 10):
        assert state.histogram(n) is None
        ranks = range(1, (1 << n) + 1, 37)
        masses = [state.top_k_mass(n, k) for k in ranks]
        assert n not in state._spectra
        values = state.eigensystem(n).eigenvalues
        assert masses == [float(values[:k].sum()) for k in ranks], n
    assert state.histogram(12) is None
    tracemalloc.start()
    try:
        masses = [state.top_k_mass(12, k) for k in (1, 3, 64, 4095, 4096)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6 and 12 not in state._spectra, peak
    assert masses[-1] == pytest.approx(1.0, abs=1e-12)


def test_dense_power_levels_are_krons_of_the_factor_and_its_trace():
    factor = random_density_oracle(np.random.default_rng(11), 2)
    m = np.asarray(factor.matrix)
    traced = np.einsum("iaja->ij", m.reshape(2, 2, 2, 2))
    state = q.tensor_power_state(factor, 7)
    want = {1: traced, 2: m, 3: np.kron(m, traced), 6: np.kron(np.kron(m, m), m),
            7: np.kron(np.kron(np.kron(m, m), m), traced)}
    for n, w in want.items():
        assert np.abs(state.density(n).matrix - w).max() <= 1e-16, n
    report = q.check_coherence(state, 7)
    assert report.passed and max(dev for _, dev in report.deviations) <= 1e-15


def test_dense_power_eigensystem_diagonalises_its_level():
    factor = random_density_oracle(np.random.default_rng(12), 2)
    state = q.tensor_power_state(factor, 7)
    for n in (3, 6, 7):
        s = state.eigensystem(n)
        v = s.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(1 << n)).max() <= 1e-13
        rebuilt = (v * s.eigenvalues) @ v.conj().T
        assert np.abs(rebuilt - state.density(n).matrix).max() <= 1e-14
        assert np.all(np.diff(s.eigenvalues) <= 0.0)


def test_dense_power_cap_reads_max_depth():
    # any max_depth builds; only the queries that hold a level or read it in a basis stop at 12
    five = random_density_oracle(np.random.default_rng(13), 5)
    state = q.tensor_power_state(five, 11)  # two copies would be 15 qubits; level 11 needs 11
    _, entropy = power_spectrum_oracle(five.matrix, 11)
    assert abs(state.entropy(11) - entropy) <= 1e-12
    assert state.max_depth == 11
    two = random_density_oracle(np.random.default_rng(14), 2)
    raw = q.StateSequence("raw", 13, factors=[two.matrix] * 7)
    for state in (q.tensor_power_state(two, 13), raw):
        assert state.max_depth == 13 and state.level_cap == 12
        assert state.spectrum(6).size == 1 << 6 and state.entropy(13) > 0.0
        for query in (state.density, state.eigensystem, state.spectrum,
                      lambda n: q.state_weight(state, n, q.Projection.identity(n))):
            with pytest.raises(DimensionCapError, match="dense cap 12"):
                query(13)
        assert 13 not in state._cache and 13 not in state._spectra


def test_dense_blocks_refuse_diagonal_ones_and_the_diagonal_paths():
    a = random_density_oracle(np.random.default_rng(15), 1)
    p = np.array([0.25, 0.75])
    with pytest.raises(BadDimensionError, match="square matrix"):
        q.StateSequence("mixed", 3, factors=[a.matrix, p, a.matrix])
    for mixed in ([p, np.eye(2) / 2, p], [p, a.matrix, p]):
        with pytest.raises(BadDimensionError, match="1-D probability vector"):
            q.StateSequence("mixed", 3, factors=mixed)
    state = q.StateSequence("dense", 3, factors=[a.matrix] * 3)
    assert np.abs(state.density(2).matrix - np.kron(a.matrix, a.matrix)).max() <= 1e-16
    [diagonal] = state.diag_factors(3)
    assert np.array_equal(diagonal, state.density(3).diagonal_part())
    deep = q.StateSequence("deep", 13, factors=[a.matrix] * 13)
    with pytest.raises(DimensionCapError, match="past the dense cap 12"):
        deep.diag_factors(13)


def test_state_weight_skips_the_diagonal_path_for_dense_blocks_up_front():
    factor = random_density_oracle(np.random.default_rng(16), 2)
    state = q.tensor_power_state(factor, 6)
    g = q.Projection.from_factors([(5, [0, 3, 17])])
    assert q.state_weight(state, 5, g) == q.projection_weight(state.density(5), g)
    blocks = q.Projection.from_factors([(2, [1]), (3, [0, 5])])
    assert q.state_weight(state, 5, blocks) == q.projection_weight(state.density(5), blocks)


def test_factor_writes_reach_no_dense_level():
    m = np.array(random_density_oracle(np.random.default_rng(17), 1).matrix)
    state = q.StateSequence("copy", 4, factors=[m] * 4)
    before = state.entropy(4), state.density(2).matrix.copy()
    m[:] = np.eye(2) / 2
    assert state.entropy(4) == before[0]
    assert np.array_equal(state.density(2).matrix, before[1])
    assert m.flags.writeable


@pytest.mark.parametrize("n", [1_000, 100_001, 1_000_000])
def test_dense_power_entropy_at_any_depth_matches_the_bench_oracle(oracles, n):
    factor = random_density_oracle(np.random.default_rng(18), 2)
    state = q.tensor_power_state(factor, n)
    want = oracles.power_level_entropy(np.asarray(factor.matrix), 2, n)
    assert abs(state.entropy(n) - want) <= 1e-9 * n
    assert not state._cache and not state._spectra


@pytest.mark.parametrize("n", [24, 60, 61, 100])
def test_dense_power_top_k_past_the_dense_cap_matches_the_types_oracle(n):
    factor = random_density_oracle(np.random.default_rng(18), 2)
    state = q.tensor_power_state(factor, n)
    assert state.histogram(n) is not None
    ranks = (1, 3, 1 << (n // 3), 1 << (n // 2), (1 << (n - 1)) + 7, 1 << n)
    for rank, want in zip(ranks, power_top_k_types_oracle(factor.matrix, n, ranks)):
        assert abs(state.top_k_mass(n, rank) - want) <= 1e-12, (n, rank)
    assert not state._cache and not state._spectra


def test_dense_power_builder_refuses_to_emit_past_the_dense_cap(monkeypatch):
    factor = random_density_oracle(np.random.default_rng(19), 2)
    # within the cap, every order emits from a level of 12 qubits or fewer
    kept = q.build_ui_test(q.tensor_power_state(factor, 40), "1/2", 4, 40)
    assert kept.complete and max(t.qubits for t in kept.test.seq.terms) <= 12

    def refuse(*args):
        raise AssertionError("a projector was built")

    monkeypatch.setattr(q.rtests, "top_k_projector", refuse)
    state = q.tensor_power_state(factor, 40)
    with pytest.raises(DimensionCapError, match=r"order 5 would emit from depth 13, past 12 qubits"):
        q.build_ui_test(state, "1/2", 6, 40)
    assert not state._cache


def test_step_family_refuses_a_depth_with_no_histogram_past_the_level_cap():
    # top-k masses past the level cap come from the level's histogram alone
    factor = random_density_oracle(np.random.default_rng(18), 2)
    state = q.tensor_power_state(factor, 300)
    assert q.step_family(state, 130).depth == 130
    assert state.histogram(140) is None
    with pytest.raises(DimensionCapError, match="cannot materialise 140 qubits past the dense cap 12"):
        q.step_family(state, 140)
    many = q.StateSequence("many", 40, factors=[np.random.default_rng(20).dirichlet(np.ones(16))] * 10)
    assert q.step_family(many, 24).depth == 24
    with pytest.raises(DimensionCapError, match="cannot materialise 25 qubits past the diagonal cap 24"):
        q.step_family(many, 25)
    assert not state._cache and not state._spectra and not state._values
    assert not many._cache and not many._values


def _held_blocks(kind: str, depth: int) -> tuple[q.StateSequence, list[np.ndarray]]:
    """A state and its blocks listed one by one, equal to the copies it holds."""
    half, e0 = np.array([0.5, 0.5]), np.array([1.0, 0.0])
    if kind == "tracial":
        return q.tracial_state(depth), [half] * depth
    if kind == "block":
        marks = set(block_markers_oracle(depth))
        return q.block_state(depth), [e0 if j in marks else half for j in range(depth)]
    k = int(kind.removeprefix("dense"))
    factor = random_density_oracle(np.random.default_rng(k), k)
    held = q.validate_density(np.array(factor.matrix, dtype=complex), 1e-8).matrix
    return q.tensor_power_state(factor, depth), [held] * -(-depth // k)


@pytest.mark.parametrize("kind", ["block", "tracial", "dense1", "dense2", "dense3"])
def test_coherence_deviations_equal_the_expanded_blocks_product(kind):
    # the product underflows to 0.0 near level 1,250 for the 2- and 3-qubit factors, and
    # the 1-qubit one's stays at 5e-324, where each further factor rounds it back
    state, blocks = _held_blocks(kind, 2000)
    want = coherence_deviations_oracle(blocks, 2000)
    assert list(q.check_coherence(state, 2000).deviations) == want
    assert any(dev for _, dev in want) == kind.startswith("dense")


def test_dense_power_entropy_at_the_block_cap_is_within_the_sum_bound():
    # 2^32 copies of one block: the head sum's relative error is at most n 2^-53 = 2^-20
    factor = random_density_oracle(np.random.default_rng(75), 2)
    n = BLOCK_QUBIT_CAP
    state = q.tensor_power_state(factor, n)
    h = Fraction(state.entropy(2))
    assert abs(Fraction(state.entropy(n)) - n // 2 * h) <= Fraction(n, 2**53) * (n // 2) * h
    with pytest.raises(DimensionCapError, match="past the block cap 8589934592"):
        q.tensor_power_state(factor, n + 1)


def test_dense_power_spectrum_builds_no_eigenvectors():
    # the sorted eigenvalues alone, bitwise the eigensystem's, in a table of their own
    factor = random_density_oracle(np.random.default_rng(43), 3)
    state = q.tensor_power_state(factor, 12)
    for n in (8, 9, 10):
        values = state.spectrum(n)
        assert n not in state._spectra
        assert values.tobytes() == state.eigensystem(n).eigenvalues.tobytes(), n
    tracemalloc.start()
    try:
        values = state.spectrum(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6 and 12 not in state._spectra, peak
    assert values.size == 1 << 12 and values.sum() == pytest.approx(1.0, abs=1e-12)
