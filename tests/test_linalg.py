import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitlab as q
from qubitlab.linalg import (
    EIG_CLIP_TOL,
    BadDimensionError,
    DimensionCapError,
    MalformedOperatorError,
    NonHermitianError,
    NotPositiveError,
    WrongTraceError,
)

from conftest import entropy_oracle, haar_projection_oracle, random_density_oracle

I1 = np.eye(2, dtype=complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)


# --- tensor ----------------------------------------------------------------


def test_tensor_identities():
    assert np.allclose(q.tensor(I1, I1), np.eye(4))
    assert np.allclose(q.tensor(KET0, KET0), np.diag([1, 0, 0, 0]))
    assert np.allclose(
        q.tensor(np.array([0.5, 0.5]), np.array([1.0, 0.0])), [0.5, 0, 0.5, 0]
    )


def test_tensor_density_operators_preserve_diagonal():
    a = q.DensityOperator.diagonal(np.array([0.5, 0.5]))
    b = q.DensityOperator.diagonal(np.array([1.0, 0.0]))
    out = q.tensor(a, b)
    assert out.is_diagonal
    assert np.allclose(out.probs, [0.5, 0, 0.5, 0])


def test_tensor_cap_enforced():
    a = q.validate_density(np.eye(1 << 7, dtype=complex) / (1 << 7), 1e-9)
    b = q.validate_density(np.eye(1 << 6, dtype=complex) / (1 << 6), 1e-9)
    assert 7 + 6 > q.linalg.DENSE_QUBIT_CAP
    with pytest.raises(DimensionCapError):
        q.tensor(a, b)


# --- partial trace ----------------------------------------------------------


def test_partial_trace_product_state(rng):
    a = random_density_oracle(rng, 2)
    b = random_density_oracle(rng, 1)
    joint = q.tensor(a, b)
    assert np.abs(q.partial_trace_last(joint).matrix - a.matrix).max() < 1e-10


def test_partial_trace_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / math.sqrt(2)
    bell = q.validate_density(np.outer(psi, psi.conj()), 1e-9)
    reduced = q.partial_trace_last(bell)
    assert np.allclose(reduced.matrix, I1 / 2)


def test_partial_trace_diagonal_pairs():
    d = q.DensityOperator.diagonal(np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.allclose(q.partial_trace_last(d).probs, [0.3, 0.7])


def test_partial_trace_k_matches_brute_force(rng):
    probs = rng.dirichlet(np.ones(8))
    d = q.DensityOperator.diagonal(probs)
    out = q.partial_trace_k(d, 2)
    # oracle: sum over the 4 low-bit indices below each kept high bit
    expected = [sum(probs[4 * i + j] for j in range(4)) for i in range(2)]
    assert np.allclose(out.probs, expected, atol=1e-12)
    assert q.partial_trace_k(d, 0) is d


def test_partial_trace_k_product_reduction(rng):
    a = random_density_oracle(rng, 1)
    tau2 = q.validate_density(np.eye(4, dtype=complex) / 4, 1e-9)
    joint = q.tensor(a, tau2)
    assert np.abs(q.partial_trace_k(joint, 2).matrix - a.matrix).max() < 1e-12
    with pytest.raises(BadDimensionError):
        q.partial_trace_k(joint, 3)


# --- eigendecompose ---------------------------------------------------------


def test_eigendecompose_simple():
    s = q.eigendecompose(q.DensityOperator.diagonal(np.array([0.5, 0.5])))
    assert np.allclose(s.eigenvalues, [0.5, 0.5])
    assert list(s.basis_labels) == [0, 1]  # stable tie-break
    s2 = q.eigendecompose(q.validate_density(KET0, 1e-9))
    assert np.allclose(s2.eigenvalues, [1.0, 0.0])


def test_eigendecompose_reconstructs(rng):
    d = random_density_oracle(rng, 3)
    s = q.eigendecompose(d)
    rebuilt = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
    assert np.abs(rebuilt - d.matrix).max() < 1e-9


def test_eigendecompose_rejects_garbage():
    bad = q.DensityOperator(qubits=1, probs=np.array([0.7, 0.7]))
    with pytest.raises(q.linalg.MalformedOperatorError):
        q.eigendecompose(bad)


# --- entropies ---------------------------------------------------------------


def test_shannon_entropy_values():
    assert q.shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert q.shannon_entropy([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.0)
    assert q.shannon_entropy([0.5, 0.25, 0.125, 0.125]) == pytest.approx(1.75)
    with pytest.raises(NotPositiveError):
        q.shannon_entropy([1.1, -0.1])


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_entropy_range_property(seed, qubits):
    p = np.random.default_rng(seed).dirichlet(np.ones(1 << qubits))
    h = q.shannon_entropy(p)
    assert -1e-9 <= h <= qubits + 1e-9
    assert h == pytest.approx(entropy_oracle(p), abs=1e-9)


def test_von_neumann_maximal_for_uniform():
    for n in range(1, 8):
        d = q.DensityOperator.diagonal(np.full(1 << n, 2.0**-n))
        assert q.von_neumann_entropy(d) == pytest.approx(n, abs=1e-12)


def test_von_neumann_zero_for_basis_states():
    for idx in range(4):
        p = np.zeros(4)
        p[idx] = 1.0
        assert q.von_neumann_entropy(q.DensityOperator.diagonal(p)) == 0.0


def test_von_neumann_additivity(rng):
    a = random_density_oracle(rng, 2)
    b = random_density_oracle(rng, 1)
    joint = q.tensor(a, b)
    # oracle: eigenvalues of the product are the outer products
    wa = np.linalg.eigvalsh(a.matrix)
    wb = np.linalg.eigvalsh(b.matrix)
    expected = entropy_oracle(np.clip(np.outer(wa, wb).ravel(), 0, None))
    assert q.von_neumann_entropy(joint) == pytest.approx(expected, abs=1e-8)
    assert q.von_neumann_entropy(joint) == pytest.approx(
        q.von_neumann_entropy(a) + q.von_neumann_entropy(b), abs=1e-8
    )


# --- top-k -------------------------------------------------------------------


def test_top_k_sum_basics(rng):
    s = q.eigendecompose(q.DensityOperator.diagonal(np.array([0.5, 0.3, 0.2, 0.0])))
    assert q.top_k_sum(s, 2) == pytest.approx(0.8)
    assert q.top_k_sum(s, 4) == pytest.approx(1.0)
    p = rng.dirichlet(np.ones(8))
    # oracle: sort then sum
    assert q.top_k_sum(q.DensityOperator.diagonal(p), 3) == pytest.approx(
        float(np.sort(p)[::-1][:3].sum()), abs=1e-12
    )
    with pytest.raises(BadDimensionError):
        q.top_k_sum(s, 5)


def test_top_k_projector_properties(rng):
    d = random_density_oracle(rng, 2)
    proj = q.top_k_projector(q.eigendecompose(d), 2)
    m = proj.matrix
    assert np.abs(m - m.conj().T).max() < 1e-9
    assert np.abs(m @ m - m).max() < 1e-9
    assert m.trace().real == pytest.approx(2.0, abs=1e-9)
    # pure case: dense spectra give a matrix projection onto the top eigenvector
    s_pure = q.eigendecompose(q.validate_density(KET0, 1e-9))
    assert np.abs(q.top_k_projector(s_pure, 1).matrix - KET0).max() < 1e-12
    # diagonal spectra give basis subsets instead
    s_diag = q.eigendecompose(q.DensityOperator.diagonal(np.array([1.0, 0.0])))
    assert np.allclose(q.top_k_projector(s_diag, 1).basis_indices, [0])
    s_mixed = q.eigendecompose(q.DensityOperator.diagonal(np.array([0.5, 0.5])))
    assert np.allclose(q.top_k_projector(s_mixed, 2).basis_indices, [0, 1])


# --- weights ------------------------------------------------------------------


def test_projection_weight_identity_and_uniform(rng):
    d = random_density_oracle(rng, 2)
    assert q.projection_weight(d, q.Projection.identity(2)) == pytest.approx(1.0, abs=1e-12)
    half = q.DensityOperator.diagonal(np.array([0.5, 0.5]))
    assert q.projection_weight(half, q.Projection.from_basis(1, [0])) == pytest.approx(0.5)


def test_projection_weight_matches_top_k(rng):
    for _ in range(10):
        d = random_density_oracle(rng, 3)
        k = int(rng.integers(1, 9))
        s = q.eigendecompose(d)
        proj = q.top_k_projector(s, k)
        assert q.projection_weight(d, proj) == pytest.approx(q.top_k_sum(s, k), abs=1e-9)


def test_projection_weight_dense_projection_on_diagonal_state(rng):
    # a diagonal state against a dense projection agrees with its dense twin
    for _ in range(20):
        probs = rng.dirichlet(np.ones(8))
        g = haar_projection_oracle(rng, 3, int(rng.integers(1, 9)))
        diag = q.DensityOperator.diagonal(probs)
        dense = q.DensityOperator.dense(np.diag(probs).astype(complex))
        assert diag.is_diagonal and g.matrix is not None
        assert abs(q.projection_weight(diag, g) - q.projection_weight(dense, g)) <= 1e-15


def test_projection_bound_randomized(rng):
    # the rank-k cap: no projection beats the top-k eigenvalue mass
    for _ in range(200):
        qubits = int(rng.integers(1, 5))
        d = random_density_oracle(rng, qubits)
        k = int(rng.integers(1, (1 << qubits) + 1))
        g = haar_projection_oracle(rng, qubits, k)
        assert q.projection_weight(d, g) <= q.top_k_sum(q.eigendecompose(d), k) + 1e-9


def test_tau_weight_values():
    assert q.tau_weight(q.Projection.identity(3)) == 1.0
    assert q.tau_weight(q.Projection.from_basis(1, [0])) == 0.5
    factored = q.Projection.from_factors([(2, [0, 1]), (3, [0])])
    assert factored.rank == 2
    assert q.tau_weight(factored) == 2 / 32


def test_identity_is_one_qubit_blocks_at_any_size():
    assert q.Projection.identity(3) == q.Projection.from_factors([(1, [0, 1])] * 3)
    wide = q.Projection.identity(64)
    assert wide.qubits == 64 and wide.rank == 1 << 64 and q.tau_weight(wide) == 1.0


def test_from_factors_copies_each_block_as_it_is_yielded():
    buf = [0]

    def refilled():
        for b in (0, 1, 1, 0):
            buf[0] = b
            yield 1, buf

    g = q.Projection.from_factors(refilled())
    assert [idx.tolist() for _, idx in g.factors] == [[0], [1], [1], [0]]
    assert buf == [0] and not g.factors[0][1].flags.writeable


def test_from_factors_validates_each_distinct_block_once():
    # one block size, dtype and content: one index set; an equal one of another dtype is its own
    g = q.Projection.from_factors([(1, [0]), (1, np.array([0], np.int8)), (2, [0]), (1, (0,)), (1, [1])])
    (_, a), (_, b), (_, c), (_, d), (_, e) = g.factors
    assert a is d and a is not b and a is not c and a is not e
    assert [idx.tolist() for _, idx in g.factors] == [[0], [0], [0], [0], [1]]
    # object arrays are told apart by value, not by the addresses of their entries
    objects = q.Projection.from_factors(
        (1, np.array([Fraction(b)], dtype=object)) for b in (0, 1, 1, 0))
    assert [idx.tolist() for _, idx in objects.factors] == [[0], [1], [1], [0]]
    assert objects.factors[0][1] is objects.factors[3][1]


def test_factored_projection_expansion_matches_weight(rng):
    p = rng.dirichlet(np.ones(32))
    d = q.DensityOperator.diagonal(p)
    g = q.Projection.from_factors([(2, [0, 3]), (3, [1, 2, 5])])
    direct = q.projection_weight(d, g)
    # row-major flat positions of the np.ix_ sub-array: the one-block index set
    mask = np.zeros((4, 8), dtype=bool)
    mask[np.ix_([0, 3], [1, 2, 5])] = True
    expanded = q.Projection.from_basis(5, np.flatnonzero(mask))
    assert direct == q.projection_weight(d, expanded)
    assert g.rank == expanded.rank == 6
    for _ in range(50):
        n = int(rng.integers(2, 11))
        cuts = np.diff([0, *sorted(rng.choice(np.arange(1, n), size=int(rng.integers(1, n)),
                                                replace=False)), n])
        blocks = [np.sort(rng.choice(1 << c, size=int(rng.integers(1, (1 << c) + 1)),
                                     replace=False)) for c in cuts]
        g = q.Projection.from_factors(list(zip(cuts.tolist(), blocks)))
        diag = rng.dirichlet(np.ones(1 << n))
        # oracle: the projection's entries of the level, summed as a sub-array
        want = float(diag.reshape([1 << c for c in cuts])[np.ix_(*blocks)].sum())
        assert q.projection_weight(q.DensityOperator.diagonal(diag), g) == want
        mask = np.zeros([1 << c for c in cuts], dtype=bool)
        mask[np.ix_(*blocks)] = True
        assert q.projection_weight(
            q.DensityOperator.diagonal(diag), q.Projection.from_basis(n, np.flatnonzero(mask))) == want


# --- validation ----------------------------------------------------------------


def test_validate_density_accepts_uniform():
    assert q.validate_density(I1 / 2, 1e-9).qubits == 1


def test_validate_density_error_codes():
    with pytest.raises(WrongTraceError):
        q.validate_density(np.diag([0.6, 0.6]).astype(complex), 1e-9)
    with pytest.raises(NonHermitianError):
        q.validate_density(np.array([[0.5, 1], [0, 0.5]], dtype=complex), 1e-9)
    with pytest.raises(NotPositiveError):
        q.validate_density(np.diag([1.5, -0.5]).astype(complex), 1e-9)
    with pytest.raises(BadDimensionError):
        q.validate_density(np.eye(3, dtype=complex) / 3, 1e-9)


def test_validate_density_clips_tiny_negative(rng):
    # spectral synthesis with one eigenvalue at -1e-12
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v, _ = np.linalg.qr(g)
    w = np.array([0.7, 0.3 + 1e-12, 1e-13, -1e-12])
    m = (v * w) @ v.conj().T
    d = q.validate_density(m, 1e-9)
    spec = q.eigendecompose(d)
    assert spec.eigenvalues.min() >= 0.0
    assert spec.eigenvalues.sum() == pytest.approx(1.0, abs=1e-12)


def _synthesis(rng, w: np.ndarray) -> np.ndarray:
    """v diag(w) v^dagger for a random unitary v, Hermitian to the last bit."""
    g = rng.standard_normal((w.size, w.size)) + 1j * rng.standard_normal((w.size, w.size))
    v, _ = np.linalg.qr(g)
    m = (v * w) @ v.conj().T
    return (m + m.conj().T) / 2


@given(st.integers(0, 2**32 - 1), st.integers(1, 10),
       st.sampled_from([-10.0, -1.001, -0.999, 0.0, 1.0]), st.sampled_from([1e-10, 1e-9, 1e-3]))
@settings(max_examples=30, deadline=None)
def test_validate_density_refuses_exactly_below_the_floor(seed, qubits, scale, tol):
    # the smallest eigenvalue sits at scale times the floor; 0.001 of a floor is far
    # above the synthesis' and the factorisation's rounding at these sizes
    floor = min(tol, EIG_CLIP_TOL)
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(1 << qubits))
    w[-1] = scale * floor
    w[0] += 1.0 - w.sum()
    m = _synthesis(rng, w)
    if w.min() < -floor:
        with pytest.raises(NotPositiveError, match=r"eigenvalue \S+ below -"):
            q.validate_density(m, tol)
    else:
        assert q.validate_density(m, tol).qubits == qubits


def test_validate_density_accepts_without_an_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an accepted density needs no eigensolve")

    rng = np.random.default_rng(27)
    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    ginibre = g @ g.conj().T
    accepted = [ginibre / ginibre.trace().real, KET0,
                _synthesis(rng, np.array([0.5, 0.5 + 5e-10, 0.0, -5e-10]))]
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for m in accepted:
        assert q.validate_density(m, 1e-9).matrix.shape == m.shape


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_density_refuses_non_finite_before_factorising(monkeypatch, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("a non-finite matrix reached a factorisation")

    for name in ("cholesky", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    m = np.eye(4, dtype=complex) / 4
    m[1, 1] = bad
    with pytest.raises(MalformedOperatorError, match="non-finite"):
        q.validate_density(m, 1e-9)


@pytest.mark.parametrize("tol", [1e-8, 1e-3])
def test_validate_density_refuses_what_eigendecompose_would(tol):
    # -5e-9 passed the old floor of tol = 1e-8, and then `eigendecompose` refused the level
    bad = _synthesis(np.random.default_rng(5), np.array([0.6, 0.4 + 5e-9, 0.0, -5e-9]))
    with pytest.raises(NotPositiveError, match="below -1e-09"):
        q.validate_density(bad, tol)
    good = q.validate_density(
        _synthesis(np.random.default_rng(5), np.array([0.6, 0.4 + 5e-10, 0.0, -5e-10])), tol)
    assert q.von_neumann_entropy(good) == pytest.approx(entropy_oracle([0.6, 0.4]), abs=1e-8)
    assert q.tensor_power_state(good, 4).entropy(4) == pytest.approx(
        2 * entropy_oracle([0.6, 0.4]), abs=1e-8)


def test_shannon_entropy_bitwise_and_one_temporary():
    import tracemalloc

    def reference(p):  # the two-temporary expression it replaced
        pp = p[p > 0.0]
        return float(-(pp * np.log2(pp)).sum())

    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.dirichlet(np.ones(int(rng.integers(1, 3000))))
        v[rng.random(v.size) < 0.3] = 0.0
        v /= v.sum()
        assert q.shannon_entropy(v) == reference(v)
    masses = q.log_power_density(2).cylinder_masses(20)
    assert q.shannon_entropy(masses) == reference(masses)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        q.shannon_entropy(masses)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * masses.nbytes, peak / masses.nbytes


def test_many_small_negative_eigenvalues_validate_and_decompose():
    # 1,500 eigenvalues at -0.9e-9 each pass the floor, and clipping them moves the sum
    # by 1.35e-6, past EIG_SUM_TOL; the sum rule reads the trace, before the clip
    w = np.full(2048, -0.9e-9)
    w[1500:] = (1.0 + 1500 * 0.9e-9) / 548
    d = q.validate_density(np.diag(w).astype(complex), 1e-8)
    spec = q.eigendecompose(d)
    assert spec.eigenvalues.min() >= 0.0 and spec.eigenvalues.sum() == pytest.approx(1.0, abs=1e-12)
    assert q.von_neumann_entropy(d) == pytest.approx(math.log2(548), abs=1e-12)


def test_a_trace_tolerance_past_the_sum_rule_is_capped():
    # tol = 1e-3 once let a trace of 1.0005 through, for `eigendecompose` to refuse
    with pytest.raises(WrongTraceError, match="trace is 1.0005"):
        q.validate_density(np.diag([0.5005, 0.5]).astype(complex), 1e-3)
