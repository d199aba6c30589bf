"""Each materialised level is decomposed once, a dense power's levels never, and the
memo changes no bit."""

import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import qubitlab as q
from qubitlab import linalg, states

from conftest import random_density_oracle

DELTA = Fraction(1, 10)


def _dense_states():
    """Key -> (a maker of fresh states from inputs drawn once, depth)."""
    rng = np.random.default_rng(7)
    top = random_density_oracle(rng, 6)
    levels = [top]
    while levels[-1].qubits > 1:
        levels.append(q.partial_trace_last(levels[-1]))
    factor = random_density_oracle(rng, 2)
    return {
        "power-dense": (lambda: q.tensor_power_state(factor, 8), 8),
        "explicit-dense": (lambda: q.explicit_state("ginibre", levels[::-1]), 6),
    }


def _run_consumers(state, depth):
    q.entropy_profile(state, depth)
    q.ui_profile(q.step_family(state, depth), [0.5, 0.25, 0.1], depth)
    q.build_ui_test(state, DELTA, 4, depth)
    built = q.build_entropy_deficiency_test(state, "1/2", DELTA, 4, depth)
    assert built.test.seq.terms, "the deficiency builder must emit at least one term"
    q.evaluate_failure(state, built.test, float(DELTA), built.test.seq.m_max)


def _count_decompositions(monkeypatch) -> tuple[Counter, Counter]:
    """Count eigendecompose calls by qubits, and numpy eigh and eigvalsh calls by
    (name, dimension) as qubitlab.linalg and qubitlab.states see them (np.linalg.*)."""
    calls, numpy_calls = Counter(), Counter()
    original = linalg.eigendecompose

    def counting(d):
        calls[d.qubits] += 1
        return original(d)

    # rebind every module-level name, so a stray direct call is counted too
    for name, mod in list(sys.modules.items()):
        if name.startswith("qubitlab") and getattr(mod, "eigendecompose", None) is original:
            monkeypatch.setattr(mod, "eigendecompose", counting)
    for fn in ("eigh", "eigvalsh"):

        def counting_numpy(a, *args, _fn=fn, _original=getattr(np.linalg, fn), **kwargs):
            numpy_calls[_fn, len(a)] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, fn, counting_numpy)
    assert linalg.np.linalg.eigh is states.np.linalg.eigh is np.linalg.eigh
    return calls, numpy_calls


@pytest.mark.parametrize("key", ["power-dense", "explicit-dense"])
def test_each_level_decomposed_at_most_once(monkeypatch, key):
    make, depth = _dense_states()[key]
    calls, numpy_calls = _count_decompositions(monkeypatch)
    state = make()
    _run_consumers(state, depth)
    # every eigh runs inside eigendecompose, so a level decomposed elsewhere fails here
    eigh = Counter({dim: c for (fn, dim), c in numpy_calls.items() if fn == "eigh"})
    assert eigh == Counter({1 << n: c for n, c in calls.items()}), dict(numpy_calls)
    if key == "power-dense":
        # the 2-qubit factor and its one trace are each decomposed once; nothing wider
        # than the factor reaches eigh or eigvalsh (which validates the factor)
        assert calls == Counter({2: 1, 1: 1}), dict(calls)
        assert max(dim for _, dim in numpy_calls) <= 4, dict(numpy_calls)
        return
    assert set(calls) == set(range(1, depth + 1))
    assert max(calls.values()) == 1, dict(calls)


def _check_dense_power(state, twin, depth):
    """The memo is bitwise a fresh twin's, and eigh's within rounding.

    No product form can match eigh bit for bit: eigenvectors inside a
    degenerate eigenspace are not unique.
    """
    for n in range(1, depth + 1):
        memo, fresh = state.eigensystem(n), twin.eigensystem(n)
        assert memo is state.eigensystem(n)
        assert np.array_equal(memo.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(memo.eigenvectors, fresh.eigenvectors)
        assert np.array_equal(state.spectrum(n), twin.spectrum(n))
        assert state.entropy(n) == twin.entropy(n)
        decomposed = q.eigendecompose(state.density(n))
        assert np.abs(memo.eigenvalues - decomposed.eigenvalues).max() <= 1e-14
        assert abs(state.entropy(n) - q.von_neumann_entropy(decomposed)) <= 1e-12
    for build in (
        lambda state: q.build_ui_test(state, DELTA, 4, depth),
        lambda state: q.build_entropy_deficiency_test(state, "1/2", DELTA, 4, depth),
    ):
        terms, twin_terms = build(state).test.seq.terms, build(twin).test.seq.terms
        assert terms
        for t, u in zip(terms, twin_terms, strict=True):
            assert (t.m, t.qubits) == (u.m, u.qubits)
            assert np.array_equal(t.projector.matrix, u.projector.matrix)
            rho = state.density(t.qubits)
            decomposed = q.eigendecompose(rho)
            p, k = t.projector.matrix, t.projector.rank
            assert k == q.top_k_projector(decomposed, k).rank == np.linalg.matrix_rank(p)
            weight = np.einsum("ij,ji->", rho.matrix, p).real
            assert abs(weight - q.top_k_sum(decomposed, k)) <= 1e-12
            assert np.abs(p @ p - p).max() <= 1e-12


@pytest.mark.parametrize("key", ["power-dense", "explicit-dense", "measure"])
def test_memoised_spectra_and_projectors_are_bitwise_fresh(key):
    if key == "measure":
        make, depth = (lambda: q.measure_state(q.log_power_density(2), 10)), 10
    else:
        make, depth = _dense_states()[key]
    state = make()
    _run_consumers(state, depth)
    if key == "power-dense":
        _check_dense_power(state, make(), depth)
        return
    for n in range(1, depth + 1):
        fresh = q.eigendecompose(state.density(n))
        memo = state.eigensystem(n)
        assert memo is state.eigensystem(n)
        assert np.array_equal(state.spectrum(n), fresh.eigenvalues)
        for a, b in ((memo.eigenvectors, fresh.eigenvectors),
                     (memo.basis_labels, fresh.basis_labels)):
            assert (a is None) == (b is None) and (a is None or np.array_equal(a, b))
        assert state.entropy(n) == q.von_neumann_entropy(state.density(n))
    for build in (
        lambda: q.build_ui_test(state, DELTA, 4, depth),
        lambda: q.build_entropy_deficiency_test(state, "1/2", DELTA, 4, depth),
    ):
        terms = build().test.seq.terms
        assert terms
        for t in terms:
            fresh = q.top_k_projector(q.eigendecompose(state.density(t.qubits)), t.projector.rank)
            for a, b in ((t.projector.matrix, fresh.matrix),
                         (t.projector.basis_indices, fresh.basis_indices)):
                assert (a is None) == (b is None) and (a is None or np.array_equal(a, b))
