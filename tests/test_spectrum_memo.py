"""Each materialised level is decomposed once, and the memo changes no bit."""

import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import qubitlab as q
from qubitlab import linalg

from conftest import random_density_oracle

DELTA = Fraction(1, 10)


def _dense_states():
    rng = np.random.default_rng(7)
    top = random_density_oracle(rng, 6)
    levels = [top]
    while levels[-1].qubits > 1:
        levels.append(q.partial_trace_last(levels[-1]))
    return {
        "power-dense": (q.tensor_power_state(random_density_oracle(rng, 2), 8), 8),
        "explicit-dense": (q.explicit_state("ginibre", levels[::-1]), 6),
    }


def _run_consumers(state, depth):
    q.entropy_profile(state, depth)
    q.ui_profile(q.step_family(state, depth), [0.5, 0.25, 0.1], depth)
    q.build_ui_test(state, DELTA, 4, depth)
    built = q.build_entropy_deficiency_test(state, "1/2", DELTA, 4, depth)
    assert built.test.seq.terms, "the deficiency builder must emit at least one term"
    q.evaluate_failure(state, built.test, float(DELTA), built.test.seq.m_max)


@pytest.mark.parametrize("key", ["power-dense", "explicit-dense"])
def test_each_level_decomposed_at_most_once(monkeypatch, key):
    state, depth = _dense_states()[key]
    calls = Counter()
    original = linalg.eigendecompose

    def counting(d):
        calls[d.qubits] += 1
        return original(d)

    # rebind every module-level name, so a stray direct call is counted too
    for name, mod in list(sys.modules.items()):
        if name.startswith("qubitlab") and getattr(mod, "eigendecompose", None) is original:
            monkeypatch.setattr(mod, "eigendecompose", counting)
    _run_consumers(state, depth)
    assert set(calls) == set(range(1, depth + 1))
    assert max(calls.values()) == 1, dict(calls)


@pytest.mark.parametrize("key", ["power-dense", "explicit-dense", "measure"])
def test_memoised_spectra_and_projectors_are_bitwise_fresh(key):
    if key == "measure":
        state, depth = q.measure_state(q.log_power_density(2), 10), 10
    else:
        state, depth = _dense_states()[key]
    _run_consumers(state, depth)
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
