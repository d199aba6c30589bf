"""The benchmark's reference oracles read projections the way the library builds them.

`perfbench/oracles.py` checks builder outputs from a projector's own data:
its rank from the index set (`basis_indices`), the product blocks
(`factors`) or the matrix trace, and a level's weight from its diagonal or
matrix.  These tests import that module unchanged, as `test_cli_digests.py`
does, and hold its reads to `Projection.rank` and `projection_weight`.
The workloads' output checks read `StepFamily.depths`, and the tracer reads
`DensityOperator.dim` and wraps the functions and methods it names; those
reads are held to the library too.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

import qubitlab as q

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _dense_factor(rng) -> q.DensityOperator:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return q.DensityOperator.dense(m / np.trace(m).real)


def test_oracles_read_every_projection_form(oracles, rng):
    pure = q.pure_bitstring_state(q.prng_bits(10, 3), 10)
    deficiency = q.build_entropy_deficiency_test(pure, "1/2", "1/2", 3, 10).test.seq.terms
    power = q.tensor_power_state(_dense_factor(rng), 6)
    ui = q.build_ui_test(power, "1/2", 3, 6).test.seq.terms
    assert deficiency and ui
    assert all(t.projector.basis_indices is not None for t in deficiency)
    assert all(t.projector.matrix is not None for t in ui)
    for state, t in [*((pure, t) for t in deficiency), *((power, t) for t in ui)]:
        g, level = t.projector, state.density(t.qubits)
        assert oracles.projector_rank(g) == g.rank
        want = q.projection_weight(level, g)
        assert oracles.dense_weight(level.dense_matrix(), g) == pytest.approx(want, abs=1e-12)
    for m in range(1, 5):
        g = q.block_state_test(m).projector
        assert g.basis_indices is None  # no block-test term is a single block
        assert oracles.projector_rank(g) == g.rank == 1 << (q.block_checkpoint(m) - m)


def test_step_family_depths_list_every_member(rng):
    for state, depth in [
        (q.tracial_state(12), 12),
        (q.tensor_power_state(_dense_factor(rng), 6), 6),
        (q.measure_state(q.log_power_density(3), 30), 30),
    ]:
        assert q.step_family(state, depth).depths == tuple(range(1, depth + 1))


def test_density_dim_is_the_matrix_side(rng):
    assert q.DensityOperator.diagonal(np.full(8, 1 / 8)).dim == 8
    assert _dense_factor(rng).dim == 4


def test_every_name_the_tracer_times_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    states = importlib.import_module("qubitlab.states")
    for cls_name, methods in tracer.METHODS.items():
        for name in methods:
            assert callable(getattr(getattr(states, cls_name), name)), (cls_name, name)
    for layer, names in tracer.TIMED.items():
        mod = importlib.import_module(f"qubitlab.{layer}")
        for name in names:
            if "." in name:
                cls_name, method = name.split(".")
                assert method in tracer.METHODS[cls_name], name
                assert callable(getattr(getattr(mod, cls_name), method)), name
            else:  # the tracer wraps a layer's own public functions only
                fn = getattr(mod, name)
                assert callable(fn) and fn.__module__ == mod.__name__, (layer, name)
