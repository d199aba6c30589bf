"""NaN, infinities and out-of-range depths and deltas fail loudly at every public entry point."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitlab as q
from qubitlab.cli import EXIT_VALIDATION, main
from qubitlab.linalg import BadDimensionError, MalformedOperatorError, WrongTraceError
from qubitlab.serialize import (
    dump_json,
    matrix_from_json,
    projection_from_json,
    projection_test_to_json,
)

BAD = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def poisoned_probs(draw):
    """A valid probability vector on 1..3 qubits with one entry made non-finite."""
    size = 1 << draw(st.integers(1, 3))
    p = np.full(size, 1.0 / size)
    p[draw(st.integers(0, size - 1))] = draw(BAD)
    return p


@st.composite
def poisoned_matrix(draw):
    """A 1..2 qubit uniform density matrix with one entry made non-finite."""
    dim = 1 << draw(st.integers(1, 2))
    m = np.eye(dim, dtype=complex) / dim
    m[draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))] = draw(BAD)
    return m


@settings(max_examples=40, deadline=None)
@given(poisoned_probs())
def test_probability_vectors_reject_non_finite(p):
    with pytest.raises(MalformedOperatorError):
        q.DensityOperator.diagonal(p)
    with pytest.raises(MalformedOperatorError):
        q.shannon_entropy(p)
    with pytest.raises(MalformedOperatorError):
        q.eigendecompose(q.DensityOperator(qubits=q.linalg.qubit_count(p.size), probs=p))
    with pytest.raises(MalformedOperatorError):
        matrix_from_json({"repr": "diag", "data": p.tolist()})
    with pytest.raises(MalformedOperatorError):
        q.flatten_distribution(np.sort(p)[::-1], "1/2")
    with pytest.raises(MalformedOperatorError):
        q.two_block_average(np.sort(p)[::-1], 1)


@settings(max_examples=40, deadline=None)
@given(poisoned_matrix())
def test_matrices_reject_non_finite(m):
    with pytest.raises(MalformedOperatorError):
        q.validate_density(m, 1e-9)
    with pytest.raises(MalformedOperatorError):
        q.DensityOperator.dense(m)
    with pytest.raises(MalformedOperatorError):
        q.Projection.from_matrix(m)
    data = [[[z.real, z.imag] for z in row] for row in m]
    with pytest.raises(MalformedOperatorError):
        matrix_from_json({"repr": "dense", "data": data})
    with pytest.raises(MalformedOperatorError):
        projection_from_json({"qubits": 1, "kind": "dense", "matrix": data})


@settings(max_examples=10, deadline=None)
@given(BAD)
def test_densities_and_parameters_reject_non_finite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quadrature and inf - inf warn on the way
        with pytest.raises(WrongTraceError):
            q.DensitySpec(density=lambda x: np.full_like(np.asarray(x, dtype=float), bad))
        with pytest.raises(WrongTraceError):
            q.DensitySpec(
                density=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                antiderivative=lambda x: np.full_like(np.asarray(x, dtype=float), bad),
            )
    with pytest.raises(ValueError):
        q.log_power_density(bad)
    with pytest.raises(MalformedOperatorError):
        q.evaluate_failure(q.tracial_state(4), q.block_test_sequence(1), bad, 1)
    fam = q.step_family(q.tracial_state(4), 4)
    with pytest.raises(MalformedOperatorError):
        q.ui_profile(fam, [0.5, bad], 4)


@settings(max_examples=40, deadline=None)
@given(st.one_of(BAD, st.sampled_from([0.5, 1.25, -0.5])), st.integers(0, 3))
def test_projection_indices_reject_non_finite_and_fractional(bad, at):
    indices = [0.0, 1.0, 2.0, 3.0]
    indices[at] = bad
    with pytest.raises(MalformedOperatorError):
        q.Projection.from_basis(2, indices)
    with pytest.raises(MalformedOperatorError):
        q.Projection.from_factors([(1, [0]), (2, indices)])
    with pytest.raises(MalformedOperatorError):
        projection_from_json({"qubits": 2, "kind": "basis", "indices": indices})


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_input(tmp_path, capsys, bad):
    out = tmp_path / "out.csv"
    state = f"builtin:tensor-power(probs={bad}:1)"
    assert main(["entropy-profile", "--state", state, "--depth", "4", "--out", str(out)]) == (
        EXIT_VALIDATION
    )
    assert not out.exists()
    tracial = "builtin:tracial(n=4)"
    assert main(["ui-profile", "--state", tracial, "--depth", "4", "--deltas", f"0.5,{bad}",
                 "--out", str(out)]) == EXIT_VALIDATION
    test_path = tmp_path / "test.json"
    dump_json(test_path, projection_test_to_json(q.block_test_sequence(1)))
    assert main(["evaluate", "--state", tracial, "--test", str(test_path), f"--delta={bad}",
                 "--out", str(out)]) == EXIT_VALIDATION
    # json.loads reads Infinity and NaN; a poisoned test file is an input error
    dense = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [bad, 0.0]]]
    for projector in (
        {"qubits": 1, "kind": "dense", "matrix": dense},
        {"qubits": 2, "kind": "basis", "indices": [bad]},
    ):
        term = {"m": 1, "n_m": projector["qubits"], "projector": projector}
        payload = {"kind": "qs", "terms": [term]}
        test_path.write_text(json.dumps(payload).replace('"nan"', "NaN").replace(
            '"inf"', "Infinity").replace('"-inf"', "-Infinity"))
        assert main(["evaluate", "--state", tracial, "--test", str(test_path),
                     "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    assert all(line.startswith("error: ") for line in capsys.readouterr().err.splitlines())


@settings(max_examples=40, deadline=None)
@given(st.integers(-10**6, 0), st.one_of(
    st.floats(max_value=0.0, allow_infinity=False), st.floats(min_value=1.0, allow_infinity=False)))
def test_depths_below_one_and_deltas_outside_the_unit_interval_are_refused(depth, delta):
    for build in (
        lambda: q.tracial_state(depth),
        lambda: q.block_state(depth),
        lambda: q.pure_bitstring_state("0110", depth),
        lambda: q.measure_state(q.log_power_density(2), depth),
        lambda: q.tensor_power_state(q.DensityOperator.diagonal(np.array([0.75, 0.25])), depth),
    ):
        with pytest.raises(BadDimensionError, match="below 1"):
            build()
    state = q.measure_state(q.log_power_density(2), 40)
    with pytest.raises(BadDimensionError, match="below 1"):
        q.step_family(state, depth)
    fam = q.step_family(state, 40)
    with pytest.raises(BadDimensionError, match="below 1"):
        q.ui_profile(fam, [0.5], depth)
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        q.ui_profile(fam, [0.5, delta], 40)


def test_a_state_without_a_level_source_is_refused():
    with pytest.raises(ValueError, match="needs a generator or factors"):
        q.StateSequence("x", 4)
    # nor with two: nothing would keep the generator's levels and the factors' in agreement
    with pytest.raises(ValueError, match="needs a generator or factors, not both"):
        q.StateSequence("x", 4, q.tracial_state(4).density, factors=[np.array([0.5, 0.5])] * 4)


@pytest.mark.parametrize("args", [
    ("--depth", "0"),
    ("--depth", "-3"),
    ("--deltas", "1.5"),
    ("--deltas", "0,-1"),
    ("--deltas", "0.5,1"),
])
def test_cli_ui_profile_rejects_bad_depths_and_deltas(tmp_path, capsys, args):
    out = tmp_path / "ui.csv"
    for state in ("builtin:measure(density=logpow2,n=30)", "builtin:tracial"):
        assert main(["ui-profile", "--state", state, *args, "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


@pytest.mark.parametrize("command", ["entropy-profile", "ui-profile"])
def test_cli_profiles_refuse_a_depth_past_the_state(tmp_path, capsys, command):
    out = tmp_path / "profile.csv"
    state = "builtin:measure(density=logpow3,n=30)"
    assert main([command, "--state", state, "--depth", "100", "--out", str(out)]) == (
        EXIT_VALIDATION
    )
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["error: depth 100 beyond max_depth 30"]
