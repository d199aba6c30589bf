"""NaN, infinities and out-of-range depths and deltas fail loudly at every public entry point."""

import contextlib
import io
import json
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitlab as q
from qubitlab import infotheory, linalg, states
from qubitlab.cli import EXIT_VALIDATION, main
from qubitlab.linalg import (
    BadDimensionError,
    DimensionCapError,
    MalformedOperatorError,
    NonHermitianError,
    WrongTraceError,
)
from qubitlab.serialize import (
    dump_json,
    matrix_from_json,
    projection_from_json,
    projection_test_from_json,
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
        q.Projection.from_factors([(2, indices)])
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


class _Exit(Exception):
    """A CLI run's exit code and the error it printed, raised so a refusal reads like any other."""


def _cli_exit(state: str):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["entropy-profile", "--state", state, "--depth", "4", "--out", os.devnull])
    raise _Exit(f"exit {code}, {err.getvalue().strip()}")


def _diag(qubits: int) -> q.DensityOperator:
    return q.DensityOperator.diagonal(np.full(1 << qubits, 2.0**-qubits))


#: one qubit, basis state |0>
_ZERO = q.Projection.from_factors([(1, [0])])
_SKEWED = q.DensityOperator.diagonal(np.array([0.9, 0.1]))

#: refusals that no other test reaches: (call, error, message fragment)
REFUSALS = {
    "cli-unbalanced": (
        lambda: _cli_exit("builtin:tracial(n=4"), _Exit, "exit 2, error: unbalanced parentheses"),
    "cli-bare-key": (
        lambda: _cli_exit("builtin:tracial(n)"), _Exit, "exit 2, error: expected key=value"),
    "projection-not-square": (
        lambda: q.Projection.from_matrix(np.ones((2, 4))), BadDimensionError, "must be square"),
    "projection-not-hermitian": (
        lambda: q.Projection.from_matrix([[0, 1], [0, 0]]), NonHermitianError, "not Hermitian"),
    "projection-not-idempotent": (
        lambda: q.Projection.from_matrix(np.eye(2) / 2), MalformedOperatorError, "not idempotent"),
    "top-k-projector-k-0": (
        lambda: q.top_k_projector(q.eigendecompose(_diag(1)), 0),
        BadDimensionError, "k=0 out of range 1..2"),
    "projection-weight-qubits": (
        lambda: q.projection_weight(_diag(2), _ZERO),
        BadDimensionError, "state on 2 qubits, projection on 1"),
    "tensor-diagonal-cap": (
        lambda: linalg.tensor(_diag(13), _diag(12)),
        DimensionCapError, "25 qubits exceeds diagonal cap"),
    "dense-matrix-cap": (
        lambda: _diag(13).dense_matrix(), DimensionCapError, "13 qubits exceeds dense cap 12"),
    "state-weight-qubits": (
        lambda: q.state_weight(q.tracial_state(3), 2, _ZERO),
        BadDimensionError, "projection on 1 qubits, depth 2"),
    "deficiency-theta": (
        lambda: q.build_entropy_deficiency_test(q.tracial_state(4), Fraction(3, 2), 0.5, 1, 4),
        ValueError, "theta must lie strictly between 0 and 1"),
    "product-block-0-qubits": (
        lambda: q.Projection.from_factors([(2, [0]), (0, [0])]),
        BadDimensionError, "a product block needs a qubit or more, got 0"),
    "product-block-negative-qubits": (
        lambda: q.Projection.from_factors([(-1, [0])]),
        BadDimensionError, "a product block needs a qubit or more, got -1"),
    "typical-decay-cap": (
        lambda: q.typical_subspace_decay(_SKEWED, Fraction(1, 4), 25),
        DimensionCapError, "2\\^25 entries"),
    "typical-decay-depth-0": (
        lambda: q.typical_subspace_decay(_SKEWED, Fraction(1, 4), 0),
        BadDimensionError, "depth 0 is below 1"),
    "typical-decay-depth-negative": (
        lambda: q.typical_subspace_decay(_SKEWED, Fraction(1, 4), -3),
        BadDimensionError, "depth -3 is below 1"),
    "json-projection-kind": (
        lambda: projection_from_json({"kind": "nope", "qubits": 1}),
        ValueError, "unknown projection kind 'nope'"),
    "json-test-kind": (
        lambda: projection_test_from_json({"kind": "nope", "terms": []}),
        ValueError, "unknown test kind 'nope'"),
    "json-qs-certificate": (
        lambda: projection_test_from_json({"kind": "qs", "terms": [], "certificate": {
            "type": "explicit", "values": [0.5, 0.75]}}),
        ValueError, "unsupported certificate type 'explicit' for a qs test"),
    "json-term-qubits": (
        lambda: projection_test_from_json({"kind": "qs", "terms": [
            {"m": 3, "n_m": 3, "projector": {"qubits": 2, "kind": "basis", "indices": [0]}}]}),
        BadDimensionError, "term m=3 qubit count mismatch"),
    "json-test-type": (
        lambda: projection_test_to_json(object()), TypeError, "cannot serialise object"),
    "explicit-level-qubits": (
        lambda: q.explicit_state("e", [_diag(2)]), BadDimensionError, "level 1 has 2 qubits"),
    "block-checkpoint-negative": (
        lambda: q.block_checkpoint(-1), ValueError, "nonnegative"),
    "density-name": (
        lambda: states.density_by_name("nope"), ValueError, "unknown density 'nope'"),
    "rate-of-empty-profile": (
        lambda: q.entropy_rate_estimate(q.EntropyProfile("x", ()), 1),
        ValueError, "empty entropy profile"),
    "flatten-2d": (
        lambda: infotheory.flatten_distribution(np.full((2, 2), 0.25), Fraction(1, 2)),
        BadDimensionError, "1-D probability vector"),
    "flatten-eps": (
        lambda: infotheory.flatten_distribution([0.5, 0.5], Fraction(3, 2)),
        ValueError, "eps must lie strictly between 0 and 1"),
    "two-block-m": (
        lambda: infotheory.two_block_average([0.5, 0.5], 2), ValueError, "m=2 outside 0..1"),
    "entropy-bound-m": (
        lambda: infotheory.check_entropy_upper_bound([0.5, 0.5], 2),
        ValueError, "m=2 outside 0..1"),
    "step-evaluate-x": (
        lambda: q.step_family(q.tracial_state(2), 2).evaluate(1, 1.0),
        ValueError, "x must lie in \\[0, 1\\)"),
    "ui-profile-no-deltas": (
        lambda: q.ui_profile(q.step_family(q.tracial_state(2), 2), [], 2),
        ValueError, "empty delta grid"),
    "complex-diagonal": (
        lambda: q.DensityOperator.diagonal(np.array([0.5 + 0.5j, 0.5 - 0.5j])),
        MalformedOperatorError, "complex probability"),
    "complex-factors": (
        lambda: q.StateSequence("c", 3, factors=[np.array([0.5 + 0.3j, 0.5])] * 3).entropy(3),
        MalformedOperatorError, "complex probability"),
    "complex-shannon": (
        lambda: q.shannon_entropy([0.5 + 1j, 0.5]), MalformedOperatorError, "complex probability"),
    "complex-descending": (
        lambda: infotheory.two_block_average([0.5 + 1e-3j, 0.5], 1),
        MalformedOperatorError, "complex probability"),
    "complex-dominance": (
        lambda: q.uniformity_dominance([0.5, 0.5], [0.5j, 0.5]),
        MalformedOperatorError, "complex probability"),
    "complex-delta": (
        lambda: q.evaluate_failure(q.tracial_state(4), q.block_test_sequence(1), 0.5 + 0.1j, 1),
        MalformedOperatorError, "complex delta"),
    "complex-top-k-sum": (
        lambda: q.top_k_sum([0.5, 0.5j], 1), MalformedOperatorError, "complex eigenvalue"),
    "complex-basis-index": (
        lambda: q.Projection.from_factors([(1, [1j])]), MalformedOperatorError, "complex basis"),
    "product-block-no-index": (
        lambda: q.Projection.from_factors([(2, [])]),
        BadDimensionError, "a product block needs a basis index or more"),
    "product-one-block-0-qubits": (
        lambda: q.Projection.from_factors([(0, [0])]),
        BadDimensionError, "a product block needs a qubit or more, got 0"),
    "product-no-block": (
        lambda: q.Projection.from_factors([]), BadDimensionError, "a product needs a block"),
    "identity-0-qubits": (
        lambda: q.Projection.identity(0), BadDimensionError, "a product needs a block"),
    "entropy-gap-depth-0": (
        lambda: q.entropy_gap(q.log_power_density(2), 0), BadDimensionError, "depth 0 is below 1"),
    "entropy-gap-depth-negative": (
        lambda: q.entropy_gap(q.log_power_density(2), -2),
        BadDimensionError, "depth -2 is below 1"),
    "entropy-gap-curve-depth-0": (
        lambda: q.entropy_gap_curve(q.log_power_density(2), 0),
        BadDimensionError, "depth 0 is below 1"),
    "entropy-gap-curve-start-0": (
        lambda: q.entropy_gap_curve(q.log_power_density(2), 3, start=0),
        BadDimensionError, "depth 0 is below 1"),
    "entropy-gap-curve-past-start": (
        lambda: q.entropy_gap_curve(q.log_power_density(2), 3, start=5),
        BadDimensionError, "depth 3 is below 5"),
    "cylinder-masses-depth-negative": (
        lambda: q.log_power_density(2).cylinder_masses(-1),
        BadDimensionError, "depth -1 is below 0"),
}


def test_a_complex_vector_with_no_imaginary_part_is_accepted():
    p = np.array([0.25 + 0j, 0.75 - 0j])
    assert q.DensityOperator.diagonal(p).probs.tolist() == [0.25, 0.75]
    assert q.shannon_entropy(p) == q.shannon_entropy([0.25, 0.75])


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(), ids=REFUSALS)
def test_bad_input_fails_loudly(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
