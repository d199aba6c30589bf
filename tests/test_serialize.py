import numpy as np
import pytest

import qubitlab as q
from qubitlab.cli import load_state
from qubitlab.states import STATE_KINDS
from qubitlab.serialize import (
    format_real,
    matrix_from_json,
    matrix_to_json,
    projection_from_json,
    projection_to_json,
    spec_hash,
    state_from_json,
    state_to_json,
    projection_test_from_json,
    projection_test_to_json,
    write_csv,
)

from conftest import random_density_oracle


def test_matrix_roundtrip_diag_and_dense(rng):
    diag = q.DensityOperator.diagonal(np.array([0.25, 0.75]))
    back = matrix_from_json(matrix_to_json(diag))
    assert back.is_diagonal and np.allclose(back.probs, diag.probs)
    dense = random_density_oracle(rng, 2)
    back2 = matrix_from_json(matrix_to_json(dense))
    assert np.abs(back2.matrix - dense.matrix).max() < 1e-12


def test_matrix_json_schema_keys():
    obj = matrix_to_json(q.DensityOperator.diagonal(np.array([0.5, 0.5])))
    assert set(obj) == {"qubits", "repr", "data"}
    assert obj["repr"] == "diag"


@pytest.mark.parametrize(
    "make",
    [
        lambda: q.tracial_state(8),
        lambda: q.pure_bitstring_state("01011010", 8),
        lambda: q.block_state(8),
        lambda: q.tensor_power_state(q.DensityOperator.diagonal(np.array([0.7, 0.3])), 8),
        lambda: q.measure_state(q.log_power_density(2), 8),
    ],
)
def test_state_constructor_replay(make):
    state = make()
    replayed = state_from_json(state_to_json(state))
    assert replayed.max_depth == state.max_depth
    for n in (1, 4, 8):
        assert np.allclose(replayed.density(n).probs, state.density(n).probs, atol=1e-15)


@pytest.mark.parametrize(
    "make",
    [
        lambda: q.measure_state(q.log_power_density(3), 6, name="mine"),
        lambda: q.pure_bitstring_state("010110", 6, name="mybits"),
        lambda: q.tensor_power_state(q.DensityOperator.diagonal(np.array([0.7, 0.3])), 6, name="pw"),
    ],
)
def test_replay_keeps_the_saved_name(make):
    state = make()
    obj = state_to_json(state)
    replayed = state_from_json(obj)
    assert replayed.name == state.name
    assert state_to_json(replayed) == obj


# one builtin per registry kind; a kind missing here fails the coverage check below
BUILTINS = {
    "tracial": "builtin:tracial(n=8)",
    "pure": "builtin:pure(seed=4,n=8)",
    "block": "builtin:block(n=8)",
    "tensor_power": "builtin:tensor-power(probs=0.6:0.3:0.1:0,n=8)",
    "measure": "builtin:measure(density=logpow3,n=8)",
}


def test_registry_builtins_cover_every_kind():
    assert set(BUILTINS) == set(STATE_KINDS)


@pytest.mark.parametrize("kind", sorted(STATE_KINDS))
def test_registry_cli_and_json_paths_agree(kind, rng):
    state = load_state(BUILTINS[kind])
    obj = state_to_json(state)
    assert obj["constructor"]["kind"] == kind
    assert obj["repr"] == "diag"  # every builtin's levels are diagonal
    replayed = state_from_json(obj)
    for n in (1, 4, 8):
        assert np.array_equal(replayed.density(n).probs, state.density(n).probs)
    if kind == "tensor_power":
        # a non-diagonal factor gives dense levels, and the file says so
        dense = q.tensor_power_state(random_density_oracle(rng, 2), 4)
        assert state_to_json(dense)["repr"] == "dense"


def test_registry_rejects_unknown_kind():
    with pytest.raises(ValueError):
        load_state("builtin:nope(n=4)")
    with pytest.raises(ValueError):
        state_from_json({"name": "x", "n_max": 4, "constructor": {"kind": "nope", "n_max": 4}})


def test_custom_density_state_falls_back_to_per_level_dump():
    spec = q.DensitySpec(density=lambda x: 2.0 * np.asarray(x, dtype=float), name="ramp")
    state = q.measure_state(spec, 6)
    obj = state_to_json(state)
    assert "per_n" in obj  # the recipe is not reconstructible from a name
    replayed = state_from_json(obj)
    assert np.allclose(replayed.density(6).probs, state.density(6).probs)


def test_log_power_names_are_unchanged():
    for p, name in ((2, "log-power-2"), (3.0, "log-power-3"), (2.5, "log-power-2.5")):
        state = q.measure_state(q.log_power_density(p), 4)
        assert state.name == name
        assert state_to_json(state)["constructor"]["density"] == name


@pytest.mark.parametrize("p", [2.5000001, 2.0000001])
def test_measure_state_replays_its_exact_exponent(p):
    state = q.measure_state(q.log_power_density(p), 6)
    obj = state_to_json(state)
    assert float(obj["constructor"]["density"].removeprefix("log-power-")) == p
    replayed = state_from_json(obj)
    assert np.array_equal(replayed.density(6).probs, state.density(6).probs)


def test_a_density_named_like_a_builtin_is_dumped_per_level():
    ramp = q.DensitySpec(
        density=lambda x: 2.0 * np.asarray(x, dtype=float),
        antiderivative=lambda x: np.asarray(x, dtype=float) ** 2,
        name="log-power-2",
    )
    obj = state_to_json(q.measure_state(ramp, 4))
    assert "per_n" in obj and "constructor" not in obj
    replayed = state_from_json(obj)
    assert np.abs(replayed.density(3).probs - np.diff(np.linspace(0, 1, 9) ** 2)).max() < 1e-15


def test_state_per_level_dump(rng):
    levels = [random_density_oracle(rng, 1), random_density_oracle(rng, 2)]
    levels[1] = q.tensor(levels[0], random_density_oracle(rng, 1))  # make it coherent
    state = q.explicit_state("explicit", levels)
    obj = state_to_json(state)
    assert "per_n" in obj
    replayed = state_from_json(obj)
    for n in (1, 2):
        assert np.abs(replayed.density(n).matrix - state.density(n).matrix).max() < 1e-12


def test_per_level_dump_repr_says_whether_every_level_is_diagonal(rng):
    diag = [q.DensityOperator.diagonal(np.array([0.5, 0.5])),
            q.DensityOperator.diagonal(np.full(4, 0.25))]
    assert state_to_json(q.explicit_state("diag", diag))["repr"] == "diag"
    dense = [q.DensityOperator.dense(np.eye(2) / 2), diag[1]]
    assert state_to_json(q.explicit_state("mixed", dense))["repr"] == "dense"
    ramp = q.DensitySpec(density=lambda x: 2.0 * np.asarray(x, dtype=float), name="ramp")
    assert state_to_json(q.measure_state(ramp, 4))["repr"] == "diag"


def test_projection_roundtrips(rng):
    basis = q.Projection.from_basis(3, [0, 5])
    assert projection_from_json(projection_to_json(basis)) == basis
    product = q.Projection.from_factors([(2, [0, 1]), (2, [3])])
    back = projection_from_json(projection_to_json(product))
    assert back == product and back.rank == 2 and back.qubits == 4
    d = random_density_oracle(rng, 2)
    dense = q.top_k_projector(q.eigendecompose(d), 2)
    assert projection_from_json(projection_to_json(dense)) == dense  # JSON floats round-trip exactly
    # the stored layout is part of the value, and a stored form never equals another form
    assert basis != product and dense != q.Projection.from_basis(2, [0, 1])
    assert q.Projection.from_basis(2, [0, 1]) != q.Projection.from_factors([(1, [0]), (1, [0, 1])])
    # a file that writes a one-block product as "product" loads to its basis form
    one_block = {"qubits": 3, "kind": "product", "factors": [{"qubits": 3, "indices": [5, 0]}]}
    assert projection_from_json(one_block) == basis


def test_qs_test_roundtrip():
    test = q.block_test_sequence(4)
    back = projection_test_from_json(projection_test_to_json(test))
    assert isinstance(back, q.QSTest)
    assert projection_test_to_json(test)["certificate"] == {"type": "geometric"}
    assert back.seq.terms == test.seq.terms
    assert q.validate_qstest(back, 4).valid
    # a file that states no certificate carries the geometric one
    bare = {k: v for k, v in projection_test_to_json(test).items() if k != "certificate"}
    assert projection_test_from_json(bare).seq.terms == test.seq.terms


def test_block_test_file_in_its_earlier_layout_still_weighs_one():
    # orders 1-4 written as (i+1)-qubit blocks: the marker qubit pinned, i free qubits
    terms = [
        {"m": m, "n_m": q.block_checkpoint(m), "projector": {
            "qubits": q.block_checkpoint(m), "kind": "product",
            "factors": [{"qubits": i + 1, "indices": list(range(1 << i))} for i in range(1, m + 1)],
        }}
        for m in range(1, 5)
    ]
    old = projection_test_from_json({"kind": "qs", "terms": terms})
    now = q.block_test_sequence(4)
    assert [t.projector.rank for t in old.seq.terms] == [t.projector.rank for t in now.seq.terms]
    assert old.seq.terms != now.seq.terms  # same subspaces, different stored layouts
    report = q.evaluate_failure(q.block_state(44), old, 0.9, 4)
    assert report.weights == (1.0,) * 4


def test_s_test_roundtrip():
    z = q.pure_bitstring_state(q.prng_bits(24, 11), 24)
    out = q.build_s_test(z, "1/2", "1/10", "1/2", 4, 24)
    obj = projection_test_to_json(out.test)
    assert obj["kind"] == "s" and obj["s"] == 0.5
    assert all(set(t) == {"m", "n_m", "projector"} for t in obj["terms"])
    back = projection_test_from_json(obj)
    assert back.weight_partial_sums == out.test.weight_partial_sums


def test_null_condition_roundtrip():
    cond = q.block_test_sequence(3).as_null_condition()
    back = projection_test_from_json(projection_test_to_json(cond))
    assert isinstance(back, q.NullCondition)
    assert len(back.seq.terms) == 3


def test_format_real_17_digits():
    assert format_real(1 / 3) == "0.33333333333333331"
    assert format_real(1.0) == "1"
    assert format_real(2.0**-8) == "0.00390625"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(
        path,
        ["a", "b"],
        [(1, 0.5), (2, 1 / 3)],
        experiment={"cmd": "demo"},
        trailer="done",
    )
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# spec_hash=") and len(lines[0]) == len("# spec_hash=") + 12
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5"
    assert lines[3] == "2,0.33333333333333331"
    assert lines[4] == "# done"


def test_spec_hash_stable_and_sensitive():
    a = spec_hash({"x": 1, "y": [1, 2]})
    assert a == spec_hash({"y": [1, 2], "x": 1})
    assert a != spec_hash({"x": 2, "y": [1, 2]})
