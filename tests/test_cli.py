import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qubitlab as q
from qubitlab.cli import (
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    load_state,
    log_power_entropy_integral,
    main,
)
from qubitlab.serialize import dump_json, state_to_json

from conftest import power_spectrum_oracle, random_density_oracle


#: the source root of the package under test, for fresh interpreters
SRC = Path(q.__file__).resolve().parents[1]


def run(*argv):
    return main([str(a) for a in argv])


# --- state resolution -------------------------------------------------------------


def test_load_state_builtins():
    assert load_state("builtin:tracial(n=6)").max_depth == 6
    pure = load_state("builtin:pure(bits=010101,n=6)")
    assert np.allclose(pure.density(2).probs, [0, 1, 0, 0])
    seeded = load_state("builtin:pure(seed=3,n=8)")
    assert seeded.max_depth == 8
    power = load_state("builtin:tensor-power(probs=0.9:0.1,n=6)")
    assert power.entropy(2) == pytest.approx(2 * q.shannon_entropy([0.9, 0.1]))
    measure = load_state("builtin:measure(density=logpow2,n=6)")
    assert measure.density(1).probs[0] == pytest.approx(0.5906161091496412)


def test_load_state_json_file(tmp_path):
    from qubitlab.serialize import dump_json, state_to_json

    path = tmp_path / "state.json"
    dump_json(path, state_to_json(q.block_state(10)))
    state = load_state(str(path))
    assert state.max_depth == 10 and state.entropy(9) == pytest.approx(6.0)


def test_dense_power_file_replays_an_entropy_profile_past_the_dense_cap(tmp_path):
    factor = random_density_oracle(np.random.default_rng(21), 2)
    path, out = tmp_path / "power.json", tmp_path / "profile.csv"
    dump_json(path, state_to_json(q.tensor_power_state(factor, 100_000)))
    assert json.loads(path.read_text())["repr"] == "dense"
    assert run("entropy-profile", "--state", path, "--depth", 100_000, "--out", out) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 100_000 + 1
    n, h, _ = lines[-2].split(",")
    _, copy = power_spectrum_oracle(factor.matrix, 2)
    assert n == "100000" and abs(float(h) - 50_000 * copy) <= 1e-9 * 100_000


def test_load_state_rejects_unknown():
    with pytest.raises(ValueError):
        load_state("builtin:wat(n=3)")


# --- commands ----------------------------------------------------------------------


def test_entropy_profile_command(tmp_path):
    out = tmp_path / "profile.csv"
    code = run(
        "entropy-profile", "--state", "builtin:block(n=20)", "--depth", 20,
        "--window", 5, "--out", out,
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# spec_hash=")
    assert lines[1] == "n,H,H_over_n"
    assert len(lines) == 2 + 20 + 1
    assert lines[-1].startswith("# rate_estimate=")


def test_build_and_evaluate_roundtrip(tmp_path):
    test_path = tmp_path / "test.json"
    state = "builtin:pure(bits=01101001100101101001,n=20)"
    code = run(
        "build-test", "--kind", "deficiency", "--state", state, "--terms", 8,
        "--depth", 20, "--theta", "1/2", "--delta", "1/2", "--out", test_path,
    )
    assert code == EXIT_OK
    payload = json.loads(test_path.read_text())
    assert payload["certificate"] == {"type": "geometric"}
    assert payload["build"]["exhausted"] == []
    assert [t["n_m"] for t in payload["terms"]] == [3, 5, 7, 9, 11, 13, 15, 17]
    for cert in payload["build"]["certificates"]:
        assert cert["tau"] < 2.0 ** -cert["m"]
        assert cert["rho"] > 0.5

    eval_path = tmp_path / "eval.csv"
    code = run(
        "evaluate", "--state", state, "--test", test_path, "--delta", 0.5,
        "--out", eval_path,
    )
    assert code == EXIT_OK
    lines = eval_path.read_text().splitlines()
    assert lines[1] == "m,n_m,tau,rho,witness"
    assert lines[-1].startswith("# witnesses=8/8")


def test_build_test_other_kinds(tmp_path):
    state = "builtin:pure(seed=3,n=24)"
    code = run(
        "build-test", "--kind", "s", "--state", state, "--terms", 4, "--depth", 24,
        "--s", "1/2", "--t", "1/10", "--delta", "1/2", "--out", tmp_path / "s.json",
    )
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["kind"] == "s" and len(payload["terms"]) == 4

    code = run(
        "build-test", "--kind", "ui", "--state", "builtin:tracial(n=20)", "--terms", 8,
        "--depth", 20, "--delta", "1/10", "--out", tmp_path / "ui.json",
    )
    assert code == EXIT_EXHAUSTED  # orders 4.. cannot be pinned
    payload = json.loads((tmp_path / "ui.json").read_text())
    assert [t["m"] for t in payload["terms"]] == [1, 2, 3]
    assert payload["certificate"] == {"type": "geometric"}


def test_build_test_exhaustion_exit_code(tmp_path):
    code = run(
        "build-test", "--kind", "deficiency", "--state", "builtin:tracial(n=20)",
        "--terms", 8, "--depth", 20, "--theta", "1/2", "--delta", "1/2",
        "--out", tmp_path / "t.json",
    )
    assert code == EXIT_EXHAUSTED
    payload = json.loads((tmp_path / "t.json").read_text())
    assert payload["build"]["exhausted"] == list(range(1, 9))


def test_entropy_profile_json_format(tmp_path):
    out = tmp_path / "profile.json"
    code = run(
        "entropy-profile", "--state", "builtin:tracial(n=8)", "--depth", 8,
        "--window", 4, "--out", out, "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["rate_estimate"]["value"] == 1.0
    assert [row["n"] for row in payload["profile"]] == list(range(1, 9))


def test_evaluate_s_test_csv(tmp_path):
    state = "builtin:pure(seed=3,n=24)"
    run(
        "build-test", "--kind", "s", "--state", state, "--terms", 4, "--depth", 24,
        "--s", "1/2", "--t", "1/10", "--delta", "1/2", "--out", tmp_path / "s.json",
    )
    code = run(
        "evaluate", "--state", state, "--test", tmp_path / "s.json", "--delta", 0.5,
        "--out", tmp_path / "eval.csv",
    )
    assert code == EXIT_OK
    assert (tmp_path / "eval.csv").read_text().splitlines()[-1].startswith("# witnesses=4/4")


def test_ui_profile_command(tmp_path):
    out = tmp_path / "ui.csv"
    code = run(
        "ui-profile", "--state", "builtin:tracial(n=12)", "--depth", 12,
        "--deltas", "0.5,0.25,0.1", "--out", out,
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows[0] == ["delta", "modulus_m", "epsilon", "verdict"]
    moduli = {float(r[0]): int(r[1]) for r in rows[1:]}
    assert moduli == {0.5: 1, 0.25: 2, 0.1: 4}


def test_ui_profile_decides_exact_ties_past_the_diagonal_cap(tmp_path):
    # the first 44 block qubits hold 8 markers, so the moduli are 8 + log2(1/delta), rounded up
    out = tmp_path / "ui.csv"
    code = run(
        "ui-profile", "--state", "builtin:block(n=44)", "--depth", 44,
        "--deltas", "0.5,0.25,0.1", "--out", out,
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert {float(r[0]): int(r[1]) for r in rows} == {0.5: 9, 0.25: 10, 0.1: 12}


def test_ui_profile_refuses_a_level_whose_masses_underflow(tmp_path, capsys):
    out = tmp_path / "ui.csv"
    code = run(
        "ui-profile", "--state", "builtin:tracial(n=1200)", "--depth", 1200,
        "--deltas", "0.3,0.1", "--out", out,
    )
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: level 1200 keeps mass 0.0")
    assert not out.exists()


def test_ui_profile_refuses_an_incoherent_per_level_dump(tmp_path, capsys):
    # level 1 is [0.99, 0.01], but level 2 (uniform) traces to [1/2, 1/2]
    levels = [[0.99, 0.01]] + [[2.0**-n] * (1 << n) for n in range(2, 7)]
    path = tmp_path / "probe.json"
    dump_json(path, {"name": "probe", "n_max": 6, "per_n": [
        {"qubits": n, "repr": "diag", "data": p} for n, p in enumerate(levels, 1)]})
    out = tmp_path / "ui.csv"
    code = run("ui-profile", "--state", path, "--depth", 6, "--deltas", "0.9,0.5", "--out", out)
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: levels 1 and 2 of 'probe' are not coherent")
    assert not out.exists()


def test_validation_failure_exit_code(tmp_path):
    code = run(
        "entropy-profile", "--state", "builtin:nonsense(n=3)", "--depth", 3,
        "--out", tmp_path / "x.csv",
    )
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("args", [
    ("--kind", "ui", "--state", "builtin:tracial(n=10)", "--depth", "0", "--delta", "1/2"),
    ("--kind", "ui", "--state", "builtin:tracial(n=10)", "--depth", "10", "--terms", "-2"),
    ("--kind", "s", "--state", "builtin:tracial(n=10)", "--depth", "10", "--terms", "0"),
    ("--kind", "deficiency", "--state", "builtin:tracial(n=10)", "--depth", "10", "--delta", "2"),
    ("--kind", "ui", "--state", "builtin:block", "--delta", "0"),
    ("--kind", "ui", "--state", "builtin:block", "--delta", "1"),
])
def test_cli_build_test_rejects_degenerate_input(tmp_path, capsys, args):
    out = tmp_path / "t.json"
    assert main(["build-test", *args, "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_entropy_profile_names_a_depth_below_one(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code = run("entropy-profile", "--state", "builtin:block(n=10)", "--depth", 0, "--out", out)
    assert code == EXIT_VALIDATION
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["error: depth 0 is below 1"]


def test_cli_entropy_profile_past_the_block_cap_exits_2_with_one_line(tmp_path):
    # a fresh process under a 2 GiB address-space limit, so a per-qubit table would fail fast
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    out = tmp_path / "profile.csv"
    argv = [sys.executable, "-m", "qubitlab.cli", "entropy-profile", "--state", "builtin:tracial",
            "--depth", "9000000000", "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, preexec_fn=limit, timeout=60)
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert proc.stderr.splitlines() == [
        "error: 'tracial' has max_depth 9000000000, past the block cap 8589934592"]
    assert not out.exists()


def test_cli_evaluate_rejects_negative_terms(tmp_path, capsys):
    test_path = tmp_path / "test.json"
    state = "builtin:pure(bits=0110100110,n=10)"
    code = run("build-test", "--kind", "ui", "--state", state, "--terms", 3, "--depth", 10,
               "--out", test_path)
    assert code == EXIT_OK
    out = tmp_path / "eval.csv"
    assert run("evaluate", "--state", state, "--test", test_path, "--terms", -1,
               "--out", out) == EXIT_VALIDATION
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["error: depth -1 is below 0"]


def test_cli_evaluate_refuses_a_test_with_a_foreign_certificate(tmp_path, capsys):
    test_path, out = tmp_path / "test.json", tmp_path / "eval.csv"
    state = "builtin:pure(bits=0110100110,n=10)"
    assert run("build-test", "--kind", "ui", "--state", state, "--terms", 3, "--depth", 10,
               "--out", test_path) == EXIT_OK
    payload = json.loads(test_path.read_text())
    payload["certificate"] = {"type": "explicit", "values": [0.5, 0.75, 0.875]}
    dump_json(test_path, payload)
    assert run("evaluate", "--state", state, "--test", test_path, "--out", out) == EXIT_VALIDATION
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: unsupported certificate type 'explicit' for a qs test"]


def test_cli_evaluate_refuses_a_depth_past_the_state(tmp_path, capsys):
    state_path, test_path = tmp_path / "state.json", tmp_path / "test.json"
    dump_json(state_path, state_to_json(q.tracial_state(10)))
    assert run("build-test", "--kind", "ui", "--state", state_path, "--terms", 3,
               "--depth", 10, "--delta", "1/10", "--out", test_path) == EXIT_OK
    tables = []
    for depth in (None, 3, 10):
        out = tmp_path / f"eval-{depth}.csv"
        depth_args = () if depth is None else ("--depth", depth)
        assert run("evaluate", "--state", state_path, "--test", test_path, *depth_args,
                   "--out", out) == EXIT_OK
        tables.append(out.read_bytes())
    assert tables[0] == tables[1] == tables[2]
    capsys.readouterr()
    for state, depth in ((state_path, 11), (state_path, 500), ("builtin:tracial(n=10)", 40)):
        out = tmp_path / "refused.csv"
        assert run("evaluate", "--state", state, "--test", test_path, "--depth", depth,
                   "--out", out) == EXIT_VALIDATION
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: depth {depth} beyond max_depth 10"]


def test_every_cli_option_is_read_by_its_command():
    # an option the command never reads is a setting that changes nothing
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, p in sub.choices.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(p.get_default("func"))))
        read = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"
        }
        unread += [f"{name} {a.dest}" for a in p._actions if a.dest not in read | {"help"}]
    assert unread == []


@pytest.mark.parametrize("command, flag", [
    ("entropy-profile", "--seed"), ("build-test", "--seed"), ("evaluate", "--seed"),
    ("ui-profile", "--seed"), ("build-test", "--format"), ("evaluate", "--format"),
    ("ui-profile", "--format"),
])
def test_cli_refuses_options_its_command_does_not_read(tmp_path, command, flag):
    value = "5" if flag == "--seed" else "json"
    with pytest.raises(SystemExit) as exit_:
        main([command, "--state", "builtin:tracial(n=4)", "--out", str(tmp_path / "x"),
              flag, value])
    assert exit_.value.code == EXIT_VALIDATION


def test_replay_determinism(tmp_path):
    args = (
        "entropy-profile", "--state", "builtin:measure(density=logpow3,n=12)",
        "--depth", 12, "--out",
    )
    run(*args, tmp_path / "a.csv")
    run(*args, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_reproduce_svd_bound_deterministic(tmp_path):
    assert run("reproduce", "svd-bound", "--out", tmp_path / "r1", "--seed", 42) == EXIT_OK
    assert run("reproduce", "svd-bound", "--out", tmp_path / "r2", "--seed", 42) == EXIT_OK
    a = (tmp_path / "r1" / "svd_bound_sample.csv").read_bytes()
    b = (tmp_path / "r2" / "svd_bound_sample.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize(
    "name",
    ["block", "fstate-finite", "fstate-infinite", "tensor-power", "svd-bound",
     "typical-decay", "flatten-bounds"],
)
def test_reproduce_bundles_pass(tmp_path, name):
    code = run("reproduce", name, "--out", tmp_path / name, "--seed", 0)
    assert code == EXIT_OK
    summary = json.loads((tmp_path / name / "summary.json").read_text())
    assert summary["passed"]
    assert all(c["passed"] for c in summary["checks"])


def test_quadrature_entropy_integral_value():
    # at p=3 the entropy integral has the closed form -(1 - 1/(2 ln 2))
    import math

    assert log_power_entropy_integral(3.0) == pytest.approx(
        -(1 - 0.5 / math.log(2)), abs=1e-9
    )
    with pytest.raises(ValueError):
        log_power_entropy_integral(2.0)


def test_import_and_closed_form_densities_skip_scipy_integrate():
    # quadrature is loaded only where it runs; an antiderivative never needs it
    code = (
        "import sys\n"
        "import qubitlab.cli\n"
        "from qubitlab import log_power_density, measure_state\n"
        "measure_state(log_power_density(2), 8).spectrum(8)\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 10.0])
def test_entropy_integral_matches_mpmath_oracle(p):
    from conftest import log_power_entropy_integral_oracle

    assert abs(log_power_entropy_integral(p) - log_power_entropy_integral_oracle(p)) <= 1e-12


def test_reproduce_fstate_finite_skips_scipy_integrate(tmp_path):
    # the entropy integral is a closed form, so the bundle runs without quadrature
    code = (
        "import sys\n"
        "from qubitlab.cli import main\n"
        f"assert main(['reproduce', 'fstate-finite', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "gap_above_limit gap=" in proc.stdout and "limit=-0.278652" in proc.stdout


def test_block_bundle_and_basis_tests_skip_numpy_ma(tmp_path):
    # index sets are deduplicated without a bare np.unique, which loads numpy.ma
    test, out = str(tmp_path / "t.json"), str(tmp_path / "e.csv")
    code = (
        "import sys\n"
        "from qubitlab.cli import main\n"
        f"assert main(['reproduce', 'block', '--out', {str(tmp_path)!r}]) == 0\n"
        f"assert main(['build-test', '--kind', 'deficiency', '--state', 'builtin:pure',"
        f" '--out', {test!r}]) == 0\n"
        f"assert main(['evaluate', '--state', 'builtin:pure', '--test', {test!r},"
        f" '--out', {out!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
