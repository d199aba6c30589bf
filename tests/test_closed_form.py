"""Closed-form top-k masses of log-power measure states, and UI profiles past 24 qubits.

Expected values come from the materialised spectrum (depth <= 20), the
mpmath oracle in `conftest.py` (depths 30-500,000), Ky Fan monotonicity
and the closed-form p = 2 moduli; never from the closed form itself.
"""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import qubitlab as q
from qubitlab.cli import EXIT_VALIDATION, main
from qubitlab.linalg import BadDimensionError, DimensionCapError
from qubitlab.states import CLOSED_FORM_QUBIT_CAP, TOP_K_ERROR

from conftest import log_power_top_k_oracle

PS = (1.5, 2, 2.5, 3, 10)


def test_a_split_guess_moves_a_top_k_mass_only_within_its_error_bound():
    # asking (n-1, k/2) first seeds the split search of (n, k), which may then
    # stop at another point of a tie: at p = 2, n = 48 and k = 2^46 the two
    # answers differ in the last bit; two first queries agree bit for bit
    for p in (1.5, 2, 3):
        for n in range(44, 57):
            for k in ((1 << (n - 2)) - 1, 1 << (n - 2), (1 << (n - 3)) + 1):
                fresh = q.measure_state(q.log_power_density(p), n).top_k_mass(n, k)
                again = q.measure_state(q.log_power_density(p), n).top_k_mass(n, k)
                warm = q.measure_state(q.log_power_density(p), n)
                warm.top_k_mass(n - 1, k >> 1)
                assert again == fresh, (p, n, k)
                assert abs(warm.top_k_mass(n, k) - fresh) <= TOP_K_ERROR, (p, n, k)


@pytest.mark.parametrize("p", PS)
def test_top_k_mass_matches_materialised_spectrum(p):
    rng = np.random.default_rng(int(10 * p))
    spec = q.log_power_density(p)
    state = q.measure_state(spec, 20)
    for n in range(1, 21):
        desc = np.sort(spec.cylinder_masses(n))[::-1]
        ks = {1 << (n - m) for m in range(n + 1)} | set(rng.integers(1, 1 << n, 8).tolist())
        for k in sorted(ks):
            assert abs(state.top_k_mass(n, k) - q.top_k_sum(desc, k)) <= 1e-12, (n, k)
    assert not state._cache and not state._spectra


@pytest.mark.parametrize("p", (1.5, 2, 3, 10, 100))
def test_top_k_mass_matches_mpmath_oracle(p):
    rng = np.random.default_rng(int(p))
    state = q.measure_state(q.log_power_density(p), 300)
    for n in (30, 64, 150, 300):
        ks = [1 << (n - m) for m in (1, 3, 7)]
        ks += [1, (1 << n) - 1, int(rng.integers(1, 1 << 29)) << (n - 29)]
        for k in ks:
            assert abs(state.top_k_mass(n, k) - log_power_top_k_oracle(p, n, k)) <= TOP_K_ERROR


@pytest.mark.parametrize("p", (1.5, 2, 3, 10, 100))
def test_top_k_mass_matches_mpmath_oracle_past_the_float_range(p):
    # past ~1,074 qubits a cell's width 2^-n and 1/index leave the float range
    rng = np.random.default_rng(int(p))
    state = q.measure_state(q.log_power_density(p), 3000)
    shallow, deep = 1100, 3000
    cases = [
        (shallow, 1 << (shallow - 1)),
        (shallow, 1 << (shallow - 7)),
        (shallow, int(rng.integers(1, 1 << 29)) << (shallow - 29)),
        (deep, 1),
        (deep, 1 << (deep - 3)),
        (deep, (1 << deep) - 1),
    ]
    for n, k in cases:
        assert abs(state.top_k_mass(n, k) - log_power_top_k_oracle(p, n, k)) <= TOP_K_ERROR


@pytest.mark.parametrize("p", (1.5, 3, 100))
def test_top_k_mass_matches_mpmath_oracle_to_the_cap(p):
    # past 62 qubits the split is searched on a grid of 2^(n-62)-cell steps, so
    # powers of two and odd ks both above and below one step
    state = q.measure_state(q.log_power_density(p), CLOSED_FORM_QUBIT_CAP)
    for n in (20_000, 50_000, 100_000, 200_000, 500_000):
        ks = [1 << (n - 1), 1 << (n - 5), 1 << (n - 100), (1 << (n - 3)) + 1, (1 << n) // 3,
              (1 << (n - 300)) // 3, 3, (1 << n) - 1]
        for k in ks:
            assert abs(state.top_k_mass(n, k) - log_power_top_k_oracle(p, n, k)) <= 1e-15, (n, k)


@pytest.mark.parametrize("p", (1.5, 3, 100))
def test_oracle_forms_agree(p):
    # the deep oracle's cancellation-free cell masses against the direct differences
    for n in (30, 120):
        for k in (1, 1 << (n - 1), 1 << (n - 5), (1 << n) - 3):
            direct = log_power_top_k_oracle(p, n, k, direct=True)
            assert abs(log_power_top_k_oracle(p, n, k, direct=False) - direct) <= 1e-15


@pytest.mark.parametrize("p", (2, 3))
def test_prefix_integrals_non_decreasing_in_depth(p):
    # Ky Fan: level n is a partial trace of level n+1, so its top-k mass is at
    # most the top-2k mass one level up
    fam = q.step_family(q.measure_state(q.log_power_density(p), 400), 400)
    for m in (1, 2, 5, 9):
        values = [q.prefix_integral(fam, n, m) for n in range(m, 401)]
        assert all(b >= a - 2 * TOP_K_ERROR for a, b in zip(values, values[1:])), m


@pytest.mark.parametrize("depth", (200, 900, 5000, 500_000))
def test_deep_p2_moduli_equal_closed_form(depth):
    state = q.measure_state(q.log_power_density(2), depth)
    profile = q.ui_profile(q.step_family(state, depth), [0.5, 0.25, 0.1], depth)
    for e in profile.entries:
        # the prefix mass of [0, 2^-m) is 1/(1 + m ln 2) <= delta at m >= (1/delta - 1) log2 e
        assert e.modulus == math.ceil((1 / e.delta - 1) * math.log2(math.e))
        assert e.epsilon == 2.0**-e.modulus
    # nothing was materialised on the way
    assert not state._cache and not state._spectra


def _oracle_moduli(p, n, deltas):
    masses = {}
    for m in range(1, n + 1):
        masses[m] = log_power_top_k_oracle(p, n, 1 << (n - m))
        if masses[m] <= min(deltas):
            break
    return [next(m for m in masses if masses[m] <= d) for d in deltas]


def test_deep_profile_reads_one_mass_per_order():
    # Ky Fan: each order's sup over depths is its value at the deepest level
    depth, deltas = 100_000, [0.5, 0.25, 0.1]
    spec = q.log_power_density(3)
    queries, closed_form = [], spec._top_k

    def counting(n, k):
        m = n + 1 - k.bit_length()
        queries.append((n, m) if k == 1 << (n - m) else (n, None))  # a UI query is k = 2^(n-m)
        return closed_form(n, k)

    state = q.measure_state(dataclasses.replace(spec, _top_k=counting), depth)
    family = q.step_family(state, depth)
    # past the level cap, construction asks the scan's deepest query once
    assert [n for n, _ in queries] == [depth]
    queries.clear()
    profile = q.ui_profile(family, deltas, depth)
    moduli = [e.modulus for e in profile.entries]
    assert moduli == _oracle_moduli(3, depth, deltas)
    assert queries == [(depth, m) for m in range(1, max(moduli) + 1)]


def test_cli_ui_profile_at_the_cap(tmp_path):
    out = tmp_path / "ui.csv"
    n = CLOSED_FORM_QUBIT_CAP
    start = time.perf_counter()
    proc = _cli("ui-profile", "--state", f"builtin:measure(density=logpow3,n={n})",
                "--depth", n, "--out", out)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [int(r[1]) for r in rows] == _oracle_moduli(3, n, [0.5, 0.25, 0.1])
    assert elapsed < 3.0  # a fresh interpreter; the profile itself is five queries


def test_deep_profile_refuses_an_uncertified_modulus():
    state = q.measure_state(q.log_power_density(3), 30)
    fam = q.step_family(state, 30)
    sup = max(q.prefix_integral(fam, n, 2) for n in range(2, 31))
    with pytest.raises(DimensionCapError, match="within"):
        q.ui_profile(fam, [0.5, sup + TOP_K_ERROR / 2], 30)
    clear = q.ui_profile(fam, [sup + 4 * TOP_K_ERROR], 30)
    assert clear.entries[0].modulus == 2
    # at a materialisable depth the closed form is no more certain, so the tie is refused too
    with pytest.raises(DimensionCapError, match="within"):
        q.ui_profile(q.step_family(state, 24), [sup], 24)


def test_a_shallow_closed_form_tie_is_refused():
    # delta is the top-2^18 mass of level 20, from the materialised masses;
    # the closed form answers it only to within TOP_K_ERROR, so m = 2 is no modulus
    spec = q.log_power_density(2)
    delta = q.top_k_sum(spec.cylinder_masses(20), 1 << 18)
    fam = q.step_family(q.measure_state(spec, 20), 20)
    with pytest.raises(DimensionCapError, match="within"):
        q.ui_profile(fam, [delta], 20)


def test_deep_cap_raises_dimension_cap_error():
    state = q.measure_state(q.log_power_density(3), 10**6)
    assert state.top_k_mass(CLOSED_FORM_QUBIT_CAP, 1) > 0
    for n in (CLOSED_FORM_QUBIT_CAP + 1, 2 * CLOSED_FORM_QUBIT_CAP, 10**6):
        start = time.perf_counter()
        with pytest.raises(DimensionCapError):
            state.top_k_mass(n, 1)
        # a family or profile past the cap is refused before any query
        with pytest.raises(DimensionCapError, match="qubits"):
            q.step_family(state, n)
        with pytest.raises(DimensionCapError, match="qubits"):
            q.ui_profile(q.StepFamily(state=state, depth=n), [0.5], n)
        assert time.perf_counter() - start < 1.0, n
    with pytest.raises(BadDimensionError, match="k=0"):
        state.top_k_mass(40, 0)


def test_a_step_family_past_the_cap_is_refused_at_construction():
    state = q.measure_state(q.log_power_density(3), 10**6)
    with pytest.raises(DimensionCapError, match="qubits"):
        q.StepFamily(state=state, depth=CLOSED_FORM_QUBIT_CAP + 1)
    assert q.StepFamily(state=state, depth=CLOSED_FORM_QUBIT_CAP).depth == CLOSED_FORM_QUBIT_CAP


def test_deep_measure_state_caps_only_materialised_queries():
    state = q.measure_state(q.log_power_density(2), 60)
    for query in (
        lambda: state.density(25),
        lambda: state.entropy(25),
        lambda: q.check_coherence(state, 25),
        lambda: state.eigensystem(25),  # where a builder's emitted term comes from
    ):
        with pytest.raises(DimensionCapError):
            query()
    # a scan that would reach past the cap is refused before it materialises anything
    for scan in (q.entropy_profile, q.check_coherence):
        with pytest.raises(DimensionCapError):
            scan(state, 30)
    assert not state._cache
    uniform = q.DensitySpec(density=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    custom = q.measure_state(uniform, 40)
    with pytest.raises(DimensionCapError):
        custom.density(25)


def test_builders_on_measure_states_materialise_only_emitted_levels():
    state = q.measure_state(q.log_power_density(3), 20)
    outcome = q.build_ui_test(state, 0.1, 6, 20)
    emitted = {t.qubits for t in outcome.test.seq.terms}
    assert emitted
    assert set(state._cache) == emitted == set(state._spectra)


def test_builder_past_the_cap_is_refused_before_any_level_is_decomposed():
    # the heaviest cell of level m has mass 1/(1 + m ln 2) > 1/100 for m < 143, so
    # order m emits from depth m, and order 25 is the first past the 24-qubit cap
    state = q.measure_state(q.log_power_density(2), 60)
    start = time.perf_counter()
    with pytest.raises(DimensionCapError, match="order 25 would emit from depth 25"):
        q.build_ui_test(state, "1/100", 30, 60)
    assert time.perf_counter() - start < 1.0
    assert not state._cache and not state._spectra


def test_concurrent_queries_share_one_state():
    # the split memo behind the search is shared by every thread using the state
    queries = [(n, m) for m in (1, 3, 6) for n in range(m, 301)]
    expected = [q.measure_state(q.log_power_density(3), 300).top_k_mass(n, 1 << (n - m))
                for n, m in queries]
    state = q.measure_state(q.log_power_density(3), 300)
    results, interval = {}, sys.getswitchinterval()

    def work(t):
        order = queries[::-1] if t % 2 else queries
        results[t] = {nm: state.top_k_mass(nm[0], 1 << (nm[0] - nm[1])) for nm in order}

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 6
    for got in results.values():
        assert all(abs(got[nm] - e) <= TOP_K_ERROR for nm, e in zip(queries, expected))


def test_prefix_integral_rejects_bad_orders_and_depths():
    fam = q.step_family(q.tracial_state(5), 5)
    with pytest.raises(ValueError, match="m=-1"):
        q.prefix_integral(fam, 3, -1)
    with pytest.raises(BadDimensionError, match="depth 9"):
        q.prefix_integral(fam, 9, 2)
    with pytest.raises(BadDimensionError, match="depth 6"):
        fam.member(6)
    assert q.prefix_integral(fam, 4, 0) == 1


def _cli(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(q.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "qubitlab.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_cli_ui_profile_past_the_diagonal_cap(tmp_path):
    out = tmp_path / "ui.csv"
    proc = _cli("ui-profile", "--state", "builtin:measure(density=logpow3,n=200)",
                "--depth", 200, "--out", out)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [int(r[1]) for r in rows] == [2, 3, 5]
    n = CLOSED_FORM_QUBIT_CAP + 1
    argv = ["ui-profile", "--state", f"builtin:measure(density=logpow3,n={n})",
            "--depth", n, "--out", tmp_path / "deep.csv"]
    proc = _cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "qubits" in proc.stderr
    start = time.perf_counter()
    assert main(list(map(str, argv))) == EXIT_VALIDATION
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "deep.csv").exists()
