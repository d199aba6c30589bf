import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import qubitlab as q
from qubitlab.linalg import DimensionCapError

from conftest import (
    entropy_oracle,
    flatten_scan_oracle,
    random_density_oracle,
    random_descending,
    ui_moduli_oracle,
)


# --- flattening -----------------------------------------------------------------


def test_flatten_uniform_is_fixed_point():
    alpha = np.full(16, 1 / 16)
    out = q.flatten_distribution(alpha, 0.5)
    assert np.allclose(out.r, alpha)
    assert out.xi_index == 16
    assert out.mass == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.p, alpha)


def test_flatten_point_mass():
    alpha = np.zeros(16)
    alpha[0] = 1.0
    out = q.flatten_distribution(alpha, 0.5)
    assert np.array_equal(out.r, alpha)
    assert np.array_equal(out.p, alpha)
    assert out.xi_index == 1


def test_flatten_worked_example():
    alpha = np.array([0.4, 0.3, 0.2, 0.1])
    out = q.flatten_distribution(alpha, 0.5)  # cut = ceil(2^(2*0.5)) = 2
    assert out.cut == 2
    expected = flatten_scan_oracle(alpha, 2)
    assert np.allclose(out.r, expected)
    assert np.allclose(out.r, [0.4, 0.3, 0.3, 0.0])
    assert out.xi_index == 3


@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
@settings(max_examples=60, deadline=None)
def test_flatten_invariants_random(seed, n):
    alpha = random_descending(np.random.default_rng(seed), 1 << n)
    out = q.flatten_distribution(alpha, 0.5)
    cut = out.cut
    assert np.array_equal(out.r[:cut], alpha[:cut])
    pad = out.r[cut : out.xi_index]
    assert np.allclose(pad, alpha[cut - 1])
    assert np.all(out.r[out.xi_index :] == 0.0)
    assert 1 - alpha[cut - 1] - 1e-9 <= out.mass <= 1 + 1e-9
    assert out.p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(out.r, flatten_scan_oracle(alpha, cut), atol=1e-15)
    # the flattening never gains entropy over the original
    assert entropy_oracle(out.p) <= entropy_oracle(alpha) + 1e-9


def test_flatten_rejects_unsorted():
    with pytest.raises(ValueError):
        q.flatten_distribution(np.array([0.1, 0.9]), 0.5)


# --- entropy lower bound -----------------------------------------------------------


def test_lower_bound_uniform_worked_example():
    alpha = np.full(1 << 10, 2.0**-10)
    check = q.check_entropy_lower_bound(alpha, 0.5, 0.4)
    assert check.applicable  # top-32 mass is 2^-5 <= 0.4
    assert check.head_mass == pytest.approx(2.0**-5)
    expected_bound = (1 - 0.8) * (math.log2(0.6) - math.log2(0.4) + 5)
    assert check.bound == pytest.approx(expected_bound)
    assert check.bound == pytest.approx(1.117, abs=0.01)
    assert check.entropy == pytest.approx(10.0)
    assert check.satisfied()


def test_lower_bound_point_mass_inapplicable():
    alpha = np.zeros(16)
    alpha[0] = 1.0
    check = q.check_entropy_lower_bound(alpha, 0.5, 0.4)
    assert not check.applicable


def test_lower_bound_randomized(rng):
    accepted = 0
    while accepted < 300:
        alpha = random_descending(rng, 1 << 10)
        check = q.check_entropy_lower_bound(alpha, 0.5, 0.4)
        if not check.applicable:
            continue
        accepted += 1
        assert check.entropy > check.bound  # strict


def test_lower_bound_rejects_bad_delta():
    with pytest.raises(ValueError):
        q.check_entropy_lower_bound(np.full(4, 0.25), 0.5, 0.6)


# --- dominance ----------------------------------------------------------------------


def test_dominance_flattened_vs_original(rng):
    for _ in range(20):
        alpha = random_descending(rng, 64)
        flat = q.flatten_distribution(alpha, 0.5)
        assert q.uniformity_dominance(flat.p, alpha)
        assert entropy_oracle(alpha) >= entropy_oracle(flat.p) - 1e-9


def test_dominance_reflexive_and_rejects_mismatch():
    p = np.array([0.5, 0.5])
    assert q.uniformity_dominance(p, p)
    with pytest.raises(q.linalg.BadDimensionError):
        q.uniformity_dominance(p, np.array([1.0]))


def test_dominance_entropy_consequence_needs_monotone_inputs():
    # outside the non-increasing premise the entropy consequence can fail
    p = np.array([0.5, 0.5, 0.0])
    qq = np.array([0.1, 0.1, 0.8])
    assert q.uniformity_dominance(p, qq)  # pointwise on supp(p) only
    assert entropy_oracle(qq) < entropy_oracle(p)


# --- two-block averaging --------------------------------------------------------------


def test_two_block_average_fixed_points():
    uniform = np.full(8, 1 / 8)
    assert np.allclose(q.two_block_average(uniform, 2), uniform)
    point = np.zeros(8)
    point[0] = 1.0
    assert np.allclose(q.two_block_average(point, 3), point)


def test_two_block_average_hand_check():
    out = q.two_block_average(np.array([0.4, 0.3, 0.2, 0.1]), 1)
    assert np.allclose(out, [0.35, 0.35, 0.15, 0.15])
    assert out.sum() == pytest.approx(1.0)


@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
@settings(max_examples=60, deadline=None)
def test_two_block_average_properties(seed, n):
    rng = np.random.default_rng(seed)
    alpha = random_descending(rng, 1 << n)
    m = int(rng.integers(0, n + 1))
    out = q.two_block_average(alpha, m)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)
    k = 1 << (n - m)
    assert np.allclose(out[:k], out[0])
    assert entropy_oracle(out) >= entropy_oracle(alpha) - 1e-9


# --- entropy upper bound -----------------------------------------------------------------


def test_upper_bound_uniform_and_point_mass():
    uniform = np.full(1 << 6, 2.0**-6)
    check = q.check_entropy_upper_bound(uniform, 3)
    assert check.entropy == pytest.approx(6.0)
    assert check.bound == pytest.approx(1 - 3 * 2.0**-3 + 6)
    assert check.satisfied() and check.intermediate_satisfied()
    point = np.zeros(16)
    point[0] = 1.0
    check2 = q.check_entropy_upper_bound(point, 4)
    assert check2.entropy == 0.0 and check2.bound == pytest.approx(1.0)


def test_upper_bound_randomized(rng):
    for _ in range(300):
        n = int(rng.integers(2, 11))
        alpha = random_descending(rng, 1 << n, concentration=float(rng.uniform(0.2, 3)))
        m = int(rng.integers(1, n + 1))
        check = q.check_entropy_upper_bound(alpha, m)
        assert check.satisfied()
        assert check.intermediate_satisfied()


# --- step families -------------------------------------------------------------------------


def test_step_family_tracial_flat():
    fam = q.step_family(q.tracial_state(8), 8)
    for n in (1, 4, 8):
        for x in (0.0, 0.3, 0.99):
            assert fam.evaluate(n, x) == pytest.approx(1.0)
        assert float(fam.member(n).sum()) == pytest.approx(1.0, abs=1e-12)


def test_step_family_pure_spike():
    fam = q.step_family(q.pure_bitstring_state("11110000", 8), 8)
    for n in (2, 5, 8):
        assert fam.evaluate(n, 0.0) == pytest.approx(2.0**n)
        assert fam.evaluate(n, 0.9) == 0.0
        assert float(fam.member(n).sum()) == pytest.approx(1.0)


@pytest.mark.parametrize("make, n", [(q.tracial_state, 2**33), (q.block_state, 4 * 10**8)],
                         ids=["tracial", "block"])
def test_step_family_refuses_a_deep_one_valued_level_without_a_per_qubit_table(make, n):
    # the largest eigenvalue underflows, so the level is refused before its exact
    # multiplicities, 2^n-sized ints, are counted; timed apart from tracemalloc, which
    # slows the block state's walk over its runs tenfold
    state = make(n)
    start = time.perf_counter()
    with pytest.raises(DimensionCapError, match="keeps mass 0.0 in floats"):
        q.step_family(state, n)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapError, match="underflow"):
            q.step_family(state, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 1e6, (elapsed, peak)


def test_prefix_integral_values(fixture_states):
    fam_tr = q.step_family(fixture_states["tracial"], 10)
    for n in range(1, 11):
        for m in range(1, n + 1):
            assert q.prefix_integral(fam_tr, n, m) == pytest.approx(2.0**-m)
    fam_pure = q.step_family(fixture_states["pure"], 10)
    for n in range(1, 11):
        for m in range(1, n + 1):
            assert q.prefix_integral(fam_pure, n, m) == pytest.approx(1.0)
    fam_block = q.step_family(fixture_states["block"], 10)
    for m in (1, 2):  # checkpoints 2 and 5 sit below depth 10
        n = q.block_checkpoint(m)
        assert q.prefix_integral(fam_block, n, m) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        q.prefix_integral(fam_tr, 3, 4)


def test_prefix_integral_bridges_to_projection_weight(fixture_states):
    # integral over [0, 2^-m) == weight on the top-2^(n-m) eigenprojector
    for name, state in fixture_states.items():
        fam = q.step_family(state, 10)
        for n in range(1, 11):
            spec = q.eigendecompose(state.density(n))
            for m in range(1, n + 1):
                proj = q.top_k_projector(spec, 1 << (n - m))
                lhs = q.prefix_integral(fam, n, m)
                rhs = q.projection_weight(state.density(n), proj)
                assert lhs == pytest.approx(rhs, abs=1e-10), (name, n, m)


def test_prefix_bound_dominates_interval_unions(rng):
    # for non-increasing steps, any union of cells of total measure 2^-m
    # integrates at most the prefix of the same measure
    for _ in range(100):
        n = int(rng.integers(3, 9))
        alpha = random_descending(rng, 1 << n)
        m = int(rng.integers(1, n + 1))
        cells = rng.choice(1 << n, size=1 << (n - m), replace=False)
        union_integral = float(alpha[cells].sum())
        assert union_integral <= float(alpha[: 1 << (n - m)].sum()) + 1e-12


# --- ui profiles -----------------------------------------------------------------------------


def test_ui_profile_tracial_exact_moduli():
    fam = q.step_family(q.tracial_state(12), 12)
    profile = q.ui_profile(fam, [0.5, 0.25, 0.1], 12)
    expected = {0.5: 1, 0.25: 2, 0.1: 4}  # ceil(log2(1/delta))
    for entry in profile.entries:
        assert entry.modulus == expected[entry.delta]
        assert entry.epsilon == 2.0**-expected[entry.delta]


def test_ui_profile_pure_never_integrable():
    fam = q.step_family(q.pure_bitstring_state(q.prng_bits(20, 2), 20), 20)
    profile = q.ui_profile(fam, [0.9, 0.5, 0.1], 20)
    assert all(entry.modulus is None for entry in profile.entries)


def test_ui_profile_measure_state_matches_closed_form():
    spec = q.log_power_density(2)
    fam = q.step_family(q.measure_state(spec, 20), 20)
    profile = q.ui_profile(fam, [0.5, 0.25, 0.1], 20)
    for entry in profile.entries:
        # closed form: prefix mass 1/(1 - ln eps) <= delta  =>  m >= (1/delta - 1) log2 e
        closed = math.ceil((1 / entry.delta - 1) * math.log2(math.e))
        assert entry.modulus is not None
        assert abs(entry.modulus - closed) <= 1


def test_ui_profile_moduli_monotone_in_delta():
    fam = q.step_family(q.measure_state(q.log_power_density(3), 16), 16)
    profile = q.ui_profile(fam, [0.5, 0.3, 0.2, 0.1], 16)
    moduli = [e.modulus for e in profile.entries]
    assert all(m is not None for m in moduli)
    assert moduli == sorted(moduli)


def test_ui_profile_rejects_depth_beyond_family():
    fam = q.step_family(q.tracial_state(5), 5)
    with pytest.raises(ValueError, match=r"lacks depths \[6\]"):
        q.ui_profile(fam, [0.5], 6)
    assert q.ui_profile(fam, [0.5], 4).entries[0].modulus == 1  # shallower depths still fine


def _dense_ui_cases():
    rng = np.random.default_rng(11)
    top = random_density_oracle(rng, 7)
    levels = [top]
    while levels[-1].qubits > 1:
        levels.append(q.partial_trace_last(levels[-1]))
    factor = random_density_oracle(rng, 2)
    power = factor.dense_matrix()
    for _ in range(3):
        power = np.kron(power, factor.dense_matrix())
    return {
        "ginibre": (q.explicit_state("ginibre", levels[::-1]), top.dense_matrix()),
        "power-dense": (q.tensor_power_state(factor, 8), power),
    }


@pytest.mark.parametrize("key", ["ginibre", "power-dense"])
def test_ui_profile_moduli_equal_the_full_sup_oracle(key):
    # a state-backed profile reads each sup at the deepest level only (Ky Fan);
    # the oracle takes the sup over every level of its own partial traces
    state, top = _dense_ui_cases()[key]
    depth = state.max_depth
    deltas = [0.9, 0.75, 0.5, 0.3, 0.2, 0.1, 0.05]
    profile = q.ui_profile(q.step_family(state, depth), deltas, depth)
    assert [e.modulus for e in profile.entries] == ui_moduli_oracle(top, deltas)


def test_ui_profile_refuses_a_deep_request_at_once():
    # a state-backed family checks its depth without listing every level
    fam = q.step_family(q.tracial_state(5), 5)
    with pytest.raises(ValueError, match=r"lacks depths \[6, \.\.\., 1000000000000\]"):
        q.ui_profile(fam, [0.5], 10**12)


def _block_markers(n: int) -> int:
    """B(n): block m ends with the checkpoint m + m(m+1)/2, a marker qubit (from 0)."""
    return sum(1 for m in range(n) if m + m * (m + 1) // 2 < n)


@pytest.mark.parametrize("depth", [25, 44, 77, 200, 300, 1000])
def test_ui_profile_decides_exact_ties_on_deep_block_levels(depth):
    # level n is uniform on 2^(n - B) strings, so the top 2^(n-m) mass is exactly
    # 2^(B - m) once m >= B: delta 0.5 ties at m = B + 1, and must be decided there
    deltas = [0.5, 0.25, 0.1]
    b = _block_markers(depth)
    profile = q.ui_profile(q.step_family(q.block_state(depth), depth), deltas, depth)
    expected = [b + math.ceil(math.log2(1 / d)) for d in deltas]
    assert [e.modulus for e in profile.entries] == expected


def test_ui_profile_decides_exact_ties_on_a_deep_tracial_level():
    fam = q.step_family(q.tracial_state(1000), 1000)
    assert [e.modulus for e in q.ui_profile(fam, [0.5, 0.25, 0.1], 1000).entries] == [1, 2, 4]


# --- entropy gaps ------------------------------------------------------------------------------


def test_entropy_gap_uniform_is_zero():
    spec = q.DensitySpec(
        density=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        antiderivative=lambda x: np.asarray(x, dtype=float),
        name="uniform",
    )
    for n in (1, 5, 10):
        assert q.entropy_gap(spec, n) == pytest.approx(0.0, abs=1e-9)


def test_entropy_gap_small_depth_against_quadrature_oracle():
    # independent oracle: every cell away from the singular endpoint by
    # adaptive quadrature of the density itself; the leftmost cell by mass
    # conservation (total mass 1 is the construction contract, and the
    # density decays too slowly near 0 for direct numerics there)
    spec = q.log_power_density(2)
    n = 6
    edges = np.linspace(0, 1, (1 << n) + 1)
    regular = np.array(
        [
            quad(spec.density, a, b, epsabs=1e-13, limit=200)[0]
            for a, b in zip(edges[1:-1], edges[2:])
        ]
    )
    masses = np.concatenate([[1.0 - regular.sum()], regular])
    oracle_gap = entropy_oracle(masses) - n
    assert q.entropy_gap(spec, n) == pytest.approx(oracle_gap, abs=1e-8)
    # and the library's own cells match the quadrature cells one by one
    assert np.abs(spec.cylinder_masses(n)[1:] - regular).max() < 1e-10


def test_entropy_gap_divergent_density_decreases():
    curve = q.entropy_gap_curve(q.log_power_density(2), 14, start=2)
    gaps = [g for _, g in curve]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_entropy_gap_finite_density_approaches_quadrature_limit():
    from qubitlab.cli import log_power_entropy_integral

    spec = q.log_power_density(3)
    limit = log_power_entropy_integral(3.0)
    gaps = [q.entropy_gap(spec, n) for n in (8, 12, 16)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(g > limit for g in gaps)
    # the gap at depth 16 is already within a quarter bit of the limit
    assert abs(gaps[-1] - limit) < 0.25
