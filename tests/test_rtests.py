import math
from fractions import Fraction

import numpy as np
import pytest

import qubitlab as q
from qubitlab.linalg import BadDimensionError

from conftest import binomial_top_sum_oracle, builder_plan_oracle, random_density_oracle


def uniform_top_sum(n: int, k: int) -> Fraction:
    """Exact top-k mass of the uniform spectrum on n qubits."""
    return Fraction(min(k, 1 << n), 1 << n)


def deficiency_admissible(n: int, m: int, theta: Fraction) -> bool:
    """Oracle for the deficiency builder's exact depth condition."""
    if n <= m:
        return False
    return 2 ** (n * theta.numerator) < ((1 << (n - m)) - 1) ** theta.denominator


# --- block test ------------------------------------------------------------------


def test_block_state_test_terms():
    t1 = q.block_state_test(1)
    assert t1.qubits == 2 and t1.projector.rank == 2
    for m in range(1, 9):
        term = q.block_state_test(m)
        assert term.qubits == q.block_checkpoint(m)
        assert q.tau_weight(term.projector) == 2.0**-m  # exact, no tolerance
        assert term.projector.rank == 1 << (term.qubits - m)


def test_block_state_full_weight():
    b = q.block_state(44)
    for m in range(1, 9):
        term = q.block_state_test(m)
        assert q.state_weight(b, term.qubits, term.projector) == pytest.approx(1.0, abs=1e-12)


def test_block_test_weight_on_tracial_equals_tau():
    # per-qubit factors regrouped against coarser projector blocks
    t = q.tracial_state(44)
    for m in (1, 3, 5, 8):
        term = q.block_state_test(m)
        w = q.state_weight(t, term.qubits, term.projector)
        assert w == pytest.approx(2.0**-m, abs=1e-15)


# --- validation -------------------------------------------------------------------


def test_validate_qstest_block_sequence():
    test = q.block_test_sequence(8)
    report = q.validate_qstest(test, 8)
    assert report.valid and not report.violations


def test_validate_qstest_flags_violation():
    # rank-1 projector on 2 qubits has tau 1/4 > 2^-3
    term = q.TestTerm(m=3, qubits=2, projector=q.Projection.from_basis(2, [0]))
    test = q.QSTest(seq=q.ProjectionSequence(terms=(term,)), budget="geometric")
    report = q.validate_qstest(test, 3)
    assert not report.valid
    assert report.violations[0][0] == 3


def test_validate_qstest_empty_and_unverified():
    empty = q.QSTest(seq=q.ProjectionSequence(terms=()), budget="geometric")
    assert q.validate_qstest(empty, 10).valid
    other = q.QSTest(seq=q.ProjectionSequence(terms=()), budget="mystery")
    assert q.validate_qstest(other, 10).status == "unverified"


def test_validate_qstest_explicit_partial_sums():
    terms = tuple(q.block_state_test(m) for m in (1, 2))
    sums = (0.5, 0.75)
    test = q.QSTest(seq=q.ProjectionSequence(terms=terms), budget="explicit", partial_sums=sums)
    assert q.validate_qstest(test, 2).valid
    bad = q.QSTest(
        seq=q.ProjectionSequence(terms=terms), budget="explicit", partial_sums=(0.5, 0.4)
    )
    assert not q.validate_qstest(bad, 2).valid


# --- evaluation --------------------------------------------------------------------


def test_evaluate_failure_block_vs_block_test():
    b = q.block_state(44)
    report = q.evaluate_failure(b, q.block_test_sequence(4), 0.9, 4)
    assert report.witnesses == (1, 2, 3, 4)
    assert all(w == pytest.approx(1.0, abs=1e-12) for w in report.weights)
    assert report.all_witness


def test_evaluate_failure_tracial_no_witnesses():
    t = q.tracial_state(44)
    report = q.evaluate_failure(t, q.block_test_sequence(6), 0.5, 6)
    assert report.witnesses == ()
    # for the uniform sequence the weight *is* the normalised rank
    assert list(report.weights) == [pytest.approx(2.0**-m) for m in range(1, 7)]


def test_tracial_never_witnesses_geometric_tests_at_half():
    # uniform weight equals the normalised rank, which geometric budgets cap
    # at 2^-m <= 1/2, so the witness set at delta = 1/2 is always empty
    t = q.tracial_state(20)
    z = q.pure_bitstring_state(q.prng_bits(20, 13), 20)
    built = q.build_entropy_deficiency_test(z, "1/2", "1/2", 6, 20).test
    for test in (q.block_test_sequence(5), built):
        report = q.evaluate_failure(t, test, 0.5, 6)
        assert report.witnesses == ()


def test_evaluate_failure_pure_prefix_projectors():
    bits = "0110100110"
    z = q.pure_bitstring_state(bits, 10)
    terms = tuple(
        q.TestTerm(m=m, qubits=m + 2, projector=q.Projection.from_basis(m + 2, [int(bits[: m + 2], 2)]))
        for m in range(1, 6)
    )
    test = q.QSTest(seq=q.ProjectionSequence(terms=terms), budget="geometric")
    report = q.evaluate_failure(z, test, 0.5, 5)
    assert report.witnesses == (1, 2, 3, 4, 5)
    assert all(w == 1.0 for w in report.weights)


def test_evaluate_depth_mismatch():
    t = q.tracial_state(3)
    with pytest.raises(BadDimensionError):
        q.evaluate_failure(t, q.block_test_sequence(3), 0.5, 3)


# --- deficiency builder ---------------------------------------------------------------


def test_deficiency_builder_on_pure_state():
    z = q.pure_bitstring_state(q.prng_bits(20, 3), 20)
    out = q.build_entropy_deficiency_test(z, "1/2", "1/2", 8, 20)
    assert out.complete
    # oracle: first admissible depths for theta=1/2 under the exact condition,
    # scanning upward with strictly increasing depths (rank mass is always 1)
    theta = Fraction(1, 2)
    expected = []
    n = 1
    for m in range(1, 9):
        while not deficiency_admissible(n, m, theta):
            n += 1
        expected.append(n)
        n += 1
    assert [t.qubits for t in out.test.seq.terms] == expected == [3, 5, 7, 9, 11, 13, 15, 17]
    for term in out.test.seq.terms:
        assert q.tau_weight(term.projector) < 2.0**-term.m
        assert q.state_weight(z, term.qubits, term.projector) > 0.5
    assert q.validate_qstest(out.test, 8).valid


def test_deficiency_builder_exhausts_on_tracial():
    t = q.tracial_state(20)
    out = q.build_entropy_deficiency_test(t, "1/2", "1/2", 8, 20)
    assert out.exhausted == tuple(range(1, 9))
    assert out.test.seq.terms == ()
    # oracle: the only depth with uniform top-ceil(2^(n/2)) mass > 1/2 is n=1,
    # and no order admits it
    theta = Fraction(1, 2)
    for n in range(1, 21):
        k = math.isqrt(2**n)
        k = k if k * k == 2**n else k + 1
        if uniform_top_sum(n, k) > Fraction(1, 2):
            assert all(not deficiency_admissible(n, m, theta) for m in range(1, 9))


def test_deficiency_builder_tracial_small_delta_edge():
    # with delta = 0.1 the uniform spectrum *does* admit the first two orders
    t = q.tracial_state(20)
    out = q.build_entropy_deficiency_test(t, "1/2", "1/10", 8, 20)
    emitted = [(term.m, term.qubits) for term in out.test.seq.terms]
    # oracle scan: depth condition + exact uniform mass condition
    theta = Fraction(1, 2)
    expected, n = [], 1
    for m in range(1, 9):
        found = None
        for cand in range(n, 21):
            k = q.pow2_ceil(cand, 2)
            if uniform_top_sum(cand, k) > Fraction(1, 10) and deficiency_admissible(
                cand, m, theta
            ):
                found = cand
                break
        if found is not None:
            expected.append((m, found))
            n = found + 1
    assert emitted == expected == [(1, 3), (2, 5)]
    assert out.exhausted == tuple(range(3, 9))


# --- s-test builder ---------------------------------------------------------------------


def test_s_test_builder_on_pure_state():
    z = q.pure_bitstring_state(q.prng_bits(24, 9), 24)
    out = q.build_s_test(z, "1/2", "1/10", "1/2", 8, 24)
    assert out.complete
    s = Fraction(1, 2)
    for term in out.test.seq.terms:
        # per-term budget, checked exactly: rank^2 < 2^(n - 2m) scaled
        expo = term.qubits * s.numerator - term.m * s.denominator
        assert term.projector.rank ** s.denominator < 2**expo
    assert out.test.weight_partial_sums[-1] < 1.0
    report = q.evaluate_failure(z, out.test, 0.5, 8)
    assert report.all_witness


def test_s_test_builder_tracial_emits_then_exhausts():
    t = q.tracial_state(20)
    out = q.build_s_test(t, "9/10", "1/2", "1/10", 6, 20)
    # oracle: uniform top mass > 1/10 only for n <= 6; exact weight condition
    s, tt = Fraction(9, 10), Fraction(1, 2)
    expected, n = [], 1
    for m in range(1, 7):
        found = None
        for cand in range(n, 21):
            k = q.pow2_ceil(cand, 2)
            expo = cand * s.numerator - m * s.denominator
            if expo <= 0 or (k + 1) ** s.denominator >= 2**expo:
                continue
            if uniform_top_sum(cand, k) > Fraction(1, 10):
                found = cand
                break
        if found is None:
            continue
        expected.append((m, found))
        n = found + 1
    assert [(term.m, term.qubits) for term in out.test.seq.terms] == expected
    assert expected == [(1, 4), (2, 6)]
    assert out.exhausted == (3, 4, 5, 6)


def test_s_test_builder_rejects_bad_rates():
    t = q.tracial_state(5)
    with pytest.raises(ValueError):
        q.build_s_test(t, "1/2", "1/2", "1/2", 2, 5)
    with pytest.raises(ValueError):
        q.build_s_test(t, "1/4", "1/2", "1/2", 2, 5)


def test_covering_empty_for_tracial_at_large_delta():
    t = q.tracial_state(20)
    z = q.pure_bitstring_state(q.prng_bits(24, 9), 24)
    out = q.build_s_test(z, "1/2", "1/10", "1/2", 4, 24)
    taus = [q.tau_weight(term.projector) for term in out.test.seq.terms]
    report = q.evaluate_failure(t, out.test, max(taus), 4)
    assert report.witnesses == ()


# --- ui builder --------------------------------------------------------------------------


def test_ui_builder_pure_state_minimal_depths():
    z = q.pure_bitstring_state(q.prng_bits(20, 1), 20)
    out = q.build_ui_test(z, "1/2", 8, 20)
    assert out.complete
    assert [t.qubits for t in out.test.seq.terms] == list(range(1, 9))  # j = m
    for term in out.test.seq.terms:
        assert q.tau_weight(term.projector) == 2.0**-term.m


def test_ui_builder_tracial_exhausts_beyond_log_delta():
    t = q.tracial_state(20)
    out = q.build_ui_test(t, "1/10", 8, 20)
    # uniform top-2^(j-m) mass is exactly 2^-m: succeeds iff 2^-m > 1/10
    assert [term.m for term in out.test.seq.terms] == [1, 2, 3]
    assert out.exhausted == (4, 5, 6, 7, 8)


def test_ui_builder_block_state_certificates():
    b = q.block_state(20)
    out = q.build_ui_test(b, "9/10", 5, 20)
    assert out.complete
    # the upward scan finds the first depth past each completed block
    assert [t.qubits for t in out.test.seq.terms] == [
        q.block_checkpoint(m - 1) + 1 for m in range(1, 6)
    ]
    for term in out.test.seq.terms:
        assert q.tau_weight(term.projector) == 2.0**-term.m
        assert q.state_weight(b, term.qubits, term.projector) == pytest.approx(1.0, abs=1e-12)


# --- builder plans against the oracle ------------------------------------------------------

BUILDERS = {  # kind: (build at delta d, the oracle's rates)
    "deficiency": (
        lambda st, d: q.build_entropy_deficiency_test(st, "1/2", d, 6, 10),
        (Fraction(1, 2),),
    ),
    "s": (
        lambda st, d: q.build_s_test(st, "9/10", "1/2", d, 6, 10),
        (Fraction(9, 10), Fraction(1, 2)),
    ),
    "ui": (lambda st, d: q.build_ui_test(st, d, 6, 10), ()),
}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("delta", ["1/10", "3/10", "19/20"])
def test_builder_plans_match_oracle(fixture_states, kind, delta):
    # dense levels (power-dense) take the eigenvector-projector path
    build, rates = BUILDERS[kind]
    for name, state in fixture_states.items():
        plan, exhausted, margin = builder_plan_oracle(state, kind, rates, Fraction(delta), 6, 10)
        assert margin > 1e-9, name  # no mass test sits on a rounding edge
        out = build(state, delta)
        assert [(t.m, t.qubits, t.projector.rank) for t in out.test.seq.terms] == plan, name
        assert out.exhausted == exhausted, name


# --- null conditions ----------------------------------------------------------------------


def test_null_condition_trend_geometric_vs_constant():
    geo = q.block_test_sequence(8).as_null_condition()
    assert q.null_condition_trend(geo, 8).halved
    const_terms = tuple(
        q.TestTerm(m=m, qubits=2, projector=q.Projection.from_basis(2, [0, 1]))
        for m in range(1, 7)
    )
    flat = q.NullCondition(seq=q.ProjectionSequence(terms=const_terms))
    assert not q.null_condition_trend(flat, 6).halved


def test_witness_subsequence_forms_null_condition():
    b = q.block_state(44)
    test = q.block_test_sequence(8)
    report = q.evaluate_failure(b, test, 0.9, 8)
    witness_terms = tuple(t for t in test.seq.terms if t.m in report.witnesses)
    cond = q.NullCondition(seq=q.ProjectionSequence(terms=witness_terms))
    trend = q.null_condition_trend(cond, 8)
    assert trend.halved and trend.taus[-1] < trend.taus[0]


def test_satisfaction_check_tracial_vs_block_state():
    cond = q.block_test_sequence(6).as_null_condition()
    t = q.tracial_state(44)
    rep = q.evaluate_failure(t, cond, 0.1, 6)
    assert rep.min_weight == pytest.approx(2.0**-6)
    assert rep.satisfied_evidence
    b = q.block_state(44)
    rep2 = q.evaluate_failure(b, cond, 0.99, 6)
    assert rep2.min_weight == pytest.approx(1.0, abs=1e-12)
    assert not rep2.satisfied_evidence


def test_satisfaction_check_measure_state_dips():
    # weights along the pinning sequence are capped by the prefix integrals
    spec = q.log_power_density(2)
    s = q.measure_state(spec, 20)
    cond = q.block_test_sequence(5).as_null_condition()
    rep = q.evaluate_failure(s, cond, 0.5, 5)
    fam = q.step_family(s, 20)
    for term, w in zip(cond.seq.terms, rep.weights):
        assert w <= q.prefix_integral(fam, term.qubits, term.m) + 1e-12
    assert rep.satisfied_evidence


# --- typical-subspace decay -----------------------------------------------------------------


def test_typical_decay_matches_binomial_oracle():
    d = q.DensityOperator.diagonal(np.array([0.9, 0.1]))
    curve = q.typical_subspace_decay(d, "3/10", 16)
    for n, rank, value in zip(curve.ns, curve.ranks, curve.values):
        assert value == pytest.approx(
            binomial_top_sum_oracle(0.9, 0.1, n, rank), abs=1e-12
        )
    assert curve.net_decay and curve.tail_strictly_decreasing


def test_typical_decay_uniform_closed_form():
    d = q.DensityOperator.diagonal(np.array([0.5, 0.5]))
    curve = q.typical_subspace_decay(d, "1/2", 12)
    for n, rank, value in zip(curve.ns, curve.ranks, curve.values):
        assert rank == q.pow2_floor(n, 2)
        assert value == pytest.approx(rank * 2.0**-n, abs=1e-15)


def test_typical_decay_requires_rate_below_entropy():
    d = q.DensityOperator.diagonal(np.array([0.9, 0.1]))
    with pytest.raises(ValueError):
        q.typical_subspace_decay(d, "1/2", 8)  # h(0.9) ~ 0.469 < 0.5


# --- padding ------------------------------------------------------------------------------


def test_pad_to_multiple_identity_when_aligned():
    g = q.Projection.from_basis(4, [0, 5])
    assert q.pad_to_multiple(g, 2) is g


def test_pad_to_multiple_preserves_tau():
    g = q.Projection.from_basis(1, [0])
    padded = q.pad_to_multiple(g, 2)
    assert padded.qubits == 2
    assert q.tau_weight(padded) == q.tau_weight(g) == 0.5
    # already-factored projections grow one more identity factor
    refactored = q.pad_to_multiple(q.Projection.from_factors([(1, [0])]), 3)
    assert refactored.qubits == 3 and q.tau_weight(refactored) == 0.5


def test_pad_to_multiple_preserves_weights(fixture_states):
    for name, state in fixture_states.items():
        g = q.Projection.from_basis(5, [0, 3, 17])
        padded = q.pad_to_multiple(g, 3)
        assert padded.qubits == 6
        w0 = q.state_weight(state, 5, g)
        w1 = q.state_weight(state, 6, padded)
        assert w1 == pytest.approx(w0, abs=1e-10), name


def test_pad_to_multiple_dense_branch(rng):
    d = random_density_oracle(rng, 2)
    g = q.top_k_projector(q.eigendecompose(d), 2)
    padded = q.pad_to_multiple(g, 3)
    # rank scales with the identity padding; the normalised rank does not
    assert padded.qubits == 3 and padded.rank == 2 * g.rank
    assert q.tau_weight(padded) == pytest.approx(q.tau_weight(g), abs=1e-15)
    joint = q.tensor(d, random_density_oracle(rng, 1))
    assert q.projection_weight(joint, padded) == pytest.approx(
        q.projection_weight(d, g), abs=1e-10
    )
