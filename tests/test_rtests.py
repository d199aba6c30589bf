import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import qubitlab as q
from qubitlab.linalg import BadDimensionError, DimensionCapError
from qubitlab.serialize import projection_test_from_json, projection_test_to_json

from conftest import binomial_top_sum_oracle, builder_plan_oracle


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


def test_block_state_test_order_bounds():
    with pytest.raises(ValueError, match="m must be >= 1"):
        q.block_state_test(0)
    assert q.block_checkpoint(9) == 54 and q.block_state_test(9).qubits == 54
    # order 10's checkpoint register has 65 qubits; the term builds with no cap
    assert q.block_checkpoint(10) == 65
    term = q.block_state_test(10)
    assert term.qubits == 65 and term.projector.rank == 1 << 55


def test_block_state_test_is_the_checkpoint_support_at_deep_orders():
    # marker positions from the closed form c(i) = i + i(i + 1)/2, not from the state
    def c(i):
        return i + i * (i + 1) // 2

    seq = q.block_test_sequence(30)
    deep = (q.block_state_test(100), q.block_state_test(445))
    for term in (*seq.seq.terms, *deep):
        m, n, g = term.m, c(term.m), term.projector
        marks = {c(i) for i in range(m)}
        assert term.qubits == n and [qb for qb, _ in g.factors] == [1] * n
        assert [idx.tolist() for _, idx in g.factors] == [
            [0] if j in marks else [0, 1] for j in range(n)]
        assert g.rank == 1 << (n - m)
    report = q.evaluate_failure(q.block_state(c(30)), seq, 0.9, 30)
    assert report.weights == (1.0,) * 30  # exact, no tolerance
    for term in deep:
        assert q.state_weight(q.block_state(term.qubits), term.qubits, term.projector) == 1.0
    top = seq.seq.terms[-1]
    assert q.state_weight(q.tracial_state(495), 495, top.projector) == 2.0**-30


def test_a_deep_block_test_validates_each_distinct_block_once():
    # 99,680 one-qubit blocks of two contents: one index set each, shared by every copy
    start = time.perf_counter()
    term = q.block_state_test(445)
    elapsed = time.perf_counter() - start
    n = q.block_checkpoint(445)
    marks = {q.block_checkpoint(i) for i in range(445)}
    want = q.Projection.from_factors([(1, [0] if j in marks else [0, 1]) for j in range(n)])
    assert term.projector == want
    assert projection_test_to_json(q.QSTest(q.ProjectionSequence((term,)))) == \
        projection_test_to_json(q.QSTest(q.ProjectionSequence((q.TestTerm(445, want),))))
    assert all(idx.dtype == np.int64 and not idx.flags.writeable for _, idx in term.projector.factors)
    assert elapsed < 0.4, elapsed


def test_a_deep_block_test_loads_with_one_index_set_per_distinct_block():
    # 176,750 one-qubit blocks over 100 terms, read back through Projection.from_factors
    seq = q.block_test_sequence(100)
    obj = json.loads(json.dumps(projection_test_to_json(seq)))
    start = time.perf_counter()
    back = projection_test_from_json(obj)
    elapsed = time.perf_counter() - start
    assert [t.projector for t in back.seq.terms] == [t.projector for t in seq.seq.terms]
    assert elapsed < 1.0, elapsed


def test_projection_sequence_refuses_bad_terms():
    t1, t2 = q.block_state_test(1), q.block_state_test(2)
    for terms in ((t1, t1), (t2, t1)):
        with pytest.raises(ValueError, match="strictly increasing"):
            q.ProjectionSequence(terms=terms)


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
    term = q.TestTerm(m=3, projector=q.Projection.from_factors([(2, [0])]))
    test = q.QSTest(seq=q.ProjectionSequence(terms=(term,)))
    report = q.validate_qstest(test, 3)
    assert not report.valid
    assert report.violations == ((3, 0.25, 0.125),)


def test_validate_qstest_empty_and_unverified():
    empty = q.QSTest(seq=q.ProjectionSequence(terms=()))
    assert q.validate_qstest(empty, 10).valid
    # a certificate the library cannot verify is refused on load, not carried as unverified
    with pytest.raises(ValueError, match="'mystery'"):
        projection_test_from_json({"kind": "qs", "terms": [], "certificate": {"type": "mystery"}})


# --- evaluation --------------------------------------------------------------------


def test_evaluate_failure_block_vs_block_test():
    b = q.block_state(44)
    report = q.evaluate_failure(b, q.block_test_sequence(4), 0.9, 4)
    assert report.witnesses == (1, 2, 3, 4)
    assert all(w == pytest.approx(1.0, abs=1e-12) for w in report.weights)
    assert report.witnesses == report.ms


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
        q.TestTerm(m=m, projector=q.Projection.from_factors([(m + 2, [int(bits[: m + 2], 2)])]))
        for m in range(1, 6)
    )
    test = q.QSTest(seq=q.ProjectionSequence(terms=terms))
    report = q.evaluate_failure(z, test, 0.5, 5)
    assert report.witnesses == (1, 2, 3, 4, 5)
    assert all(w == 1.0 for w in report.weights)


def test_evaluate_depth_mismatch():
    t = q.tracial_state(3)
    with pytest.raises(BadDimensionError):
        q.evaluate_failure(t, q.block_test_sequence(3), 0.5, 3)


def test_state_weight_refuses_a_block_past_the_diagonal_cap_at_once():
    # a basis projection on all 25 qubits would merge every tracial factor
    # into one 2^25 vector; the merge and the fallback both refuse it at once
    state = q.tracial_state(25)
    start = time.perf_counter()
    with pytest.raises(DimensionCapError, match="25-qubit block"):
        q.state_weight(state, 25, q.Projection.from_factors([(25, [0])]))
    assert time.perf_counter() - start < 1.0
    assert not state._cache
    shallow = q.tracial_state(20)
    assert q.state_weight(shallow, 20, q.Projection.from_factors([(20, [0, 7])])) == 2.0**-19
    assert not shallow._cache


def test_state_weight_answers_by_blocks_when_factors_do_not_align():
    # a 1+3-qubit projection cuts the first 2-qubit factor of the power in two
    p = np.array([0.4, 0.3, 0.2, 0.1])
    state = q.tensor_power_state(q.DensityOperator.diagonal(p), 4)
    g = q.Projection.from_factors([(1, [1]), (3, [0, 2, 5, 7])])
    want = np.kron(p, p)[8 + np.array([0, 2, 5, 7])].sum()  # index 8a + b, a = 1
    assert q.state_weight(state, 4, g) == pytest.approx(want, abs=1e-15)
    assert not state._cache  # no level was materialised


def test_state_weight_answers_a_deep_misaligned_pair_by_blocks():
    # 2-qubit state factors and 3-qubit projection blocks meet every 6 qubits: ten groups
    p = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
    state = q.tensor_power_state(q.DensityOperator.diagonal(np.array([float(x) for x in p])), 60)
    block = (0, 3, 5, 6)
    g = q.Projection.from_factors([(3, block)] * 20)
    # one group's exact weight: the 6-qubit index a b reads as three 2-qubit factor indices
    joined = [a << 3 | b for a in block for b in block]
    group = sum(p[x >> 4] * p[x >> 2 & 3] * p[x & 3] for x in joined)
    assert q.state_weight(state, 60, g) == float(group**10)
    assert not state._cache


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
    assert report.witnesses == report.ms


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
        q.TestTerm(m=m, projector=q.Projection.from_factors([(2, [0, 1])]))
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


def test_typical_decay_of_a_rotated_qubit_matches_binomial_oracle():
    c, s = math.cos(0.3), math.sin(0.3)
    u = np.array([[c, -s], [s, c]])
    d = q.DensityOperator.dense(u @ np.diag([0.9, 0.1]) @ u.T)
    curve = q.typical_subspace_decay(d, "3/10", 16)
    for n, rank, value in zip(curve.ns, curve.ranks, curve.values):
        assert abs(value - binomial_top_sum_oracle(0.9, 0.1, n, rank)) <= 1e-12


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

