"""Projection tests: who gets pinned, who escapes, and exact certificates.

Run with:  python3 demos/03_randomness_tests.py
"""

import numpy as np

import qubitlab as q

print("=" * 72)
print("A cheap test the block sequence fails flat out")
print("=" * 72)

blocks = q.block_state(44)
test = q.block_test_sequence(8)
print(f"{'m':>2} {'register':>8} {'tau':>12} {'weight':>8}")
for term in test.seq.terms:
    tau = q.tau_weight(term.projector)
    w = q.state_weight(blocks, term.qubits, term.projector)
    print(f"{term.m:>2} {term.qubits:>8} {tau:>12.6g} {w:>8.3f}")
print("normalised ranks halve (tau = 2^-m exactly) yet every weight is 1:")
print("the sequence concentrates on an exponentially thin subset forever,")
print("even though its per-qubit entropy climbs to 1.")

print()
print("=" * 72)
print("Builders extract such tests from any spectrum that concentrates")
print("=" * 72)

spike = q.pure_bitstring_state(q.prng_bits(20, seed=3), 20)
out = q.build_entropy_deficiency_test(spike, theta="1/2", delta="1/2", terms=8, depth_cap=20)
print("\nbitstring sequence (zero entropy): all 8 orders emitted")
print("  depths:", [t.qubits for t in out.test.seq.terms])
print("  budget valid:", q.validate_qstest(out.test, 8).valid)

uniform = q.tracial_state(20)
out_u = q.build_entropy_deficiency_test(uniform, "1/2", "1/2", 8, 20)
print("\nuniform sequence (maximal entropy): nothing to pin")
print("  exhausted orders:", out_u.exhausted)

print("\nweighted variant (rank exponent t below weight exponent s):")
out_s = q.build_s_test(spike, s="1/2", t="1/10", delta="1/2", terms=6, depth_cap=24)
print("  depths:", [t.qubits for t in out_s.test.seq.terms])
print("  total weight of the emitted terms:", round(out_s.test.weight_partial_sums[-1], 6))

print()
print("=" * 72)
print("Null conditions: vanishing ranks, and who satisfies them")
print("=" * 72)

cond = test.as_null_condition()
trend = q.null_condition_trend(cond, 8)
print("\nnormalised ranks:", [round(t, 6) for t in trend.taus], "halving:", trend.halved)

sat_uniform = q.evaluate_failure(uniform, q.block_test_sequence(5).as_null_condition(), 0.1, 5)
print("uniform sequence: min weight", sat_uniform.min_weight, "-> satisfied:", sat_uniform.satisfied_evidence)
sat_blocks = q.evaluate_failure(blocks, cond, 0.99, 8)
print("block sequence:   min weight", sat_blocks.min_weight, "-> satisfied:", sat_blocks.satisfied_evidence)

print()
print("=" * 72)
print("Tensor powers shed every capped-rank test, at an exact computable rate")
print("=" * 72)

d = q.DensityOperator.diagonal(np.array([0.9, 0.1]))
curve = q.typical_subspace_decay(d, rate="3/10", depth=16)
print(f"\n{'copies':>6} {'rank':>5} {'max weight':>11}")
for n, r, v in list(zip(curve.ns, curve.ranks, curve.values))[3::3]:
    print(f"{n:>6} {r:>5} {v:>11.6f}")
print("net decay:", curve.net_decay, "| tail strictly decreasing:", curve.tail_strictly_decreasing)
