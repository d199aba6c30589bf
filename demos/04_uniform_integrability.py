"""Step families, prefix integrals, and integrability moduli.

Run with:  python3 demos/04_uniform_integrability.py
"""

import math

import numpy as np

import qubitlab as q

print("=" * 72)
print("Each level's spectrum becomes a non-increasing step function on [0,1)")
print("=" * 72)

uniform = q.tracial_state(16)
spike = q.pure_bitstring_state(q.prng_bits(16, seed=2), 16)
heavy = q.measure_state(q.log_power_density(2), 20)

fam_u = q.step_family(uniform, 16)
fam_s = q.step_family(spike, 16)
fam_h = q.step_family(heavy, 20)

print("\nintegral over the prefix [0, 2^-m) = the top 2^(n-m) eigenvalue mass:")
print(f"{'m':>3} {'uniform':>9} {'bitstring':>10} {'heavy-tail':>11}   (n = 16)")
for m in (1, 2, 4, 8, 12):
    print(
        f"{m:>3} {q.prefix_integral(fam_u, 16, m):>9.5f}"
        f" {q.prefix_integral(fam_s, 16, m):>10.5f}"
        f" {q.prefix_integral(fam_h, 16, m):>11.5f}"
    )

print("\nuniform integrability asks those prefixes to sink below each delta:")
deltas = [0.5, 0.25, 0.1]
for name, fam, depth in (("uniform", fam_u, 16), ("bitstring", fam_s, 16), ("heavy-tail", fam_h, 20)):
    profile = q.ui_profile(fam, deltas, depth)
    cells = ", ".join(
        f"delta={e.delta}: " + (f"m={e.modulus}" if e.found else "none") for e in profile.entries
    )
    print(f"  {name:<11} {cells}")

print("\nthe heavy-tail moduli track the closed form ceil((1/delta - 1) log2 e):")
for d in deltas:
    print(f"  delta={d}: closed form m = {math.ceil((1 / d - 1) * math.log2(math.e))}")

print("\nlog-power measure states have closed-form top-k masses, so the profile")
print("runs far past the 24-qubit materialisation cap (to 500,000 qubits, nothing")
print("materialised).  The left tail alone has prefix mass (1 + m ln 2)^(1-p) <= delta")
print("at m >= (delta^(1/(1-p)) - 1) log2 e; the rise of the density near x = 1 can")
print("add mass on top, so the true modulus is that closed form or a little more:")
for p in (2, 3):
    closed = [math.ceil((d ** (1 / (1 - p)) - 1) * math.log2(math.e)) for d in deltas]
    print(f"  p={p} deltas={deltas}: closed form m = {closed}")
    for depth in (200, 5000, 500_000):
        deep = q.measure_state(q.log_power_density(p), depth)
        profile = q.ui_profile(q.step_family(deep, depth), deltas, depth)
        print(f"    depth {depth:>7,}: moduli m = {[e.modulus for e in profile.entries]}")

print()
print("=" * 72)
print("Rearrangement bounds on the entropy of a descending distribution")
print("=" * 72)

rng = np.random.default_rng(0)
alpha = np.sort(rng.dirichlet(np.ones(1 << 10)))[::-1]

low = q.check_entropy_lower_bound(alpha, eps=0.5, delta=0.4)
print("\nflattening lower bound (when the head mass is small):")
print(f"  head mass through the cut: {low.head_mass:.5f} (premise: <= 0.4)")
print(f"  H = {low.entropy:.4f}  >  bound = {low.bound:.4f}  : {low.satisfied()}")

up = q.check_entropy_upper_bound(alpha, m=3)
print("two-block averaging upper bound:")
print(f"  H = {up.entropy:.4f}  <=  averaged H = {up.averaged_entropy:.4f}"
      f"  <=  1 - m*S + n = {up.bound:.4f}")

flat = q.flatten_distribution(alpha, 0.5)
print("flattened vector: cut index", flat.cut, "| pad ends at", flat.xi_index,
      "| mass", round(flat.mass, 6))
print("dominates the original on its support:", q.uniformity_dominance(flat.p, alpha))
