"""Tour of the operator layer: products, partial traces, spectra, entropy.

Run with:  python3 demos/01_density_operators.py
"""

import numpy as np

import qubitlab as q

rng = np.random.default_rng(1)

print("=" * 72)
print("Density operators on qubit registers")
print("=" * 72)

# A register index reads its qubits most-significant-first, so tracing out
# the last qubit sums adjacent index pairs.
half = q.DensityOperator.diagonal(np.array([0.5, 0.5]))
pinned = q.DensityOperator.diagonal(np.array([1.0, 0.0]))
pair = q.tensor(half, pinned)
print("\ndiag(1/2,1/2) (x) diag(1,0) ->", pair.probs)
print("trace out the last qubit   ->", q.partial_trace_last(pair).probs)

# A maximally entangled pair reduces to the uniform single qubit.
psi = np.zeros(4, dtype=complex)
psi[0] = psi[3] = 1 / np.sqrt(2)
bell = q.validate_density(np.outer(psi, psi.conj()), 1e-9)
print("\nBell pair reduced:", np.round(q.partial_trace_last(bell).matrix.real, 3).tolist())
print("entropy of the pair:", q.von_neumann_entropy(bell))
print("entropy of the half:", q.von_neumann_entropy(q.partial_trace_last(bell)))

# Spectra are descending, with deterministic tie-breaks; reconstruction is exact.
g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
m = g @ g.conj().T
d = q.validate_density(m / m.trace().real, 1e-9)
spec = q.eigendecompose(d)
rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
print("\nrandom 3-qubit operator: eigenvalues", np.round(spec.eigenvalues, 4))
print("reconstruction error:", float(np.abs(rebuilt - d.matrix).max()))

# The top-k eigenvalue mass caps what any rank-k projection can see.
k = 3
cap = q.top_k_sum(spec, k)
best = q.projection_weight(d, q.top_k_projector(spec, k))
print(f"\ntop-{k} eigenvalue mass: {cap:.6f}")
print(f"weight on the top-{k} eigenprojector: {best:.6f} (saturates the cap)")
for trial in range(3):
    gm = rng.standard_normal((8, k)) + 1j * rng.standard_normal((8, k))
    qmat, _ = np.linalg.qr(gm)
    p = qmat @ qmat.conj().T
    w = q.projection_weight(d, q.Projection(qubits=3, matrix=(p + p.conj().T) / 2))
    print(f"  random rank-{k} projection: {w:.6f} <= {cap:.6f}")

print("\nuniform weight of a projection is its normalised rank:")
gproj = q.Projection.from_factors([(3, [0, 4, 5])])
print("  tau of a rank-3 projection on 3 qubits:", q.tau_weight(gproj))
