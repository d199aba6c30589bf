"""Shared fixtures: small states and independent oracle helpers."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import qubitlab as q


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def fixture_states():
    """The standard quartet used across weight/bridge checks (depth 10)."""
    dense_factor = random_density_oracle(np.random.default_rng(5), 1)
    return {
        "tracial": q.tracial_state(10),
        "pure": q.pure_bitstring_state("0110100110", 10),
        "block": q.block_state(10),
        "power-diag": q.tensor_power_state(
            q.DensityOperator.diagonal(np.array([0.9, 0.1])), 10
        ),
        "power-dense": q.tensor_power_state(dense_factor, 10),
    }


def random_density_oracle(rng, qubits: int) -> "q.DensityOperator":
    """Ginibre-style random density matrix, independent of library helpers."""
    dim = 1 << qubits
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return q.validate_density(m / m.trace().real, 1e-8)


def haar_projection_oracle(rng, qubits: int, rank: int) -> "q.Projection":
    """Rank-k projection onto a Haar-random frame via QR."""
    dim = 1 << qubits
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    qmat, _ = np.linalg.qr(g)
    p = qmat @ qmat.conj().T
    return q.Projection(qubits=qubits, matrix=(p + p.conj().T) / 2)


def random_descending(rng, size: int, concentration: float = 1.0) -> np.ndarray:
    return np.sort(rng.dirichlet(np.full(size, concentration)))[::-1]


def entropy_oracle(p) -> float:
    """Plain-python Shannon entropy in bits."""
    return -sum(x * math.log2(x) for x in np.asarray(p, dtype=float) if x > 0)


def flatten_scan_oracle(alpha, cut: int):
    """Direct scan construction of the flattened vector, exact rationals.

    Copies the head, then appends the cut value while the running mass
    stays at most 1 (with the same 1e-12 dust allowance the library
    documents), then zeros.
    """
    alpha = [float(x) for x in alpha]
    r = alpha[:cut] + [0.0] * (len(alpha) - cut)
    total = Fraction(0)
    for x in alpha[:cut]:
        total += Fraction(x)
    pad = Fraction(alpha[cut - 1])
    limit = Fraction(1) + Fraction(1e-12)
    i = cut
    while pad > 0 and i < len(alpha) and total + pad <= limit:
        r[i] = alpha[cut - 1]
        total += pad
        i += 1
    return r


def binomial_top_sum_oracle(p0: float, p1: float, copies: int, rank: int) -> float:
    """Top-`rank` eigenvalue mass of an n-fold two-outcome tensor power.

    Enumerates eigenvalues p0^j p1^(n-j) with binomial multiplicities in
    descending order; no kron, no sort.
    """
    assert p0 >= p1
    remaining = rank
    total = 0.0
    for j in range(copies, -1, -1):
        mult = math.comb(copies, j)
        take = min(mult, remaining)
        total += take * (p0**j) * (p1 ** (copies - j))
        remaining -= take
        if remaining == 0:
            break
    return total


def rank_floor_oracle(n: int, num: int, den: int) -> int:
    """floor(2^(n*num/den)) in integer arithmetic: the largest r with r^den <= 2^(n*num)."""
    bound = 1 << (n * num)
    r = int(2.0 ** (n * num / den))
    while r**den > bound:
        r -= 1
    while (r + 1) ** den <= bound:
        r += 1
    return r


def log_power_gap_oracle(p: float, n: int, refine: int = 16) -> float:
    """Depth-n entropy gap H_n - n of the density (p-1)/(x (1 - ln x)^p).

    Uses numpy and math only.  Splits (0, 1) into the cell [0, 2^-n] and
    the dyadic shells [2^-(j+1), 2^-j], j < n, each cut into k equal
    cells; cell i spans [a, b] with b/a = 1 + 1/(k + i), so its mass
    under the antiderivative (1 - ln x)^(1-p) is a log1p/expm1 difference
    with no cancellation.

    Truncation: a shell holding more than 2^refine depth-n cells is cut
    into k = 2^refine pieces instead, and each piece's mass is spread
    evenly over its cells.  A piece spans a relative width 2^-refine, so
    finer refinement changes the result by O(4^-refine); below depth
    refine + 2 nothing is truncated and the sum is exact.
    """
    c = 1.0 - p
    ln2 = math.log(2.0)
    first = (1.0 + n * ln2) ** c
    h = -first * math.log2(first)
    for j in range(n):
        cells = n - j - 1
        kept = min(cells, refine)
        k = 1 << kept
        i = np.arange(k, dtype=float)
        u_right = 1.0 + (j + 1) * ln2 - np.log1p((i + 1) / k)
        mass = -(u_right**c) * np.expm1(c * np.log1p(np.log1p(1.0 / (k + i)) / u_right))
        h += float(-(mass * np.log2(mass)).sum() + mass.sum() * (cells - kept))
    return h - n


def _pow2_ceil_oracle(num: int, den: int) -> int:
    """ceil(2^(num/den)) in integer arithmetic: the smallest r with r^den >= 2^num."""
    bound = 1 << num
    r = max(1, int(2.0 ** (num / den)))
    while r**den < bound:
        r += 1
    while r > 1 and (r - 1) ** den >= bound:
        r -= 1
    return r


def builder_plan_oracle(state, kind: str, rates, delta: Fraction, terms: int, depth_cap: int):
    """The (m, n_m, rank) terms and exhausted orders a builder must produce.

    Written from the builder docstrings with numpy and integers only.  For
    each order m the scan climbs depth n strictly above the previous
    term's depth and takes the first n whose rank k is admissible and
    whose top-k eigenvalue mass (numpy ``eigvalsh``, sorted prefix sums)
    exceeds delta:

    * ``deficiency`` (theta = p/q): k = ceil(2^(n theta)), admissible when
      (2^(n theta) + 1) / 2^n < 2^-m, i.e. 2^(n p) < (2^(n-m) - 1)^q, n > m;
    * ``s`` (s, t): k = ceil(2^(n t)), admissible when
      (k + 1) < 2^(n s - m), i.e. (k + 1)^q_s < 2^(n p_s - m q_s);
    * ``ui``: k = 2^(n-m), admissible when n >= m.

    Also returns the smallest |top-k mass - delta| over every mass test
    made, so callers can assert that no comparison sits on a rounding edge.
    """
    cap = min(depth_cap, state.max_depth)
    delta = float(delta)

    def rank_at(n: int, m: int):
        if kind == "deficiency":
            (theta,) = rates
            if n <= m or (1 << (n * theta.numerator)) >= ((1 << (n - m)) - 1) ** theta.denominator:
                return None
            return _pow2_ceil_oracle(n * theta.numerator, theta.denominator)
        if kind == "s":
            s, t = rates
            k = _pow2_ceil_oracle(n * t.numerator, t.denominator)
            expo = n * s.numerator - m * s.denominator
            return k if expo > 0 and (k + 1) ** s.denominator < (1 << expo) else None
        return 1 << (n - m) if n >= m else None

    prefix = {}
    plan, exhausted, margin = [], [], math.inf
    next_n = 1
    for m in range(1, terms + 1):
        for n in range(next_n, cap + 1):
            k = rank_at(n, m)
            if k is None:
                continue
            if n not in prefix:
                d = state.density(n)
                w = d.probs if d.is_diagonal else np.linalg.eigvalsh(d.matrix)
                prefix[n] = np.cumsum(np.sort(w)[::-1])
            mass = float(prefix[n][k - 1])
            margin = min(margin, abs(mass - delta))
            if mass > delta:
                plan.append((m, n, k))
                next_n = n + 1
                break
        else:
            exhausted.append(m)
    return plan, tuple(exhausted), margin
