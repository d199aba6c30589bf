"""Reference values for checking qubitlab's outputs, computed without its helpers.

Everything here uses numpy, math and exact integers only.  The builder
plans re-derive which depth each order should pick from the rules the
builders document, so a builder that scans, certifies or emits wrongly
disagrees with its plan.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def spectrum_desc(matrix: np.ndarray) -> np.ndarray:
    w = np.clip(np.linalg.eigvalsh(matrix), 0.0, None)
    return np.sort(w)[::-1] / w.sum()


def trace_out_last(matrix: np.ndarray, qubits: int) -> np.ndarray:
    """Partial trace over the last `qubits` qubits (qubit 1 is the top bit)."""
    a = 1 << qubits
    b = matrix.shape[0] // a
    return matrix.reshape(b, a, b, a).trace(axis1=1, axis2=3)


def power_level_entropy(factor: np.ndarray, k: int, n: int) -> float:
    """H of level n of the tensor power of a k-qubit factor: q H(d) + H(tr_(k-r) d)."""
    q, r = divmod(n, k)
    h = q * entropy_bits(spectrum_desc(factor))
    if r:
        h += entropy_bits(spectrum_desc(trace_out_last(factor, k - r)))
    return h


def power_level_matrix(factor: np.ndarray, k: int, n: int) -> np.ndarray:
    q, r = divmod(n, k)
    copies = q + (1 if r else 0)
    out = np.ones((1, 1), dtype=complex)
    for _ in range(copies):
        out = np.kron(out, factor)
    return trace_out_last(out, copies * k - n) if copies * k > n else out


def binomial_top_sum(a: float, n: int, k: int) -> float:
    """Top-k eigenvalue mass of n copies of diag(a, 1 - a), by binomial classes."""
    hi, lo = max(a, 1.0 - a), min(a, 1.0 - a)
    total, left = 0.0, k
    for j in range(n + 1):
        take = min(left, math.comb(n, j))
        total += take * hi ** (n - j) * lo**j
        left -= take
        if not left:
            break
    return total


def _iroot_floor(x: int, k: int) -> int:
    lo, hi = 0, 1 << (x.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def pow2_floor(n: int, rate: Fraction) -> int:
    """floor(2^(n rate)) in integers."""
    return _iroot_floor(1 << (n * rate.numerator), rate.denominator)


def pow2_ceil(n: int, rate: Fraction) -> int:
    """ceil(2^(n rate)) in integers."""
    x = 1 << (n * rate.numerator)
    r = _iroot_floor(x, rate.denominator)
    return r if r**rate.denominator == x else r + 1


def projector_rank(g) -> int:
    """Rank read from the projector's own data, not from its `rank` property."""
    if g.basis_indices is not None:
        return len(g.basis_indices)
    if g.factors is not None:
        return math.prod(len(idx) for _, idx in g.factors)
    return int(round(float(np.trace(g.matrix).real)))


def diag_weight(probs: np.ndarray, g) -> float:
    if g.basis_indices is None:
        raise ValueError("expected a basis projector")
    return float(probs[np.asarray(g.basis_indices)].sum())


def dense_weight(matrix: np.ndarray, g) -> float:
    if g.matrix is None:
        return diag_weight(np.real(np.diag(matrix)), g)
    return float(np.real(np.sum(matrix * g.matrix.T)))


def deficiency_plan(top_sum, theta: Fraction, delta: float, terms: int, cap: int):
    """[(m, (n, k) or None)] picked by the documented deficiency rule."""
    plan, next_n = [], 1
    for m in range(1, terms + 1):
        found = None
        for n in range(next_n, cap + 1):
            k = pow2_ceil(n, theta)
            if k > (1 << n) or n <= m:
                continue
            if (1 << (n * theta.numerator)) >= ((1 << (n - m)) - 1) ** theta.denominator:
                continue
            if top_sum(n, k) > delta:
                found = (n, k)
                break
        plan.append((m, found))
        if found:
            next_n = found[0] + 1
    return plan


def ui_plan(top_sum, delta: float, terms: int, cap: int):
    plan, next_j = [], 1
    for m in range(1, terms + 1):
        found = None
        for j in range(max(m, next_j), cap + 1):
            if top_sum(j, 1 << (j - m)) > delta:
                found = (j, 1 << (j - m))
                break
        plan.append((m, found))
        if found:
            next_j = found[0] + 1
    return plan


def s_plan(top_sum, s: Fraction, t: Fraction, delta: float, terms: int, cap: int):
    plan, next_n = [], 1
    for m in range(1, terms + 1):
        found = None
        for n in range(next_n, cap + 1):
            k = pow2_ceil(n, t) if t > 0 else 1
            expo = n * s.numerator - m * s.denominator
            if k > (1 << n) or expo <= 0 or (k + 1) ** s.denominator >= (1 << expo):
                continue
            if top_sum(n, k) > delta:
                found = (n, k)
                break
        plan.append((m, found))
        if found:
            next_n = found[0] + 1
    return plan


def ui_moduli(top_sum, deltas, depth: int):
    """Smallest m with sup_{n >= m} (top 2^(n-m) mass of level n) <= delta."""
    sup = {
        m: max(top_sum(n, 1 << (n - m)) for n in range(m, depth + 1))
        for m in range(1, depth + 1)
    }
    return [next((m for m in sorted(sup) if sup[m] <= d), None) for d in deltas]


def log_power_masses(p: float, n: int) -> np.ndarray:
    """Dyadic cylinder masses of (p-1) / (x (1 - ln x)^p) from its antiderivative."""
    x = np.arange(1, 1 << n, dtype=float) / (1 << n)
    cdf = np.concatenate(([0.0], (1.0 - np.log(x)) ** (1.0 - p), [1.0]))
    return np.diff(cdf)


def log_power_entropy_limit(p: float) -> float:
    """Differential entropy of the log-power density for p = 3, in closed form.

    With u = 1 - ln x the density becomes 2 u^-3 du, and
    -int f log2 f = -(1 + log2 e - 3/2 log2 e) = 1/(2 ln 2) - 1.
    """
    if p != 3:
        raise ValueError("closed form written for p = 3 only")
    return 0.5 / math.log(2.0) - 1.0


def block_checkpoint(m: int) -> int:
    return m + m * (m + 1) // 2
