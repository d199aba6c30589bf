"""Shared fixtures: small states and independent oracle helpers."""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qubitlab as q


@pytest.fixture
def oracles(monkeypatch):
    """The benchmark's reference oracles, `perfbench/oracles.py`, imported unchanged."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import oracles

    return oracles


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


def ui_moduli_oracle(top: np.ndarray, deltas) -> list:
    """Smallest m with sup over n >= m of the top 2^(n-m) eigenvalue mass <= delta.

    The levels are the partial traces of the dense matrix ``top`` over its
    last qubits, taken here by reshaping; each spectrum comes from
    `numpy.linalg.eigvalsh`, and the sup runs over every level (no Ky Fan
    shortcut).  None where no order up to the top depth reaches delta.
    """
    levels = {int(top.shape[0]).bit_length() - 1: np.asarray(top)}
    while min(levels) > 1:
        n = min(levels)
        half = 1 << (n - 1)
        levels[n - 1] = np.einsum("aibi->ab", levels[n].reshape(half, 2, half, 2))
    spectra = {n: np.sort(np.linalg.eigvalsh(m))[::-1] for n, m in levels.items()}
    depth = max(levels)
    sup = {
        m: max(math.fsum(spectra[n][: 1 << (n - m)].tolist()) for n in range(m, depth + 1))
        for m in range(1, depth + 1)
    }
    return [next((m for m in sorted(sup) if sup[m] <= d), None) for d in deltas]


def power_spectrum_oracle(factor: np.ndarray, n: int) -> tuple[list[float], float]:
    """Descending spectrum and entropy in bits of level n of a k-qubit factor's tensor power.

    Level n = q k + r is q copies of the factor times the factor with its
    last k - r qubits traced out, here by an explicit einsum.  Its
    eigenvalues are every product of `numpy.linalg.eigvalsh` eigenvalues of
    the copies and of the trace (`itertools.product`, no kron, no `eigh` of
    the level), and its entropy sums their -v log2 v with `math.fsum`.
    """
    m = np.asarray(factor)
    k = int(m.shape[0]).bit_length() - 1
    copies, r = divmod(n, k)
    parts = [np.clip(np.linalg.eigvalsh(m), 0.0, None).tolist()] * copies
    if r:
        cut = 1 << (k - r)
        traced = np.einsum("iaja->ij", m.reshape(1 << r, cut, 1 << r, cut))
        parts.append(np.clip(np.linalg.eigvalsh(traced), 0.0, None).tolist())
    values = sorted((math.prod(c) for c in itertools.product(*parts)), reverse=True)
    return values, math.fsum(-v * math.log2(v) for v in values if v > 0)


def power_top_k_types_oracle(factor: np.ndarray, n: int, ranks) -> list[float]:
    """Top-k eigenvalue masses, for k in ``ranks``, of level n of a factor's tensor power.

    Level n = c k + r is c copies of the k-qubit factor times the factor
    with its last k - r qubits traced out.  A multiset of c indices into
    the factor's `numpy.linalg.eigvalsh` eigenvalues (one per copy) is a
    type: its value is their mpmath product, at 40 digits, and its
    multiplicity the exact integer multinomial c! / prod(j_i!).  Each type
    value times each eigenvalue of the trace is one class; classes are
    taken heaviest first until k eigenvalues are summed.
    """
    import mpmath

    m = np.asarray(factor)
    k = int(m.shape[0]).bit_length() - 1
    copies, r = divmod(n, k)
    with mpmath.workdps(40):
        values = [mpmath.mpf(float(v)) for v in np.clip(np.linalg.eigvalsh(m), 0.0, None)]
        tail = [mpmath.mpf(1)]
        if r:
            cut = 1 << (k - r)
            traced = np.einsum("iaja->ij", m.reshape(1 << r, cut, 1 << r, cut))
            tail = [mpmath.mpf(float(v)) for v in np.clip(np.linalg.eigvalsh(traced), 0.0, None)]
        classes = []
        for picks in itertools.combinations_with_replacement(range(len(values)), copies):
            counts = Counter(picks)
            mult = math.factorial(copies)
            for j in counts.values():
                mult //= math.factorial(j)
            value = mpmath.fprod(values[i] ** j for i, j in counts.items())
            classes.extend((value * t, mult) for t in tail)
        classes.sort(key=lambda c: c[0], reverse=True)
        masses = []
        for rank in ranks:
            total, left = mpmath.mpf(0), rank
            for value, mult in classes:
                take = min(mult, left)
                total += take * value
                left -= take
                if not left:
                    break
            masses.append(float(total))
        return masses


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


def coherence_deviations_oracle(blocks: list[np.ndarray], depth: int) -> list[tuple[int, float]]:
    """Each level's coherence gap, for n = 2..depth, from its blocks listed one by one.

    Level n is the blocks that end by qubit n, then the next one traced to
    fit, so levels n and n-1 differ only in that last block, by g: the sup
    of |tr(last) - 1| for a one-qubit last block, else of |tr_1(last) -
    last'|.  The gap is g times the sup of every whole block before it,
    multiplied left to right by `math.prod`, one factor per block.
    """
    dense = blocks[0].ndim == 2

    def trace(a: np.ndarray, c: int) -> np.ndarray:
        """a with its last c qubits traced out."""
        if not c:
            return a
        if dense:
            r = len(a) >> c
            return np.einsum("iaja->ij", a.reshape(r, 1 << c, r, 1 << c))
        return a.reshape(-1, 1 << c).sum(axis=1)

    ends = list(itertools.accumulate(len(b).bit_length() - 1 for b in blocks))
    sups = [float(np.abs(b).max()) for b in blocks]
    out = []
    for n in range(2, depth + 1):
        i = bisect.bisect_left(ends, n)
        last = trace(blocks[i], ends[i] - n)
        below = 1.0 if len(last) == 2 else trace(blocks[i], ends[i] - n + 1)
        g = float(np.abs(trace(last, 1) - below).max())
        out.append((n, math.prod(sups[:i], start=g) if g else 0.0))
    return out


def block_markers_oracle(n: int) -> list[int]:
    """Positions (from 0) of the marker qubits among the first n of the block sequence.

    Built from the definition: block i = 1, 2, ... is one marker qubit
    pinned to 0 followed by i uniform qubits, and the blocks follow each
    other.
    """
    markers, start, i = [], 0, 1
    while start < n:
        markers.append(start)
        start += i + 1
        i += 1
    return markers


def block_level_oracle(n: int) -> np.ndarray:
    """Diagonal of level n of the block sequence, index by index.

    A basis index carries mass 2^-(n - B) when every one of its B marker
    bits is 0, and none otherwise (qubit 1 is the most significant bit).
    """
    markers = block_markers_oracle(n)
    idx = np.arange(1 << n)
    free = np.ones(idx.size, dtype=bool)
    for pos in markers:
        free &= (idx >> (n - 1 - pos)) & 1 == 0
    return np.where(free, 2.0 ** -(n - len(markers)), 0.0)


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


def log_power_entropy_integral_oracle(p: float) -> float:
    """-int_0^1 f log2 f for f(x) = (p-1) / (x (1 - ln x)^p), by mpmath quadrature.

    Integrates in u = 1 - ln x, where f dx = (p-1) u^-p du and
    ln f = ln(p-1) + u - 1 - p ln u, at 40 significant digits; the interval
    is split at powers of ten so tanh-sinh sees a smooth integrand on each piece.
    """
    import mpmath

    with mpmath.workdps(40):
        c = mpmath.mpf(p) - 1

        def integrand(u):
            return c * u ** (-p) * (mpmath.log(c) + u - 1 - p * mpmath.log(u))

        val = mpmath.quad(integrand, [1, 10, 100, 1000, 10000, mpmath.inf])
        return float(-val / mpmath.log(2))


def log_power_top_k_oracle(p: float, n: int, k: int, *, direct: bool | None = None) -> float:
    """Top-k cell mass at depth n of the density (p-1)/(x (1 - ln x)^p), by mpmath.

    Cells are addressed by integer index i = [i/2^n, (i+1)/2^n), and each
    mass is F((i+1)/2^n) - F(i/2^n) for F(x) = (1 - ln x)^(1-p).  The
    direct form (the default to 300 qubits) works that difference with
    n*log10(2) + 60 digits so it keeps 50.  Deeper, the same difference is
    taken in its cancellation-free form u^(1-p) expm1((1-p)
    log1p(-log1p(1/i) / u)), u = 1 - ln(i/2^n), at 60 digits, with
    ln(i/2^n) read from the exact integer complement 2^n - i in the upper
    half; the two forms are checked against each other where both run
    (`test_closed_form.py::test_oracle_forms_agree`).  Integers enter mpmath
    cut to their top bits, so a 500,000-qubit query takes under a second.

    The density falls to its one minimum at e^(1-p) and then rises, so the
    cell masses fall and then rise, and the k heaviest cells are the first
    j plus the last k - j.  The valley cell is found from e^(1-p) at the
    working precision (its neighbours' masses agree far beyond it).  The
    split j is the root of ln(left cell mass / right cell mass) over a real
    cell index, bracketed by bisection in ln(index) to one cell or 2^-170
    of the index, so a deep query takes about 200 steps rather than n, and
    rounded up to an integer.  Exact-index comparisons then confirm, to
    50 digits, that the left cell at j - d is no lighter than
    its right partner and the one at j + d - 1 no heavier, for
    d = max(1, j / 2^160): the split to the cell where the precision
    resolves it, and beyond that to 2^-160 of j, which moves the result by
    far less than 1e-16.  Near the valley, where the masses agree to more
    than 50 digits, any split gives the same result.
    """
    import mpmath

    size = 1 << n
    direct = n <= 300 if direct is None else direct
    with mpmath.workdps(int(n * 0.30103) + 60 if direct else 60):
        q = 1 - mpmath.mpf(p)
        keep = mpmath.mp.prec + 20

        def real(i):
            # an int is cut to its top bits first, which mpmath converts in constant time
            if not isinstance(i, int):
                return i
            e = max(i.bit_length() - keep, 0)
            return mpmath.ldexp(i >> e, e)

        def log_frac(i, comp):  # ln(i / 2^n), given comp = 2^n - i
            x = mpmath.ldexp(real(i), -n)
            if direct or x <= 0.5:
                return mpmath.log(x)
            return mpmath.log1p(-mpmath.ldexp(real(comp), -n))

        def F(i, comp):
            return 0 * q if i == 0 else (1 - log_frac(i, comp)) ** q

        def mass(i, comp):
            if direct or i == 0:
                return F(i + 1, comp - 1) - F(i, comp)
            u = 1 - log_frac(i, comp)
            return u**q * mpmath.expm1(q * mpmath.log1p(-mpmath.log1p(1 / real(i)) / u))

        # real-valued split points use these in place of the exact integers
        whole, rest, top = real(size), real(size - k), real(k)

        def log_ratio(t):  # ln(left cell t mass / mass of the last right cell of a split at t)
            if isinstance(t, int):
                return mpmath.log(mass(t, size - t) / mass(size - k + t, k - t))
            return mpmath.log(mass(t, whole - t) / mass(rest + t, top - t))

        def heavier(t):
            return log_ratio(t) > 0

        c = min(int(mpmath.floor(mpmath.ldexp(mpmath.exp(1 - p), n))), size - 1)
        left = c + 1 if c == 0 or mass(c, size - c) <= mass(c - 1, size - c + 1) else c
        lo, hi = max(0, k - (size - left)), min(k, left)
        a = max(lo, 1)  # the log-scale root search starts at index 1
        if lo == hi or not heavier(lo):
            j = lo
        elif not heavier(a):
            j = a
        elif heavier(hi - 1):
            j = hi
        else:
            # bisect ln(index) until the bracket is one cell or 2^-170 of its end wide
            lo_t, hi_t = mpmath.log(real(a)), mpmath.log(real(hi - 1))
            while mpmath.exp(hi_t) - mpmath.exp(lo_t) > max(1, mpmath.ldexp(mpmath.exp(lo_t), -170)):
                mid = (lo_t + hi_t) / 2
                lo_t, hi_t = (mid, hi_t) if log_ratio(mpmath.exp(mid)) > 0 else (lo_t, mid)
            j = int(mpmath.ceil(mpmath.exp(lo_t)))
            j += heavier(j)  # the root lies within a cell past lo_t
            d, tol = max(1, j >> 160), mpmath.mpf(10) ** -50
            assert log_ratio(max(j - d, a)) > -tol and log_ratio(min(j + d - 1, hi - 1)) < tol, (
                p, n, k)
        return float(F(j, size - j) + 1 - F(size - k + j, k - j))
