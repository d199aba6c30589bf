"""Projection-sequence tests against state sequences.

A test is a finite list of projections, one per order m, together with a
budget certificate bounding the normalised ranks.  A state "fails" a test
at order delta when its levels place weight above delta on the listed
projections; at finite depth that is reported as a witness set, never as
a silent boolean, because the infinite-depth statement cannot be decided
from finitely many terms.

The builders extract such tests from a state's own spectra.  Each emitted
term carries an exactly-verified certificate (integer arithmetic, no
float pow), and a builder that finds no admissible depth for some order
reports that order as exhausted -- the expected outcome on
high-entropy states -- rather than raising.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .dyadic import as_fraction, rank_ceil, rank_floor
from .linalg import (
    DIAG_QUBIT_CAP,
    BadDimensionError,
    DensityOperator,
    DimensionCapError,
    Projection,
    eigendecompose,
    projection_weight,
    tau_weight,
    top_k_projector,
    von_neumann_entropy,
    _finite,
    _floats,
    _product_weight,
)
from .states import StateSequence, block_checkpoint, block_state


class CertificateError(AssertionError):
    """An emitted term failed its own exactly-checked budget bound."""


@dataclass(frozen=True)
class TestTerm:
    """Order m and its projection; the register it lives on is the projection's."""

    m: int
    projector: Projection

    @property
    def qubits(self) -> int:
        return self.projector.qubits


@dataclass(frozen=True)
class ProjectionSequence:
    """Finite list of test terms with strictly increasing orders."""

    terms: tuple[TestTerm, ...]

    def __post_init__(self):
        ms = [t.m for t in self.terms]
        if ms != sorted(set(ms)):
            raise ValueError("term orders must be strictly increasing")

    @property
    def m_max(self) -> int:
        return self.terms[-1].m if self.terms else 0

    def up_to(self, depth: int) -> tuple[TestTerm, ...]:
        return tuple(t for t in self.terms if t.m <= depth)


@dataclass(frozen=True)
class QSTest:
    """Projection sequence whose terms carry the geometric certificate tau(S^m) <= 2^-m."""

    seq: ProjectionSequence

    def as_null_condition(self) -> "NullCondition":
        return NullCondition(seq=self.seq)


@dataclass(frozen=True)
class STest:
    """Projection sequence weighted by 2^(-s n_m) Tr(T^m)."""

    s: float
    seq: ProjectionSequence

    @property
    def weight_partial_sums(self) -> tuple[float, ...]:
        """Cumulative rank * 2^(-n_m s) over the terms."""
        weights = [t.projector.rank * 2.0 ** (-t.qubits * self.s) for t in self.seq.terms]
        return tuple(np.cumsum(weights).tolist())


@dataclass(frozen=True)
class NullCondition:
    """Projection sequence whose normalised ranks are meant to vanish."""

    seq: ProjectionSequence


@dataclass(frozen=True)
class FailureReport:
    """Weights rho(S^m) at each evaluated order, who exceeded delta, and who dipped below.

    Witnesses above delta are evidence of failing a test; a minimum weight
    at most delta is evidence of satisfying a null condition.
    """

    delta: float
    depth: int
    ms: tuple[int, ...]
    weights: tuple[float, ...]

    @property
    def witnesses(self) -> tuple[int, ...]:
        return tuple(m for m, w in zip(self.ms, self.weights) if w > self.delta)

    @property
    def min_weight(self) -> float:
        return min(self.weights) if self.weights else math.inf

    @property
    def satisfied_evidence(self) -> bool:
        return self.min_weight <= self.delta


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[tuple[int, float, float], ...] = ()  # (m, tau, 2^-m)

    @property
    def valid(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class TrendReport:
    """Normalised ranks along a null condition and whether their max halves."""

    ms: tuple[int, ...]
    taus: tuple[float, ...]

    @property
    def halved(self) -> bool:
        if len(self.taus) < 2:
            return False
        cut = len(self.taus) // 2
        head, tail = self.taus[:cut], self.taus[cut:]
        return max(tail) <= 0.5 * max(head)


@dataclass(frozen=True)
class BuildOutcome:
    """Result of a test builder: the test plus any exhausted orders."""

    test: QSTest | STest
    exhausted: tuple[int, ...]
    requested_terms: int
    depth_cap: int

    @property
    def complete(self) -> bool:
        return not self.exhausted


@dataclass(frozen=True)
class DecayCurve:
    """Per-depth maxima of the weight any capped-rank projection can take."""

    ns: tuple[int, ...]
    ranks: tuple[int, ...]
    values: tuple[float, ...]

    @property
    def tail_strictly_decreasing(self) -> bool:
        k = max(3, len(self.values) // 4)
        tail = self.values[-k:]
        return all(b < a for a, b in zip(tail, tail[1:]))

    @property
    def net_decay(self) -> bool:
        return len(self.values) >= 2 and self.values[-1] < self.values[0]


# ---------------------------------------------------------------------------
# evaluation


def state_weight(state: StateSequence, n: int, g: Projection) -> float:
    """Tr(rho_n G): a product projection by the state's diagonal blocks, else materialised."""
    if g.qubits != n:
        raise BadDimensionError(f"projection on {g.qubits} qubits, depth {n}")
    if g.matrix is None:
        return _product_weight(state.diag_factors(n), g.factors)
    return projection_weight(state.density(n), g)


def evaluate_failure(
    state: StateSequence, test: QSTest | STest | NullCondition, delta: float, depth: int
) -> FailureReport:
    """Weight table of the state against a test, s-test or null condition.

    The same table reads both ways: witnesses above delta for a test,
    ``satisfied_evidence`` (minimum weight at most delta) for a null
    condition.
    """
    delta = float(_finite(_floats(delta, "delta"), "delta"))
    if depth < 0:
        raise BadDimensionError(f"depth {depth} is below 0")
    ms, weights = [], []
    for t in test.seq.up_to(depth):
        if t.qubits > state.max_depth:
            raise BadDimensionError(
                f"term m={t.m} needs depth {t.qubits}, state stops at {state.max_depth}"
            )
        ms.append(t.m)
        weights.append(state_weight(state, t.qubits, t.projector))
    return FailureReport(delta=delta, depth=depth, ms=tuple(ms), weights=tuple(weights))


def validate_qstest(test: QSTest, depth: int) -> ValidationReport:
    """Check the geometric certificate through the given order, exactly: rank * 2^m <= 2^n."""
    return ValidationReport(tuple(
        (t.m, tau_weight(t.projector), 2.0**-t.m)
        for t in test.seq.up_to(depth)
        if (t.projector.rank << t.m) > (1 << t.qubits)
    ))


def null_condition_trend(cond: NullCondition, depth: int) -> TrendReport:
    """Normalised ranks tau(T^m) for m <= depth, with a halving flag."""
    terms = cond.seq.up_to(depth)
    return TrendReport(
        ms=tuple(t.m for t in terms),
        taus=tuple(tau_weight(t.projector) for t in terms),
    )


# ---------------------------------------------------------------------------
# builders


def _scan(
    state: StateSequence,
    delta,
    terms: int,
    depth_cap: int,
    rank_at: Callable[[int, int], int | None],
    certified: Callable[[int, int, int], bool],
    what: str,
) -> BuildOutcome:
    """The one depth scan behind every builder.

    delta must lie in (0, 1), and depth_cap and terms must be at least 1.
    For each order m the depth n climbs strictly above the previous term's
    depth; the first n with an admissible rank k = rank_at(n, m) (None
    when inadmissible) and top-k mass above delta emits the top-k
    eigenprojector of level n, which must pass certified(m, n, rank).
    Every order's mass test runs first, on the state's closed form,
    histogram or memoised spectrum, so a plan that would emit past the
    state's `level_cap` is refused before any level is decomposed; an
    emitted level is decomposed once.  Orders with no such depth up to the
    cap are reported as exhausted.
    """
    delta = float(as_fraction(delta))
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie strictly between 0 and 1, got {delta}")
    for name, value in (("depth", depth_cap), ("terms", terms)):
        if value < 1:
            raise BadDimensionError(f"{name} {value} is below 1")
    depth_cap = min(depth_cap, state.max_depth)
    plan: list[tuple[int, int, int]] = []
    exhausted: list[int] = []
    next_n = 1
    for m in range(1, terms + 1):
        for n in range(next_n, depth_cap + 1):
            k = rank_at(n, m)
            if k is not None and state.top_k_mass(n, k) > delta:
                plan.append((m, n, k))
                next_n = n + 1
                break
        else:
            exhausted.append(m)
    for m, n, _ in plan:
        if n > state.level_cap:
            raise DimensionCapError(
                f"order {m} would emit from depth {n}, past {state.level_cap} qubits")
    built: list[TestTerm] = []
    for m, n, k in plan:
        proj = top_k_projector(state.eigensystem(n), k)
        if not certified(m, n, proj.rank):
            raise CertificateError(f"order {m}: {what} at depth {n}")
        built.append(TestTerm(m=m, projector=proj))
    test = QSTest(seq=ProjectionSequence(terms=tuple(built)))
    return BuildOutcome(
        test=test, exhausted=tuple(exhausted), requested_terms=terms, depth_cap=depth_cap
    )


def build_entropy_deficiency_test(
    state: StateSequence,
    theta,
    delta,
    terms: int,
    depth_cap: int,
) -> BuildOutcome:
    """Geometric test pinning levels whose top ceil(2^(n theta)) mass exceeds delta.

    For each order m the scan moves strictly upward in depth and admits n
    only when (2^(n theta) + 1) / 2^n < 2^-m, decided exactly; the emitted
    projector then satisfies tau < 2^-m by construction.  Orders with no
    admissible depth up to the cap are reported as exhausted (the expected
    outcome when the spectra carry no concentrated mass).
    """
    theta = as_fraction(theta)
    if not 0 < theta < 1:
        raise ValueError("theta must lie strictly between 0 and 1")

    def rank_at(n: int, m: int) -> int | None:
        k = rank_ceil(n, theta)
        # admissibility: (2^(n theta) + 1) < 2^(n-m), exactly
        if k > (1 << n) or n <= m:
            return None
        lhs = 1 << (n * theta.numerator)
        rhs = ((1 << (n - m)) - 1) ** theta.denominator
        return k if lhs < rhs else None

    return _scan(
        state, delta, terms, depth_cap, rank_at,
        lambda m, n, rank: (rank << m) < (1 << n), "rank bound violated",
    )


def build_s_test(
    state: StateSequence,
    s,
    t,
    delta,
    terms: int,
    depth_cap: int,
) -> BuildOutcome:
    """Weighted test with per-term budget 2^(-n_m s) Tr(S^m) < 2^-m.

    Admits depth n for order m when (k+1) < 2^(n s - m) with
    k = ceil(2^(n t)), decided exactly; this implies the stated budget
    since k <= 2^(n t) + 1.
    """
    s = as_fraction(s)
    t = as_fraction(t)
    if not 0 <= t < s <= 1:
        raise ValueError("need 0 <= t < s <= 1")

    def rank_at(n: int, m: int) -> int | None:
        k = rank_ceil(n, t) if t > 0 else 1
        expo = n * s.numerator - m * s.denominator
        if k > (1 << n) or expo <= 0 or (k + 1) ** s.denominator >= (1 << expo):
            return None
        return k

    def certified(m: int, n: int, rank: int) -> bool:
        expo = n * s.numerator - m * s.denominator
        return expo > 0 and rank**s.denominator < (1 << expo)

    out = _scan(state, delta, terms, depth_cap, rank_at, certified, "weight bound violated")
    return replace(out, test=STest(s=float(s), seq=out.test.seq))


def build_ui_test(
    state: StateSequence,
    delta,
    terms: int,
    depth_cap: int,
) -> BuildOutcome:
    """Geometric test from levels whose top 2^(j-m) mass exceeds delta.

    The emitted projector has rank exactly 2^(j-m), so tau(G^m) = 2^-m with
    no slack.  Exhaustion of an order is finite-depth evidence that the
    spectra integrate uniformly at that scale.
    """
    return _scan(
        state, delta, terms, depth_cap,
        lambda j, m: 1 << (j - m) if j >= m else None,
        lambda m, j, rank: (rank << m) == (1 << j), "rank is not exactly 2^(j-m)",
    )


# ---------------------------------------------------------------------------
# fixed constructions


def block_state_test(m: int) -> TestTerm:
    """Order-m term pinning the block sequence: the support of its checkpoint level.

    Each one-qubit block is read off the block state's own level at the
    m-th checkpoint: [0] on its m marker qubits and [0, 1] on the rest, so
    the normalised rank is exactly 2^-m while the block sequence's weight
    on it is exactly 1, at any order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = block_checkpoint(m)
    blocks = ((1, f.nonzero()[0]) for f in block_state(n).diag_factors(n))
    return TestTerm(m=m, projector=Projection.from_factors(blocks))


def block_test_sequence(terms: int) -> QSTest:
    return QSTest(
        seq=ProjectionSequence(terms=tuple(block_state_test(m) for m in range(1, terms + 1)))
    )


def typical_subspace_decay(d: DensityOperator, rate, depth: int) -> DecayCurve:
    """Largest weight a rank-floor(2^(n r)) projection can take on n copies.

    By the top-k bound this maximum is the leading eigenvalue mass of the
    n-fold tensor power, so the curve dominates every concrete test with
    that rank profile.  Requires r < H(d); otherwise no decay is promised
    and the call is refused.
    """
    if depth < 1:
        raise BadDimensionError(f"depth {depth} is below 1")
    rate = as_fraction(rate)
    spec = eigendecompose(d)
    h = von_neumann_entropy(spec)
    if float(rate) >= h - 1e-12:
        raise ValueError(f"rate {float(rate)} is not below the entropy {h:.6f}")
    if depth * d.qubits > DIAG_QUBIT_CAP:
        raise DimensionCapError(
            f"eigenvalue vector would need 2^{depth * d.qubits} entries"
        )
    ns, ranks, values = [], [], []
    eigs = np.array([1.0])
    for n in range(1, depth + 1):
        eigs = np.kron(eigs, spec.eigenvalues)
        eigs[::-1].sort()
        r = min(max(rank_floor(n, rate), 1), eigs.size)
        ns.append(n)
        ranks.append(r)
        values.append(float(eigs[:r].sum()))
    return DecayCurve(ns=tuple(ns), ranks=tuple(ranks), values=tuple(values))
