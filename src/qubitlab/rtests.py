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
    BadDimensionError,
    DensityOperator,
    DimensionCapError,
    Projection,
    eigendecompose,
    projection_weight,
    tau_weight,
    top_k_projector,
    top_k_sum,
    _finite,
)
from .states import StateSequence, block_checkpoint


class CertificateError(AssertionError):
    """An emitted term failed its own exactly-checked budget bound."""


@dataclass(frozen=True)
class TestTerm:
    """Order m, the register size it lives on, and the projection itself."""

    m: int
    qubits: int
    projector: Projection


@dataclass(frozen=True)
class ProjectionSequence:
    """Finite list of test terms with strictly increasing orders."""

    terms: tuple[TestTerm, ...]

    def __post_init__(self):
        ms = [t.m for t in self.terms]
        if ms != sorted(set(ms)):
            raise ValueError("term orders must be strictly increasing")
        for t in self.terms:
            if t.projector.qubits != t.qubits:
                raise BadDimensionError(f"term m={t.m} qubit count mismatch")

    @classmethod
    def from_generator(
        cls, gen: Callable[[int], tuple[Projection, int]], m_max: int
    ) -> "ProjectionSequence":
        terms = []
        for m in range(1, m_max + 1):
            proj, qubits = gen(m)
            terms.append(TestTerm(m=m, qubits=qubits, projector=proj))
        return cls(terms=tuple(terms))

    @property
    def m_max(self) -> int:
        return self.terms[-1].m if self.terms else 0

    def up_to(self, depth: int) -> tuple[TestTerm, ...]:
        return tuple(t for t in self.terms if t.m <= depth)


@dataclass(frozen=True)
class QSTest:
    """Projection sequence plus a budget certificate for its total weight.

    ``budget`` is "geometric" (each tau(S^m) <= 2^-m), "explicit"
    (monotone partial sums supplied), or anything else, which downstream
    validation flags as unverified.
    """

    seq: ProjectionSequence
    budget: str = "geometric"
    partial_sums: tuple[float, ...] | None = None

    def as_null_condition(self) -> "NullCondition":
        return NullCondition(seq=self.seq)


@dataclass(frozen=True)
class STest:
    """Projection sequence weighted by 2^(-s n_m) Tr(T^m)."""

    s: float
    seq: ProjectionSequence
    weight_partial_sums: tuple[float, ...] = ()


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
    def all_witness(self) -> bool:
        return bool(self.ms) and len(self.witnesses) == len(self.ms)

    @property
    def argmin_m(self) -> int | None:
        if not self.weights:
            return None
        return self.ms[int(np.argmin(self.weights))]

    @property
    def satisfied_evidence(self) -> bool:
        return self.min_weight <= self.delta


@dataclass(frozen=True)
class ValidationReport:
    status: str  # "valid" | "invalid" | "unverified"
    checked_depth: int
    violations: tuple[tuple[int, float, float], ...] = ()  # (m, value, bound)

    @property
    def valid(self) -> bool:
        return self.status == "valid"


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


def _grouped_factor_weight(
    state_factors: list[np.ndarray], proj_factors: tuple[tuple[int, np.ndarray], ...]
) -> float:
    """Product of per-block weights after regrouping state factors.

    State factors may be finer than the projection's blocks; they are
    kron-merged until the qubit boundaries line up.  Raises when a state
    factor straddles a block boundary.
    """
    it = iter(state_factors)
    weight = 1.0
    for q, idx in proj_factors:
        buf: np.ndarray | None = None
        bufq = 0
        while bufq < q:
            try:
                v = next(it)
            except StopIteration:
                raise BadDimensionError("state factors shorter than projection") from None
            buf = v if buf is None else np.kron(buf, v)
            bufq += int(v.size).bit_length() - 1
        if bufq != q:
            raise BadDimensionError("factor boundaries do not align")
        weight *= float(buf[idx].sum())
    if next(it, None) is not None:
        raise BadDimensionError("state factors longer than projection")
    return weight


def state_weight(state: StateSequence, n: int, g: Projection) -> float:
    """Tr(rho_n G) along whichever representation reaches depth n."""
    if g.qubits != n:
        raise BadDimensionError(f"projection on {g.qubits} qubits, depth {n}")
    if state.has_factors and g.matrix is None:
        proj_factors = g.factors if g.factors is not None else ((n, g.basis_indices),)
        try:
            return _grouped_factor_weight(state.diag_factors(n), proj_factors)
        except (BadDimensionError, DimensionCapError):
            pass  # fall through to materialisation
    return projection_weight(state.density(n), g)


def evaluate_failure(
    state: StateSequence, test: QSTest | STest | NullCondition, delta: float, depth: int
) -> FailureReport:
    """Weight table of the state against a test, s-test or null condition.

    The same table reads both ways: witnesses above delta for a test,
    ``satisfied_evidence`` (minimum weight at most delta) for a null
    condition.
    """
    delta = float(_finite(np.asarray(delta, dtype=float), "delta"))
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
    """Check the budget certificate through the given order.

    Geometric budgets are checked exactly: rank * 2^m <= 2^n per term.
    Explicit budgets must be non-decreasing and consistent with the terms'
    actual normalised ranks.  Any other budget label is left unverified.
    """
    terms = test.seq.up_to(depth)
    if test.budget == "geometric":
        violations = []
        for t in terms:
            if (t.projector.rank << t.m) > (1 << t.qubits):
                violations.append((t.m, tau_weight(t.projector), 2.0**-t.m))
        status = "valid" if not violations else "invalid"
        return ValidationReport(status=status, checked_depth=depth, violations=tuple(violations))
    if test.budget == "explicit":
        sums = test.partial_sums or ()
        violations = []
        prev = 0.0
        for i, s in enumerate(sums[:depth], start=1):
            if s < prev - 1e-12:
                violations.append((i, s, prev))
            prev = s
        for t in terms:
            if t.m <= len(sums):
                inc = sums[t.m - 1] - (sums[t.m - 2] if t.m >= 2 else 0.0)
                if abs(inc - tau_weight(t.projector)) > 1e-9:
                    violations.append((t.m, inc, tau_weight(t.projector)))
        status = "valid" if not violations else "invalid"
        return ValidationReport(status=status, checked_depth=depth, violations=tuple(violations))
    return ValidationReport(status="unverified", checked_depth=depth)


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

    For each order m the depth n climbs strictly above the previous term's
    depth; the first n with an admissible rank k = rank_at(n, m) (None
    when inadmissible) and top-k mass above delta emits the top-k
    eigenprojector of level n, which must pass certified(m, n, rank).
    Orders with no such depth up to the cap are reported as exhausted.
    """
    delta = float(as_fraction(delta))
    depth_cap = min(depth_cap, state.max_depth)
    spectra: dict[int, np.ndarray] = {}
    built: list[TestTerm] = []
    exhausted: list[int] = []
    next_n = 1
    for m in range(1, terms + 1):
        for n in range(next_n, depth_cap + 1):
            k = rank_at(n, m)
            if k is None:
                continue
            if n not in spectra:
                spectra[n] = state.spectrum(n)
            if top_k_sum(spectra[n], k) > delta:
                break
        else:
            exhausted.append(m)
            continue
        proj = top_k_projector(eigendecompose(state.density(n)), k)
        if not certified(m, n, proj.rank):
            raise CertificateError(f"order {m}: {what} at depth {n}")
        built.append(TestTerm(m=m, qubits=n, projector=proj))
        next_n = n + 1
    test = QSTest(seq=ProjectionSequence(terms=tuple(built)), budget="geometric")
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
    seq = out.test.seq
    weights = [term.projector.rank * 2.0 ** (-term.qubits * float(s)) for term in seq.terms]
    test = STest(s=float(s), seq=seq, weight_partial_sums=tuple(np.cumsum(weights).tolist()))
    return replace(out, test=test)


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
    """Order-m term pinning the block sequence: marker qubits forced to 0.

    Lives on the m-th checkpoint register; its rank is the product of the
    uniform block sizes, so its normalised rank is exactly 2^-m while the
    block sequence's weight on it is exactly 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if block_checkpoint(m) > 64:
        raise DimensionCapError("checkpoint register beyond supported size")
    factors = tuple((i + 1, np.arange(1 << i)) for i in range(1, m + 1))
    proj = Projection.from_factors(factors)
    return TestTerm(m=m, qubits=block_checkpoint(m), projector=proj)


def block_test_sequence(terms: int) -> QSTest:
    return QSTest(
        seq=ProjectionSequence(terms=tuple(block_state_test(m) for m in range(1, terms + 1))),
        budget="geometric",
    )


def pad_to_multiple(g: Projection, k: int) -> Projection:
    """Extend a projection with identity qubits up to a multiple of k.

    Both the normalised rank and every coherent state's weight are
    unchanged: the identity padding is traced away by coherence.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pad = (-g.qubits) % k
    if pad == 0:
        return g
    if g.basis_indices is not None:
        return Projection.from_factors(((g.qubits, g.basis_indices), (pad, np.arange(1 << pad))))
    if g.factors is not None:
        return Projection.from_factors(tuple(g.factors) + ((pad, np.arange(1 << pad)),))
    ident = np.eye(1 << pad, dtype=complex)
    from .linalg import tensor as _tensor

    return Projection(qubits=g.qubits + pad, matrix=_tensor(g.matrix, ident))


#: eigenvalue vectors of tensor powers are materialised up to this many qubits
EIG_VECTOR_QUBIT_CAP = 24


def typical_subspace_decay(d: DensityOperator, rate, depth: int) -> DecayCurve:
    """Largest weight a rank-floor(2^(n r)) projection can take on n copies.

    By the top-k bound this maximum is the leading eigenvalue mass of the
    n-fold tensor power, so the curve dominates every concrete test with
    that rank profile.  Requires r < H(d); otherwise no decay is promised
    and the call is refused.
    """
    rate = as_fraction(rate)
    from .linalg import von_neumann_entropy

    h = von_neumann_entropy(d)
    if float(rate) >= h - 1e-12:
        raise ValueError(f"rate {float(rate)} is not below the entropy {h:.6f}")
    if d.is_diagonal:
        base = np.sort(d.probs.astype(float))[::-1]
    else:
        base = np.sort(np.clip(np.linalg.eigvalsh(d.matrix), 0.0, None))[::-1]
    if depth * d.qubits > EIG_VECTOR_QUBIT_CAP:
        raise DimensionCapError(
            f"eigenvalue vector would need 2^{depth * d.qubits} entries"
        )
    ns, ranks, values = [], [], []
    eigs = np.array([1.0])
    for n in range(1, depth + 1):
        eigs = np.kron(eigs, base)
        eigs[::-1].sort()
        r = min(max(rank_floor(n, rate), 1), eigs.size)
        ns.append(n)
        ranks.append(r)
        values.append(float(eigs[:r].sum()))
    return DecayCurve(ns=tuple(ns), ranks=tuple(ranks), values=tuple(values))
