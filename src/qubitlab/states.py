"""Coherent sequences of register states and their entropy analytics.

A state sequence maps each depth n to an n-qubit density operator such
that tracing the last qubit out of level n reproduces level n-1.  The
constructors here cover the uniform (tracial) sequence, pure bitstring
sequences, the block construction whose per-qubit entropy climbs to 1
while a cheap projection sequence still pins it, tensor powers of a fixed
operator, and diagonal sequences induced by a probability density on the
unit interval.

Sequences whose levels are tensor products of small diagonal blocks also
carry that factorisation, which lets entropy and coherence reach depths
far beyond anything a materialised 2^n vector could.  The spectrum of
such a level is a product of the factors' spectra, so by the method of
types it is an exact histogram of distinct values with integer
multiplicities, usually far shorter than 2^n.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DIAG_QUBIT_CAP,
    BadDimensionError,
    DensityOperator,
    DimensionCapError,
    Spectrum,
    SpectrumHistogram,
    WrongTraceError,
    DENSE_QUBIT_CAP,
    eigendecompose,
    matrix_from_json,
    matrix_to_json,
    partial_trace_k,
    partial_trace_last,
    shannon_entropy,
    tensor,
    top_k_sum,
    von_neumann_entropy,
    _pt_diag,
    _readonly,
)


class SourceExhaustedError(ValueError):
    """Bit source ran out before the requested depth."""


@dataclass(frozen=True)
class _FactorSummary:
    """A diagonal factor's distinct positive entries (descending) and their counts."""

    values: tuple[float, ...]
    counts: tuple[int, ...]


def _summarise(f: np.ndarray) -> _FactorSummary:
    vals, counts = np.unique(f[f > 0.0], return_counts=True)
    return _FactorSummary(tuple(vals[::-1].tolist()), tuple(counts[::-1].tolist()))


def _types(copies: int, parts: int):
    """Every tuple of ``parts`` nonnegative ints summing to ``copies`` (stars and bars)."""
    for bars in itertools.combinations(range(copies + parts - 1), parts - 1):
        edges = (-1, *bars, copies + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _power_histogram(s: _FactorSummary, copies: int) -> dict[float, int]:
    """Eigenvalue -> multiplicity of ``copies`` copies of one factor, by type class.

    The type taking the i-th distinct value j_i times has the value
    prod v_i^j_i, always computed by this one expression so equal types
    give equal floats, and multiplicity multinomial(copies; j) prod c_i^j_i.
    """
    out: dict[float, int] = {}
    for js in _types(copies, len(s.values)):
        v = math.prod(x**j for x, j in zip(s.values, js))
        mult, left = 1, copies
        for j, c in zip(js, s.counts):
            mult *= math.comb(left, j) * c**j
            left -= j
        out[v] = out.get(v, 0) + mult
    return out


def _level_histogram(n: int, parts: list[tuple[_FactorSummary, int]]) -> SpectrumHistogram | None:
    """Histogram of an n-qubit product of (factor summary, copies) parts.

    A part with c copies of an r-valued factor has t = C(c + r - 1, r - 1)
    types, each valued with r products, and merging multiplies the type
    counts.  None when prod(t) is not below 2^n (no saving), or when the
    work, sum(t * r) + parts * prod(t), exceeds 2^(m - 3) for
    m = min(max(n, 12), DIAG_QUBIT_CAP - 3).  A unit of that work costs
    about five times what sorting one materialised eigenvalue does, so an
    eighth of 2^n keeps the histogram the cheaper path; below 2^9 units
    either path is instant; and the 2^18 ceiling (a fraction of a second)
    leaves a level past the diagonal cap with costly types to raise
    DimensionCapError.
    """
    types = [math.comb(c + len(s.values) - 1, c) for s, c in parts]
    size = math.prod(types)
    work = sum(t * len(s.values) for t, (s, _) in zip(types, parts)) + len(parts) * size
    if size >= 1 << n or work > 1 << (min(max(n, 12), DIAG_QUBIT_CAP - 3) - 3):
        return None
    acc = {1.0: 1}
    for s, c in parts:
        merged: dict[float, int] = {}
        for b, mb in _power_histogram(s, c).items():
            for a, ma in acc.items():
                merged[a * b] = merged.get(a * b, 0) + ma * mb
        acc = merged
    items = sorted((item for item in acc.items() if item[0] > 0.0), reverse=True)
    return SpectrumHistogram(n, tuple(v for v, _ in items), tuple(c for _, c in items))


class StateSequence:
    """Lazy, memoised map from depth n to the n-qubit density operator.

    A state takes exactly one level source, and the source decides how a
    level is held.  ``generator`` must be deterministic and total on
    1..max_depth (up to representation caps).  ``factors`` is one sequence
    of diagonal blocks (probability vectors on one qubit or more) through
    qubit ``max_depth``, each distinct block validated once.  Level n is
    its prefix: the kron of the blocks that end by qubit n, times the next
    block traced down to fit, so levels are coherent by construction and
    exact at any depth; level n is materialised as that kron (up to the
    diagonal cap).  Levels and their spectra are
    memoised side by side, so each level is decomposed at most once; a
    dense level's eigenvectors then live as long as the sequence.  A
    factored level's spectrum is also memoised as a histogram.  Access is
    thread-safe.
    """

    def __init__(
        self,
        name: str,
        max_depth: int,
        generator: Callable[[int], DensityOperator] | None = None,
        *,
        factors: Sequence[np.ndarray] | None = None,
        spec: dict | None = None,
    ):
        self.name = name
        self.max_depth = int(max_depth)
        if self.max_depth < 1:
            raise BadDimensionError(f"max_depth {max_depth} is below 1")
        if (generator is None) == (factors is None):
            raise ValueError(f"state {name!r} needs a generator or factors, not both")
        if callable(factors):
            raise TypeError(f"factors of {name!r} must be a sequence of blocks, not a callable")
        self.spec = spec
        self._generator = generator
        self._factors = None if factors is None else tuple(factors)
        if self._factors is not None:
            # each distinct block object is validated, and its entropy computed, once
            ids = list(map(id, self._factors))
            distinct = dict(zip(ids, self._factors))
            qubits = {i: DensityOperator.diagonal(f).qubits for i, f in distinct.items()}
            self._block_entropy = {i: shannon_entropy(f) for i, f in distinct.items()}
            # _head_entropy[i]: the entropies of blocks [:i] summed left to right from 0.0
            self._head_entropy = np.fromiter(itertools.accumulate(
                map(self._block_entropy.__getitem__, ids), initial=0.0), float, len(ids) + 1)
            self._ends = list(itertools.accumulate(map(qubits.__getitem__, ids)))
            if min(qubits.values(), default=0) < 1 or self._ends[-1] < self.max_depth:
                raise BadDimensionError(
                    f"{name!r} needs blocks of one qubit or more through qubit {self.max_depth}")
        self._cache: dict[int, DensityOperator] = {}
        self._spectra: dict[int, Spectrum] = {}
        self._histograms: dict[int, SpectrumHistogram | None] = {}
        # (n, k) -> top-k mass without materialising, set by constructors that have one
        self._top_k: Callable[[int, int], float] | None = None
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return f"StateSequence({self.name!r}, max_depth={self.max_depth})"

    def _check_depth(self, n: int) -> None:
        if not 1 <= n <= self.max_depth:
            raise BadDimensionError(f"depth {n} outside 1..{self.max_depth}")

    def _memo(self, table: dict, n: int, make: Callable[[], object]):
        """table[n], made outside the lock on a miss; every racer gets the stored value."""
        with self._lock:
            if n in table:
                return table[n]
        value = make()
        with self._lock:
            return table.setdefault(n, value)

    def density(self, n: int) -> DensityOperator:
        self._check_depth(n)
        make = self._kron_factors if self._generator is None else self._generator
        return self._memo(self._cache, n, lambda: make(n))

    def _level(self, n: int) -> tuple[int, np.ndarray]:
        """Factored level n as (i, last): blocks [:i] end by qubit n, and last is block i traced to fit."""
        i = bisect.bisect_left(self._ends, n)
        cut = self._ends[i] - n
        return i, _pt_diag(self._factors[i], cut) if cut else self._factors[i]

    def _kron_factors(self, n: int) -> DensityOperator:
        if n > DIAG_QUBIT_CAP:
            raise DimensionCapError(f"cannot materialise {n} qubits")
        # every block was validated at construction, so their product is clipped, not re-checked
        i, last = self._level(n)
        out = functools.reduce(np.kron, [*self._factors[:i], last], np.ones(1))
        return DensityOperator(qubits=n, probs=_readonly(np.clip(out, 0.0, None, out=out)))

    @property
    def has_factors(self) -> bool:
        return self._factors is not None

    def diag_factors(self, n: int) -> list[np.ndarray]:
        self._check_depth(n)
        if self._factors is None:
            raise BadDimensionError(f"{self.name} has no factored form")
        i, last = self._level(n)
        return [*self._factors[:i], last]

    def eigensystem(self, n: int) -> Spectrum:
        """Memoised spectrum of level n (materialised levels only)."""
        return self._memo(self._spectra, n, lambda: eigendecompose(self.density(n)))

    def spectrum(self, n: int) -> np.ndarray:
        """Descending eigenvalues of level n (materialised levels only)."""
        return self.eigensystem(n).eigenvalues

    def histogram(self, n: int) -> SpectrumHistogram | None:
        """Memoised spectrum histogram of factored level n.

        Each distinct factor with c copies contributes its type classes,
        and the factors' histograms multiply with equal values merged.
        None for an unfactored state, and for a level whose type classes
        would cost more than sorting its spectrum (see `_level_histogram`);
        `top_k_mass` then reads the materialised spectrum.  Values that
        underflow are lost, so a histogram whose multiplicities times values
        miss 1 by more than `TOP_K_ERROR` raises DimensionCapError rather
        than give wrong masses.
        """
        self._check_depth(n)
        if self._factors is None:
            return None

        def make() -> SpectrumHistogram | None:
            # the list holds every factor, so no id is reused inside one call
            copies: dict[int, list] = {}
            i, last = self._level(n)
            for f in [*self._factors[:i], last]:
                copies.setdefault(id(f), [f, 0])[1] += 1
            hist = _level_histogram(n, [(_summarise(f), c) for f, c in copies.values()])
            if hist is not None:
                mass = top_k_sum(hist, 1 << n)
                if not abs(mass - 1.0) <= TOP_K_ERROR:
                    raise DimensionCapError(
                        f"level {n} keeps mass {mass!r} in floats: its eigenvalues underflow")
            return hist

        return self._memo(self._histograms, n, make)

    def top_k_mass(self, n: int, k: int) -> float:
        """Sum of the k largest eigenvalues of level n: closed form, histogram or spectrum."""
        if self._top_k is not None:
            self._check_depth(n)
            return self._top_k(n, k)
        hist = self.histogram(n)
        return top_k_sum(self.eigensystem(n) if hist is None else hist, k)

    def entropy(self, n: int) -> float:
        """Entropy in bits of level n: its blocks' entropies summed left to right, when factored."""
        if self._factors is not None:
            self._check_depth(n)
            i, last = self._level(n)
            h = self._block_entropy[id(last)] if last is self._factors[i] else shannon_entropy(last)
            return float(self._head_entropy[i] + h)
        return von_neumann_entropy(self.eigensystem(n))


@dataclass(frozen=True)
class EntropyProfile:
    """Rows (n, H(level n), H/n) for n = 1..depth."""

    name: str
    entries: tuple[tuple[int, float, float], ...]

    def ratios(self) -> list[float]:
        return [r for _, _, r in self.entries]


@dataclass(frozen=True)
class EntropyRateEstimate:
    """Finite surrogate for the liminf of H/n: the trailing-window minimum.

    The window is reported alongside the value so the number is never
    mistaken for a true limit.
    """

    value: float
    window: int
    n_lo: int
    n_hi: int


@dataclass(frozen=True)
class CoherenceReport:
    """Per-level deviation between the traced level n and level n-1."""

    name: str
    tol: float
    deviations: tuple[tuple[int, float], ...]

    @property
    def passed(self) -> bool:
        return all(dev <= self.tol for _, dev in self.deviations)

    @property
    def first_failure(self) -> int | None:
        for n, dev in self.deviations:
            if dev > self.tol:
                return n
        return None


def _check_scan(state: StateSequence, depth: int, *, top_k: bool = False) -> None:
    """Refuse up front a scan of levels 1..depth that would fail part way.

    The scan reads each level's entropy, or with ``top_k`` its top-k
    masses.  A factored state answers entropy at any depth, and top-k
    masses until its eigenvalues underflow (2^-n does past 1,074 qubits),
    where `histogram` refuses the level.  Closed-form masses reach
    `CLOSED_FORM_QUBIT_CAP`, and anything else materialises its levels,
    which no form holds past `DIAG_QUBIT_CAP` qubits.
    """
    if depth < 1:
        raise BadDimensionError(f"depth {depth} is below 1")
    if depth > state.max_depth:
        raise BadDimensionError(f"depth {depth} beyond max_depth {state.max_depth}")
    if top_k and state._top_k is not None:
        cap = CLOSED_FORM_QUBIT_CAP
    elif state.has_factors:
        return
    else:
        cap = DIAG_QUBIT_CAP
    if depth > cap:
        raise DimensionCapError(f"depth {depth} needs levels past {cap} qubits")


def entropy_profile(state: StateSequence, depth: int) -> EntropyProfile:
    _check_scan(state, depth)
    rows = []
    for n in range(1, depth + 1):
        h = state.entropy(n)
        rows.append((n, h, h / n))
    return EntropyProfile(name=state.name, entries=tuple(rows))


def entropy_rate_estimate(profile: EntropyProfile, window: int) -> EntropyRateEstimate:
    if not profile.entries:
        raise ValueError("empty entropy profile")
    if not 1 <= window <= len(profile.entries):
        raise ValueError(f"window {window} outside 1..{len(profile.entries)}")
    tail = profile.entries[-window:]
    return EntropyRateEstimate(
        value=min(r for _, _, r in tail), window=window, n_lo=tail[0][0], n_hi=tail[-1][0]
    )


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def check_coherence(state: StateSequence, depth: int, tol: float = 1e-8) -> CoherenceReport:
    """Verify that tracing level n reproduces level n-1, for 2 <= n <= depth.

    Factored levels n and n-1 share all blocks but the last, so the
    deviation is exactly sup(head) times g: |sum(last) - 1| for a one-qubit
    last block, else sup|tr_1(last) - last'| against level n-1's last one.
    """
    _check_scan(state, depth)
    devs = []
    for n in range(2, depth + 1):
        if state.has_factors:
            i, last = state._level(n)
            diff = last.sum() - 1.0 if last.size == 2 else _pt_diag(last) - state._level(n - 1)[1]
            g = _max_abs(diff)
            dev = math.prod(map(_max_abs, state._factors[:i]), start=g) if g else 0.0
        else:
            top, below = partial_trace_last(state.density(n)), state.density(n - 1)
            if top.is_diagonal and below.is_diagonal:
                dev = _max_abs(top.probs - below.probs)
            else:
                dev = _max_abs(top.dense_matrix() - below.dense_matrix())
        devs.append((n, dev))
    return CoherenceReport(name=state.name, tol=tol, deviations=tuple(devs))


# ---------------------------------------------------------------------------
# constructors


def explicit_state(name: str, levels: Sequence[DensityOperator]) -> StateSequence:
    """Wrap an explicit list of per-depth operators (levels[i] has i+1 qubits).

    The levels must be coherent, each the partial trace of the next, as
    `ui_profile` relies on: `check_coherence` runs at tolerance 1e-8 here,
    and ValueError names the first two levels that disagree.
    """
    for i, d in enumerate(levels):
        if d.qubits != i + 1:
            raise BadDimensionError(f"level {i + 1} has {d.qubits} qubits")
    ops = list(levels)
    state = StateSequence(name, len(ops), lambda n: ops[n - 1])
    report = check_coherence(state, len(ops))
    if not report.passed:
        n, dev = report.deviations[report.first_failure - 2]
        raise ValueError(f"levels {n - 1} and {n} of {name!r} are not coherent: level {n} "
                         f"traced misses level {n - 1} by {dev:.3g}")
    return state


def tracial_state(max_depth: int) -> StateSequence:
    """The uniform sequence: every level is 2^-n times the identity."""
    half = np.array([0.5, 0.5])
    return StateSequence(
        "tracial",
        max_depth,
        factors=[half] * max_depth,
        spec={"kind": "tracial", "n_max": max_depth},
    )


def prng_bits(count: int, seed: int) -> str:
    """Deterministic pseudo-random bitstring, a stand-in for a random source."""
    rng = np.random.default_rng(seed)
    return "".join("1" if b else "0" for b in rng.integers(0, 2, size=count))


def _coerce_bits(bits, count: int) -> str:
    if isinstance(bits, str):
        out = bits
    elif isinstance(bits, Iterable):
        out = "".join(str(int(b)) for b in bits)
    else:
        raise TypeError("bits must be a string or an iterable of 0/1")
    if len(out) < count:
        raise SourceExhaustedError(f"bit source has {len(out)} bits, need {count}")
    if set(out) - {"0", "1"}:
        raise ValueError("bit source must contain only 0 and 1")
    return out[:count]


def pure_bitstring_state(bits, max_depth: int, *, name: str | None = None) -> StateSequence:
    """Rank-one diagonal sequence following a fixed bitstring prefix."""
    word = _coerce_bits(bits, max_depth)
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    return StateSequence(
        name or f"pure:{word[:8]}...",
        max_depth,
        factors=[e0 if c == "0" else e1 for c in word],
        spec={"kind": "pure", "bits": word, "n_max": max_depth},
    )


def block_checkpoint(m: int) -> int:
    """Depth at which the m-th uniform block of the block sequence completes."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return m + m * (m + 1) // 2


def block_state(max_depth: int) -> StateSequence:
    """Concatenated blocks: block i is a pinned qubit then i uniform qubits.

    At checkpoint depths the entropy is depth minus the number of complete
    blocks, so the per-qubit entropy climbs toward 1 while every checkpoint
    level sits entirely inside an exponentially thin basis subset.  Each
    level is a product of one-qubit factors: counting from 0, qubit j is
    the marker [1, 0] when j is a checkpoint and [1/2, 1/2] otherwise.
    """
    # two read-only arrays, shared by every level
    e0, half = _readonly(np.array([1.0, 0.0])), _readonly(np.array([0.5, 0.5]))
    checkpoints = map(block_checkpoint, itertools.count())
    marks = set(itertools.takewhile(lambda c: c < max_depth, checkpoints))
    return StateSequence(
        "block",
        max_depth,
        factors=[e0 if j in marks else half for j in range(max_depth)],
        spec={"kind": "block", "n_max": max_depth},
    )


def tensor_power_state(
    d: DensityOperator, max_depth: int, *, name: str | None = None
) -> StateSequence:
    """Independent copies of a fixed k-qubit operator, traced to every depth."""
    k = d.qubits
    label = name or f"power:{k}q"
    spec = {"kind": "tensor_power", "n_max": max_depth, "factor": matrix_to_json(d)}
    if d.is_diagonal:
        return StateSequence(label, max_depth, factors=[d.probs] * -(-max_depth // k), spec=spec)
    top = -(-max_depth // k) * k
    if top > DENSE_QUBIT_CAP:
        raise DimensionCapError(
            f"depth {max_depth} needs {top} dense qubits, cap is {DENSE_QUBIT_CAP}"
        )

    def gen(n: int) -> DensityOperator:
        q, r = divmod(n, k)
        copies = q + (1 if r else 0)
        full = d
        for _ in range(copies - 1):
            full = tensor(full, d)
        return partial_trace_k(full, copies * k - n)

    return StateSequence(label, max_depth, gen, spec=spec)


# ---------------------------------------------------------------------------
# measure-induced diagonal sequences


@dataclass(frozen=True)
class DensitySpec:
    """A probability density on (0, 1) defining dyadic cylinder masses.

    With a closed-form antiderivative the mass of [a, b) is F(b) - F(a),
    exact up to rounding; otherwise masses come from adaptive quadrature of
    the density at the deepest requested level and are summed pairwise
    upward, which makes the parent-child mass identity exact by
    construction.
    """

    density: Callable
    antiderivative: Callable | None = None
    name: str = "density"
    _leaf_cache: dict = field(default_factory=dict, repr=False, compare=False)
    #: (n, k) -> the top-k mass of level n in closed form, for densities that have one
    _top_k: Callable[[int, int], float] | None = field(default=None, repr=False, compare=False)
    #: the name `density_by_name` rebuilds this density from, for densities that have one
    _recipe: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        total = self.total_mass()
        # written so that a NaN total fails too
        if not abs(total - 1.0) <= _NORM_TOL:
            raise WrongTraceError(f"density integrates to {total}, not 1")

    def total_mass(self) -> float:
        if self.antiderivative is not None:
            return float(self.antiderivative(np.array([1.0]))[0] - self.antiderivative(np.array([0.0]))[0])
        from scipy.integrate import quad

        val, _ = quad(self.density, 0.0, 1.0, epsabs=_QUAD_TOL, limit=500)
        return float(val)

    def cylinder_masses(self, depth: int) -> np.ndarray:
        """Masses of the 2^depth dyadic cylinders, left to right."""
        if depth > DIAG_QUBIT_CAP:
            raise DimensionCapError(f"depth {depth} exceeds diagonal cap")
        if self.antiderivative is not None:
            # the grid's buffer takes the differences, so only F(grid) is extra
            xs = np.linspace(0.0, 1.0, (1 << depth) + 1)
            fx = self.antiderivative(xs)
            masses = np.subtract(fx[1:], fx[:-1], out=xs[:-1])
            del fx
            return np.clip(masses, 0.0, None, out=masses)
        leaves = self._leaf_cache.get(depth)
        if leaves is None:
            deepest = max([depth] + list(self._leaf_cache))
            base = self._leaf_cache.get(deepest)
            if base is None:
                from scipy.integrate import quad

                xs = np.linspace(0.0, 1.0, (1 << deepest) + 1)
                base = np.array(
                    [
                        quad(self.density, xs[i], xs[i + 1], epsabs=_QUAD_TOL, limit=200)[0]
                        for i in range(xs.size - 1)
                    ]
                )
                self._leaf_cache[deepest] = base
            leaves = base
            for lev in range(deepest - 1, depth - 1, -1):
                leaves = leaves.reshape(-1, 2).sum(axis=1)
                self._leaf_cache.setdefault(lev, leaves)
            self._leaf_cache.setdefault(depth, leaves)
        return np.clip(leaves, 0.0, None)


#: deepest level with closed-form top-k masses: the depth to which they are
#: checked against an mpmath oracle, not a bound on cost.  A query costs the
#: same at any depth, and a UI profile makes one query per order it visits
CLOSED_FORM_QUBIT_CAP = 500_000
#: absolute error bound on a closed-form top-k mass (p <= 100): each of its
#: two antiderivative terms is within about (2p + 10) ulps, and a split taken
#: at a comparison tie swaps cells whose masses agree to within _TIE.  A
#: factored level's histogram whose total mass misses 1 by more is refused
TOP_K_ERROR = 1e-12
#: absolute error asked of each quadrature of a density without an antiderivative
_QUAD_TOL = 1e-12
#: how far a density's total mass may miss 1
_NORM_TOL = 1e-9
#: log cell masses closer than this compare as a tie (their rounding is ~10 ulps)
_TIE = 2.0**-46
_LN2 = math.log(2.0)
#: a deeper level's split is searched on a grid of 2^_GRID_BITS points
_GRID_BITS = 62


def _log_frac(x: int, n: int, frac: float = 0.0) -> float:
    """ln((x + frac) / 2^n) without cancellation, for 0 < x + frac <= 2^n and n <= 62."""
    if x <= 1 << (n - 1):
        if frac:
            x += frac
            e = math.frexp(x)[1]  # x / 2^e lies in [1/2, 1)
        else:
            e = x.bit_length()
        return math.log(math.ldexp(x, -e)) + (e - n) * _LN2
    c = (1 << n) - x
    return math.log1p(-math.ldexp(c - frac if frac else c, -n))


def _grid(k: int, s: int) -> tuple[int, float, float]:
    """k / 2^s as x + f, with f and 1 - f each to a relative 2^-53.

    f is read from the top 64 bits of k mod 2^s, so the cost does not grow
    with k.
    """
    x = k >> s
    t = max(min(s, k.bit_length()) - 64, 0)
    low = (k >> t) - (x << (s - t))
    f = math.ldexp(low, t - s)
    return x, f, math.ldexp((1 << (s - t)) - low, t - s) if s - t <= 64 else 1.0 - f


def _log_power_top_k(p: float) -> Callable[[int, int], float]:
    """Top-k mass of level n of the log-power-p measure state, in closed form.

    The density falls to its one minimum, at e^(1-p), and then rises.  So
    the cell masses fall and then rise (the cell holding the minimum is no
    heavier than both neighbours), and the k heaviest cells are the first
    j plus the last k - j, of mass F(j/2^n) + 1 - F(1 - (k-j)/2^n).  The
    split j is searched comparing the logs of 2^n times the cell masses.
    For cell i = [a, a + w) with u = 1 - ln a that is
    q ln u + ln(i expm1(t)) - ln a, t = q log1p(-log1p(1/i) / u): every
    term keeps its relative precision, and from i = 2^60 on, i expm1(t) is
    its first-order form -q/u, within a relative (|q| + 2) 2^-61.

    Past 62 qubits the split is searched over multiples of 2^(n-62) cells,
    with k, the valley and the run ends held as such a multiple plus a
    float fraction of one, so a query does the same small-integer and float
    work at any depth.  Missing the split by one grid step moves cells of
    total mass at most 2(p-1) 2^-62 between the runs, or F(2^-62) <= 1e-17
    in the first step, where the split can lie only for p > 11.36.  Up to
    62 qubits the grid is the cells themselves and every index is an exact
    integer.

    The search starts at twice the split of (n-1, k/2), which is where a
    builder's climbing scan makes its next query, and stops at a tie.
    """
    q = 1.0 - p
    valley = math.exp(q)
    # floor(e^q 2^n) for the valley cell, in integers
    valley_num, valley_den = valley.as_integer_ratio()
    # (n, k on the grid) -> split on the grid, the starting guess for (n+1, 2k)
    # in a builder's scan: only a guess, so racing threads cannot spoil a result
    splits: dict[tuple[int, int], int] = {}

    def cell(x: int, frac: float, g: int, s: int) -> tuple[float | None, float]:
        """ln a and the log of 2^n times the mass of the cell [a, a + 2^-n) at grid point x + frac."""
        if not (x or frac):
            return None, q * math.log1p((g + s) * _LN2) + (g + s) * _LN2
        ln_a = _log_frac(x, g, frac)
        u = 1.0 - ln_a
        if (x.bit_length() if x else math.frexp(frac)[1]) + s > 60:
            scaled = -q / u
        else:
            i = math.ldexp(x + frac, s) if s else x
            scaled = i * math.expm1(q * math.log1p(-math.log1p(1.0 / i) / u))
        return ln_a, q * math.log1p(-ln_a) + math.log(scaled) - ln_a

    def top_k(n: int, k: int) -> float:
        if n > CLOSED_FORM_QUBIT_CAP:
            raise DimensionCapError(f"closed-form masses stop at {CLOSED_FORM_QUBIT_CAP} qubits")
        bits = k.bit_length()
        if k < 1 or bits > n + 1 or (bits == n + 1 and k != 1 << n):
            shown = k if bits <= 64 else f"2^{bits - 1}+"
            raise BadDimensionError(f"k={shown} out of range 1..2^{n}")
        # grid points g bits wide, each 2^s cells: k = kx + kf grid points
        s = max(n - _GRID_BITS, 0)
        if bits < s - 960:
            # k/2^n < 2^-1022, where the density exceeds p - 1 >= its bound on
            # the right run (p <= 100): the first k cells are the heaviest
            t = max(bits - 64, 0)
            ln_a = math.log(math.ldexp(k >> t, t - bits)) + (bits - n) * _LN2
            return math.exp(q * math.log1p(-ln_a))
        g = n - s
        size = 1 << g
        kx, kf, kc = _grid(k, s)
        # the valley cell joins the run that stays monotone with it
        if s:
            # it and its left neighbour differ in log mass by a third-order
            # amount in the cell width, far below rounding, so they compare as
            # equal and it joins the left run
            v = math.ldexp(valley, g) + math.ldexp(1.0, -s)
            lx, lf = int(v), v - int(v)
        else:
            c = min((valley_num << n) // valley_den, size - 1)
            lx, lf = (c + 1 if c == 0 or cell(c, 0.0, g, 0)[1] <= cell(c - 1, 0.0, g, 0)[1]
                      else c), 0.0
        # the split lies between lo = max(0, k - (size - left)) and hi = min(k, left)
        lox, lof = kx - size + lx, kf + lf
        if lof >= 1.0:
            lox, lof = lox + 1, lof - 1.0
        if lox < 0:
            lox, lof = 0, 0.0
        hix, hif = (kx, kf) if (kx, kf) <= (lx, lf) else (lx, lf)
        lo, hi = lox, hix + (hif > 0.0)
        first, end = lo, hi  # the left run can grow no further than end

        def logs(j: int) -> tuple[tuple[float | None, float], tuple[float | None, float]]:
            # the next left cell and the last right cell when the left run ends at grid point j
            x, frac = (lox, lof) if j == first else (hix, hif) if j == end else (j, 0.0)
            f = frac - kf
            xr, fr = (size - kx + x, f) if f >= 0.0 else (size - kx + x - 1, frac + kc)
            return cell(x, frac, g, s), cell(xr, fr, g, s)

        # gallop from the guess while the split stays on one side, then bisect
        shift = 0 if s else 1
        guess = splits.pop((n - 1, kx >> shift), None)
        j = lo if guess is None else min(max(lo, guess << shift), hi)
        step, way, at = 1, 0, None
        while lo < hi:
            # the split lies above j when the next left cell outweighs the last right one
            if j == end:
                d = -1.0
            else:
                at, ((ln_left, left), (ln_right, right)) = j, logs(j)
                d = left - right
            if abs(d) <= _TIE:
                break
            sign = 1 if d > 0 else -1
            lo, hi = (j + 1, hi) if sign > 0 else (lo, j)
            if way in (0, sign):
                way, j, step = sign, min(max(j + sign * step, lo), hi), 2 * step
            else:
                way, j = 2, (lo + hi) // 2
        else:
            j = lo
        if len(splits) < 1 << 12:
            splits[(n, kx)] = j
        if at != j:
            (ln_left, _), (ln_right, _) = logs(j)
        head = math.exp(q * math.log1p(-ln_left)) if ln_left is not None else 0.0
        return head - math.expm1(q * math.log1p(-ln_right))

    return top_k


def log_power_density(p: float) -> DensitySpec:
    """The density (p-1) / (x * (1 - ln x)^p) on (0, 1), for p > 1.

    Integrable despite the singularity at 0, with exact antiderivative
    (1 - ln x)^(1-p).  Its entropy integral -int f log2 f is finite exactly
    when p > 2: p = 3 gives a sequence whose entropy stays within a
    constant of the maximum, while p = 2 drifts away from the maximum
    without bound.  For p <= 100 its measure states have closed-form
    top-k masses to `CLOSED_FORM_QUBIT_CAP` qubits.
    """
    if not p > 1:
        raise ValueError("need p > 1 for an integrable density")
    if math.isinf(p):
        raise ValueError("need a finite p")

    def f(x):
        x = np.asarray(x, dtype=float)
        return (p - 1.0) / (x * (1.0 - np.log(x)) ** p)

    def F(x):
        x = np.asarray(x, dtype=float)
        pos = x > 0
        out = np.log(x, out=np.zeros_like(x), where=pos)
        np.subtract(1.0, out, out=out, where=pos)
        return np.power(out, 1.0 - p, out=out, where=pos)

    top_k = _log_power_top_k(p) if p <= 100 else None
    # the name must give back p itself, so `density_by_name` rebuilds this density
    name = f"log-power-{p:g}" if float(f"{p:g}") == p else f"log-power-{float(p)!r}"
    return DensitySpec(density=f, antiderivative=F, name=name, _top_k=top_k, _recipe=name)


def measure_state(spec: DensitySpec, max_depth: int, *, name: str | None = None) -> StateSequence:
    """Diagonal sequence whose level-n weights are dyadic cylinder masses.

    Any ``max_depth`` is accepted: levels materialise up to the diagonal
    cap, and closed-form top-k masses answer `top_k_mass` beyond it.  The
    state replays from a recipe only if its density records one.  Cylinder
    masses with no density go to `explicit_state`, as diagonal levels
    whose coherence it checks.
    """
    if not isinstance(spec, DensitySpec):
        raise TypeError("spec must be a DensitySpec")
    replay = None if spec._recipe is None else {
        "kind": "measure", "density": spec._recipe, "n_max": max_depth}
    state = StateSequence(name or spec.name, max_depth,
                          lambda n: DensityOperator.diagonal(spec.cylinder_masses(n)), spec=replay)
    state._top_k = spec._top_k
    return state


# ---------------------------------------------------------------------------
# registry: one table of recipe kinds, shared by CLI strings and JSON files


def density_by_name(label: str) -> DensitySpec:
    """A named density: ``log-power-<p>``, or the aliases ``logpow2`` and ``logpow3``."""
    label = {"logpow2": "log-power-2", "logpow3": "log-power-3"}.get(label, label)
    if label.startswith("log-power-"):
        return log_power_density(float(label.removeprefix("log-power-")))
    raise ValueError(f"unknown density {label!r} (try logpow2 or logpow3)")


#: recipe kind -> constructor(recipe, n_max)
STATE_KINDS: dict[str, Callable[[dict, int], StateSequence]] = {
    "tracial": lambda r, n: tracial_state(n),
    "pure": lambda r, n: pure_bitstring_state(r["bits"], n),
    "block": lambda r, n: block_state(n),
    "tensor_power": lambda r, n: tensor_power_state(matrix_from_json(r["factor"]), n),
    "measure": lambda r, n: measure_state(density_by_name(r["density"]), n),
}


def state_from_recipe(recipe: dict, n_max: int) -> StateSequence:
    """Rebuild a sequence from its constructor recipe (the ``spec`` it records)."""
    kind = recipe["kind"]
    if kind not in STATE_KINDS:
        raise ValueError(f"unknown builtin state {kind!r}")
    return STATE_KINDS[kind](recipe, n_max)
