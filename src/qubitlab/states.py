"""Coherent sequences of register states and their entropy analytics.

A state sequence maps each depth n to an n-qubit density operator such
that tracing the last qubit out of level n reproduces level n-1.  The
constructors here cover the uniform (tracial) sequence, pure bitstring
sequences, the block construction whose per-qubit entropy climbs to 1
while a cheap projection sequence still pins it, tensor powers of a fixed
operator, and diagonal sequences induced by a probability density on the
unit interval.

Each state asks one level source for its levels (a generator, product
blocks or a closed form); product blocks answer entropy and coherence at
depths far beyond anything a materialised 2^n vector could.
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
    partial_trace_last,
    qubit_count,
    top_k_sum,
    validate_density,
    von_neumann_entropy,
    _entropy_bits,
    _pt_dense,
    _pt_diag,
    _readonly,
)


class SourceExhaustedError(ValueError):
    """Bit source ran out before the requested depth."""


class _Block:
    """One distinct validated block of a block source, or a traced tail of one: all a level reads.

    A dense block is decomposed once, into ``values`` and eigen``vectors``; a diagonal one has
    no vectors and is its own spectrum, in basis order.  ``distinct`` and ``counts`` are its
    type summary, the distinct positive values, descending, and how often each occurs.  Given
    ``trace``, ``traced[c - 1]`` is the record of the block with its last c qubits traced out.
    """

    def __init__(self, array: np.ndarray, trace: Callable | None = None):
        self.array, self.qubits = array, qubit_count(len(array))
        s = eigendecompose(DensityOperator(self.qubits, array)) if array.ndim == 2 else None
        self.values, self.vectors = (array, None) if s is None else (s.eigenvalues, s.eigenvectors)
        self.entropy, self.sup = _entropy_bits(self.values), _max_abs(array)
        pos = np.sort(self.values[self.values > 0.0])[::-1]
        first = np.flatnonzero(np.diff(pos, prepend=np.inf))  # the first of each run of equals
        self.distinct = tuple(pos[first].tolist())
        self.counts = tuple(np.diff(first, append=pos.size).tolist())
        tails = range(1, self.qubits) if trace else ()
        self.traced = tuple(_Block(_readonly(trace(array, c))) for c in tails)


def _types(copies: int, parts: int):
    """Every tuple of ``parts`` nonnegative ints summing to ``copies`` (stars and bars)."""
    if parts == 1:  # `combinations` would copy its whole range into a tuple first
        yield (copies,)
        return
    for bars in itertools.combinations(range(copies + parts - 1), parts - 1):
        edges = (-1, *bars, copies + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _power_histogram(s: _Block, copies: int) -> dict[float, int]:
    """Eigenvalue -> multiplicity of ``copies`` copies of one block, by type class.

    The type taking the i-th distinct value j_i times has the value
    prod v_i^j_i, always computed by this one expression so equal types
    give equal floats, and multiplicity multinomial(copies; j) prod c_i^j_i.
    """
    out: dict[float, int] = {}
    for js in _types(copies, len(s.distinct)):
        v = math.prod(x**j for x, j in zip(s.distinct, js))
        mult, left = 1, copies
        for j, c in zip(js, s.counts):
            mult *= math.comb(left, j) * c**j
            left -= j
        out[v] = out.get(v, 0) + mult
    return out


def _level_histogram(n: int, parts: list[tuple[_Block, int]]) -> SpectrumHistogram | None:
    """Histogram of an n-qubit product of (block, copies) parts.

    A part with c copies of an r-valued factor has t = C(c + r - 1, r - 1)
    types, each valued with r products, and merging multiplies the type
    counts.  None when prod(t) is not below 2^n (no saving), or when the
    work, sum(t * r) + parts * prod(t), exceeds 2^(m - 3) for
    m = min(max(n, 12), DIAG_QUBIT_CAP - 3).  A unit of that work costs
    about five times what sorting one materialised eigenvalue does, so an
    eighth of 2^n keeps the histogram the cheaper path; below 2^9 units
    either path is instant; and the 2^18 ceiling (a fraction of a second)
    leaves a level past its level cap with costly types to raise
    DimensionCapError.
    """
    types = [math.comb(c + len(s.distinct) - 1, c) for s, c in parts]
    size = math.prod(types)
    work = sum(t * len(s.distinct) for t, (s, _) in zip(types, parts)) + len(parts) * size
    if size.bit_length() > n or work > 1 << (min(max(n, 12), DIAG_QUBIT_CAP - 3) - 3):
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


#: deepest level of a block state: its entropy sums up to n block entropies left to right,
#: to a relative error of at most n 2^-53 (Higham, Accuracy and Stability, ch. 4): 2^-20 here
BLOCK_QUBIT_CAP = 2**33


def _fold(s: float, h: float, count: int) -> float:
    """s + h + ... + h, ``count`` times, added left to right in floats, in O(log count) steps.

    Inside a binade, each step from a point that came from a step inside it (which aligns a
    round-half-even tie) adds the same r, so the steps that stay inside are one exact t + j r.
    """
    while count:
        t, count = s + h, count - 1
        if t == s:
            break
        m, e = math.frexp(t)
        if count and m * math.frexp(s)[0] > 0 and math.frexp(s)[1] == e:
            # t and r in ulps of t's binade, then the steps of r that stay inside it
            r = (t + h) - t
            a, k = int(math.ldexp(abs(m), 53)), int(math.ldexp(abs(r), 53 - e))
            room = (1 << 53) - 1 - a if (r > 0) == (t > 0) else a - (1 << 52) - 1
            j = min(count, max(room, 0) // k) if k else 0
            t, count = t + j * r, count - j
        s = t
    return s


class _Source:
    """Levels from a ``generator``, deterministic and total on 1..max_depth (up to caps).

    Each query takes the state it answers for and reads its memoised levels and
    spectra; no form holds a level past ``level_cap``, the one cap of a source.
    """

    has_factors = False
    #: deepest level that a density, eigensystem or emitted test term can reach
    level_cap = DIAG_QUBIT_CAP
    #: absolute error bound on a top-k mass
    top_k_error = 0.0
    _kind = "diagonal"

    def __init__(self, generator: Callable[[int], DensityOperator]):
        self._generator = generator

    def _refuse_past_cap(self, n: int) -> None:
        if n > self.level_cap:
            raise DimensionCapError(
                f"cannot materialise {n} qubits past the {self._kind} cap {self.level_cap}")

    def density(self, state: StateSequence, n: int) -> DensityOperator:
        self._refuse_past_cap(n)
        return self._generator(n)

    def eigensystem(self, state: StateSequence, n: int) -> Spectrum:
        return eigendecompose(state.density(n))

    def spectrum(self, state: StateSequence, n: int) -> np.ndarray:
        return state.eigensystem(n).eigenvalues

    def histogram(self, state: StateSequence, n: int) -> SpectrumHistogram | None:
        return None

    def top_k(self, state: StateSequence, n: int, k: int) -> float:
        hist = state.histogram(n)
        return top_k_sum(Spectrum(state.spectrum(n)) if hist is None else hist, k)

    def entropy(self, state: StateSequence, n: int) -> float:
        return von_neumann_entropy(state.eigensystem(n))

    def deviation(self, state: StateSequence, n: int) -> float:
        top, below = partial_trace_last(state.density(n)), state.density(n - 1)
        if top.is_diagonal and below.is_diagonal:
            return _max_abs(top.probs - below.probs)
        return _max_abs(top.dense_matrix() - below.dense_matrix())

    def diag_factors(self, state: StateSequence, n: int) -> list[np.ndarray]:
        return [state.density(n).diagonal_part()]


class _Blocks(_Source):
    """Runs (block, copies) of probability vectors, each on a qubit or more, through ``max_depth``.

    Each distinct block object is validated once, held as a read-only copy
    (so writes to the caller's arrays reach no level) in one `_Block` record
    with its traced tails.  Level n is the prefix: the kron of the blocks
    that end by qubit n, times the next block traced down to fit, so levels
    are coherent by construction.  Entropy is the head sum, folded a run at
    a time (see `_fold`), at any depth up to `BLOCK_QUBIT_CAP`.  A level's
    spectrum is the product of its blocks', so no level is decomposed: its
    eigensystem is their stable-sorted product, and by the method of types
    an exact histogram, usually far shorter than 2^n, which gives top-k
    masses until the eigenvalues underflow (2^-n does past 1,074 qubits).
    """

    has_factors = True
    _trace, _form = staticmethod(_pt_diag), "probs"

    def __init__(self, name: str, max_depth: int, runs: Iterable[tuple[np.ndarray, int]]):
        if max_depth > BLOCK_QUBIT_CAP:
            raise DimensionCapError(
                f"{name!r} has max_depth {max_depth}, past the block cap {BLOCK_QUBIT_CAP}")
        runs = [(f, c) for f, c in runs if c > 0]
        held = {id(f): f for f, _ in runs}  # `runs` holds every block, so no id is reused here
        records = {i: _Block(self._validate(f), self._trace) for i, f in held.items()}
        self._runs = [(records[id(f)], c) for f, c in runs]
        self._ends = list(itertools.accumulate(b.qubits * c for b, c in self._runs))
        # a max_depth below 1 passes here, for `StateSequence` to refuse
        if any(b.qubits < 1 for b in records.values()) or (self._ends or [0])[-1] < max_depth:
            raise BadDimensionError(
                f"{name!r} needs blocks of one qubit or more through qubit {max_depth}")
        # _folded[r]: the entropies of runs [:r] added left to right from 0.0, then the
        # last (copies, sum) an entropy query folded run r on to
        entropies = [(b.entropy, c) for b, c in self._runs[:-1]]
        heads = itertools.accumulate(entropies, lambda s, run: _fold(s, *run), initial=0.0)
        self._folded = [(s, 0, s) for s in heads]

    def _validate(self, f: np.ndarray) -> np.ndarray:
        return DensityOperator.diagonal(f).probs

    def _level(self, n: int) -> tuple[int, int, _Block]:
        """Level n as (r, j, last): runs [:r], then j blocks of run r, end by qubit n; last is
        the next block traced to fit."""
        r = bisect.bisect_left(self._ends, n)
        b, c = self._runs[r]
        # qubits past n in run r: whole blocks after the last one, and the cut off it
        after, cut = divmod(self._ends[r] - n, b.qubits)
        return r, c - 1 - after, b.traced[cut - 1] if cut else b

    def _head(self, r: int, j: int) -> Iterable[tuple[_Block, int]]:
        """The runs of the whole blocks before block j of run r."""
        return itertools.chain(itertools.islice(self._runs, r), [(self._runs[r][0], j)] if j else ())

    def _parts(self, n: int) -> list[_Block]:
        """The blocks of level n, the last one traced to fit."""
        r, j, last = self._level(n)
        head = itertools.starmap(itertools.repeat, self._head(r, j))
        return [*itertools.chain.from_iterable(head), last]

    def density(self, state: StateSequence, n: int) -> DensityOperator:
        self._refuse_past_cap(n)
        # the blocks are validated copies, so their product needs no check
        out = _readonly(functools.reduce(np.kron, [b.array for b in self._parts(n)]))
        return DensityOperator(n, **{self._form: out})

    def _sorted_values(self, n: int) -> tuple[list[_Block], np.ndarray, np.ndarray]:
        """Level n's blocks, the stable-sorted kron of their eigenvalues, and its sorting order."""
        self._refuse_past_cap(n)
        parts = self._parts(n)
        w = functools.reduce(np.kron, [b.values for b in parts])
        order = np.argsort(-w, kind="stable")
        return parts, _readonly(w[order]), order

    def eigensystem(self, state: StateSequence, n: int) -> Spectrum:
        """The sorted product of the blocks' spectra, with basis labels or product eigenvectors."""
        parts, w, order = self._sorted_values(n)
        if parts[0].vectors is None:
            return Spectrum(eigenvalues=w, basis_labels=_readonly(order))
        v = functools.reduce(np.kron, [b.vectors for b in parts])
        return Spectrum(eigenvalues=w, eigenvectors=_readonly(v[:, order]))

    def spectrum(self, state: StateSequence, n: int) -> np.ndarray:
        """The sorted eigenvalues alone: eigenvectors or labels wait for a projector."""
        return self._sorted_values(n)[1]

    def histogram(self, state: StateSequence, n: int) -> SpectrumHistogram | None:
        """Each distinct block's type classes, multiplied, or None (see `_level_histogram`).

        Underflowing values are lost, so a total that misses the level's whole mass (each part's
        total raised to its copies) by more than `TOP_K_ERROR` raises, at once if the largest
        value, multiplied as in `_level_histogram`, underflows to 0.
        """
        r, j, last = self._level(n)
        copies: dict[_Block, int] = {}  # in the order the blocks first appear
        for b, c in itertools.chain(self._head(r, j), [(last, 1)]):
            copies[b] = copies.get(b, 0) + c
        parts = list(copies.items())
        top = math.prod(b.distinct[0] ** c for b, c in parts)
        hist = _level_histogram(n, parts) if top else None
        if hist is not None or not top:
            mass = top and top_k_sum(hist, sum(hist.multiplicities))
            whole = math.prod(math.fsum(b.values) ** c for b, c in parts)
            if not abs(mass - whole) <= TOP_K_ERROR:
                raise DimensionCapError(
                    f"level {n} keeps mass {mass!r} in floats: its eigenvalues underflow")
        return hist

    def entropy(self, state: StateSequence, n: int) -> float:
        r, j, last = self._level(n)
        # fold on from the point the last query left run r at, so an ascending scan adds one
        # block a level; each stored point is exact, so a racing query's serves as well as ours
        head, k, s = self._folded[r]
        if j < k:
            k, s = 0, head
        s = _fold(s, self._runs[r][0].entropy, j - k)
        self._folded[r] = head, j, s
        return s + last.entropy

    def deviation(self, state: StateSequence, n: int) -> float:
        """sup(head) times g, as levels n and n-1 share all blocks but the last."""
        r, j, last = self._level(n)
        # g is |tr(last) - 1| for a one-qubit last block, else sup|tr_1(last) - last'|
        below = 1.0 if last.qubits == 1 else self._level(n - 1)[2].array
        g = _max_abs(self._trace(last.array) - below)
        for b, c in self._head(r, j):
            # math.prod's left-to-right product, a run at a time, until a factor stops moving it
            while c and (p := g * b.sup) != g:
                g, c = p, c - 1
        return g

    def diag_factors(self, state: StateSequence, n: int) -> list[np.ndarray]:
        return [b.array for b in self._parts(n)]


class _DenseBlocks(_Blocks):
    """Dense density-matrix blocks, to the block cap; levels held whole stop at `DENSE_QUBIT_CAP`."""

    level_cap = DENSE_QUBIT_CAP
    _trace, _form, _kind = staticmethod(_pt_dense), "matrix", "dense"
    diag_factors = _Source.diag_factors

    def _validate(self, f: np.ndarray) -> np.ndarray:
        return validate_density(np.array(f, dtype=complex), 1e-8).matrix


class StateSequence:
    """Lazy, memoised map from depth n to the n-qubit density operator.

    Each query asks exactly one level source, which decides how a level is
    held: a ``generator`` (`_Source`, which passes through as itself), or
    ``factors``, probability vectors (`_Blocks`) or dense matrices
    (`_DenseBlocks`).  Levels, eigensystems, eigenvalues and histograms are
    memoised, so each level is decomposed at most once.  Access is thread-safe.
    """

    def __init__(
        self,
        name: str,
        max_depth: int,
        generator: Callable[[int], DensityOperator] | _Source | None = None,
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
        if factors is not None:
            factors = tuple(factors)
            blocks = _DenseBlocks if factors and np.ndim(factors[0]) == 2 else _Blocks
            # consecutive copies of one block object make one run
            runs = [(next(g), 1 + sum(1 for _ in g)) for _, g in itertools.groupby(factors, id)]
            self._source = blocks(name, self.max_depth, runs)
        else:
            self._source = generator if isinstance(generator, _Source) else _Source(generator)
        self._cache: dict[int, DensityOperator] = {}
        self._spectra: dict[int, Spectrum] = {}
        self._values: dict[int, np.ndarray] = {}
        self._histograms: dict[int, SpectrumHistogram | None] = {}
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
        return self._memo(self._cache, n, lambda: self._source.density(self, n))

    @property
    def has_factors(self) -> bool:
        return self._source.has_factors

    @property
    def top_k_error(self) -> float:
        """Absolute error bound on `top_k_mass`: nonzero only for closed-form masses."""
        return self._source.top_k_error

    @property
    def level_cap(self) -> int:
        """Deepest level that `density`, `eigensystem`, `spectrum` or an emitted term can reach."""
        return self._source.level_cap

    def diag_factors(self, n: int) -> list[np.ndarray]:
        self._check_depth(n)
        return self._source.diag_factors(self, n)

    def eigensystem(self, n: int) -> Spectrum:
        """Memoised spectrum of level n."""
        self._check_depth(n)
        return self._memo(self._spectra, n, lambda: self._source.eigensystem(self, n))

    def spectrum(self, n: int) -> np.ndarray:
        """Memoised descending eigenvalues of level n, up to `level_cap`."""
        self._check_depth(n)
        return self._memo(self._values, n, lambda: self._source.spectrum(self, n))

    def histogram(self, n: int) -> SpectrumHistogram | None:
        """Memoised spectrum histogram of level n, or None: `top_k_mass` then reads `spectrum`."""
        self._check_depth(n)
        return self._memo(self._histograms, n, lambda: self._source.histogram(self, n))

    def top_k_mass(self, n: int, k: int) -> float:
        """Sum of the k largest eigenvalues of level n: closed form, histogram or spectrum."""
        self._check_depth(n)
        return self._source.top_k(self, n, k)

    def entropy(self, n: int) -> float:
        """Entropy in bits of level n."""
        self._check_depth(n)
        return self._source.entropy(self, n)


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
    """Refuse up front a scan of levels 1..depth, of entropies or top-k masses, that would fail."""
    if depth < 1:
        raise BadDimensionError(f"depth {depth} is below 1")
    if depth > state.max_depth:
        raise BadDimensionError(f"depth {depth} beyond max_depth {state.max_depth}")
    if depth > state.level_cap:  # the deepest query answers, or raises before holding a level
        state.top_k_mass(depth, 1) if top_k else state.entropy(depth)


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
    """Verify that tracing level n reproduces level n-1, for 2 <= n <= depth (sup-norm)."""
    _check_scan(state, depth)
    devs = tuple((n, state._source.deviation(state, n)) for n in range(2, depth + 1))
    return CoherenceReport(name=state.name, tol=tol, deviations=devs)


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
    source = _Blocks("tracial", max_depth, [(np.array([0.5, 0.5]), max_depth)])
    return StateSequence("tracial", max_depth, source, spec={"kind": "tracial", "n_max": max_depth})


def prng_bits(count: int, seed: int) -> str:
    """Deterministic pseudo-random bitstring, a stand-in for a random source."""
    rng = np.random.default_rng(seed)
    return "".join("1" if b else "0" for b in rng.integers(0, 2, size=count))


def _coerce_bits(bits, count: int) -> str:
    if isinstance(bits, str):
        out = bits
    elif isinstance(bits, Iterable):
        out = "".join("1" if b == 1 else "0" if b == 0 else "?" for b in bits)
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
    e0, half = np.array([1.0, 0.0]), np.array([0.5, 0.5])
    # block m: the marker at checkpoint c, then m + 1 uniform qubits, cut off at max_depth
    checkpoints = itertools.takewhile(lambda c: c < max_depth,
                                      map(block_checkpoint, itertools.count()))
    runs = itertools.chain.from_iterable(((e0, 1), (half, min(m + 1, max_depth - 1 - c)))
                                         for m, c in enumerate(checkpoints))
    source = _Blocks("block", max_depth, runs)
    return StateSequence("block", max_depth, source, spec={"kind": "block", "n_max": max_depth})


def tensor_power_state(
    d: DensityOperator, max_depth: int, *, name: str | None = None
) -> StateSequence:
    """Independent copies of a fixed k-qubit operator, traced to every depth.

    The copies are one run of blocks, so a dense operator is decomposed once (see `_DenseBlocks`).
    """
    k = d.qubits
    label = name or f"power:{k}q"
    spec = {"kind": "tensor_power", "n_max": max_depth, "factor": matrix_to_json(d)}
    runs = [(d.probs if d.is_diagonal else d.matrix, -(-max_depth // k))]
    source = (_Blocks if d.is_diagonal else _DenseBlocks)(label, max_depth, runs)
    return StateSequence(label, max_depth, source, spec=spec)


# ---------------------------------------------------------------------------
# measure-induced diagonal sequences


@dataclass(frozen=True)
class DensitySpec:
    """A probability density on (0, 1) defining dyadic cylinder masses.

    With a closed-form antiderivative the mass of [a, b) is F(b) - F(a),
    exact up to rounding; otherwise each cell of the level is integrated
    by adaptive quadrature, so a level's masses never depend on which
    levels were read before it.  The total mass is the depth-0 mass, the
    one cell [0, 1).
    """

    density: Callable
    antiderivative: Callable | None = None
    name: str = "density"
    #: (n, k) -> the top-k mass of level n in closed form, for densities that have one
    _top_k: Callable[[int, int], float] | None = field(default=None, repr=False, compare=False)
    #: the name `density_by_name` rebuilds this density from, for densities that have one
    _recipe: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        total = float(self.cylinder_masses(0)[0])
        # written so that a NaN total fails too
        if not abs(total - 1.0) <= _NORM_TOL:
            raise WrongTraceError(f"density integrates to {total}, not 1")

    def cylinder_masses(self, depth: int) -> np.ndarray:
        """Masses of the 2^depth dyadic cylinders, left to right."""
        if depth < 0:
            raise BadDimensionError(f"depth {depth} is below 0")
        if depth > DIAG_QUBIT_CAP:
            raise DimensionCapError(f"depth {depth} exceeds diagonal cap")
        xs = np.linspace(0.0, 1.0, (1 << depth) + 1)
        if self.antiderivative is not None:
            # the grid's buffer takes the differences, so only F(grid) is extra
            fx = self.antiderivative(xs)
            masses = np.subtract(fx[1:], fx[:-1], out=xs[:-1])
            del fx
        else:
            from scipy.integrate import quad

            masses = np.array([quad(self.density, a, b, epsabs=_QUAD_TOL, limit=500)[0]
                               for a, b in itertools.pairwise(xs)])
        return np.clip(masses, 0.0, None, out=masses)


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
    split j is bisected for, comparing the logs of 2^n times the cell masses.
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
    """
    q = 1.0 - p
    valley = math.exp(q)
    # floor(e^q 2^n) for the valley cell, in integers
    valley_num, valley_den = valley.as_integer_ratio()

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

        while lo < hi:
            # the split lies above j when the next left cell outweighs the last right one
            j = (lo + hi) // 2
            (_, left), (_, right) = logs(j)
            if abs(left - right) <= _TIE:
                break
            lo, hi = (j + 1, hi) if left > right else (lo, j)
        else:
            j = lo
        (ln_left, _), (ln_right, _) = logs(j)
        head = math.exp(q * math.log1p(-ln_left)) if ln_left is not None else 0.0
        return head - math.expm1(q * math.log1p(-ln_right))

    return top_k


class _ClosedForm(_Source):
    """Materialised levels with closed-form top-k masses, (n, k) -> mass, within `TOP_K_ERROR`."""

    top_k_error = TOP_K_ERROR

    def __init__(self, generator: Callable, top_k: Callable[[int, int], float]):
        super().__init__(generator)
        self._closed_form = top_k

    def top_k(self, state: StateSequence, n: int, k: int) -> float:
        return self._closed_form(n, k)


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

    def level(n: int) -> DensityOperator:
        return DensityOperator.diagonal(spec.cylinder_masses(n))

    source = _Source(level) if spec._top_k is None else _ClosedForm(level, spec._top_k)
    return StateSequence(name or spec.name, max_depth, source, spec=replay)


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
