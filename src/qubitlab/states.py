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
far beyond anything a materialised 2^n vector could.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .linalg import (
    DIAG_QUBIT_CAP,
    BadDimensionError,
    DensityOperator,
    DimensionCapError,
    WrongTraceError,
    dense_qubit_cap,
    eigendecompose,
    matrix_from_json,
    matrix_to_json,
    partial_trace_k,
    shannon_entropy,
    tensor,
    von_neumann_entropy,
    _pt_diag,
)


class SourceExhaustedError(ValueError):
    """Bit source ran out before the requested depth."""


class StateSequence:
    """Lazy, memoised map from depth n to the n-qubit density operator.

    ``generator`` must be deterministic and total on 1..max_depth (up to
    representation caps).  ``factors``, when given, maps n to the list of
    diagonal kron factors of level n; factored levels are exact at any
    depth, and without a generator level n is materialised as the kron of
    its factors (up to the diagonal cap).  Access is thread-safe.
    """

    def __init__(
        self,
        name: str,
        max_depth: int,
        generator: Callable[[int], DensityOperator] | None = None,
        *,
        representation: str = "dense",
        factors: Callable[[int], list[np.ndarray]] | None = None,
        spec: dict | None = None,
    ):
        self.name = name
        self.max_depth = int(max_depth)
        self.representation = representation
        self.spec = spec
        self._generator = generator
        self._factors = factors
        self._cache: dict[int, DensityOperator] = {}
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return f"StateSequence({self.name!r}, max_depth={self.max_depth})"

    def _check_depth(self, n: int) -> None:
        if not 1 <= n <= self.max_depth:
            raise BadDimensionError(f"depth {n} outside 1..{self.max_depth}")

    def density(self, n: int) -> DensityOperator:
        self._check_depth(n)
        with self._lock:
            hit = self._cache.get(n)
        if hit is not None:
            return hit
        d = self._generator(n) if self._generator is not None else self._kron_factors(n)
        with self._lock:
            self._cache.setdefault(n, d)
        return d

    def _kron_factors(self, n: int) -> DensityOperator:
        if n > DIAG_QUBIT_CAP:
            raise DimensionCapError(f"cannot materialise {n} qubits")
        out = np.array([1.0])
        for f in self._factors(n):
            out = np.kron(out, f)
        return DensityOperator.diagonal(out)

    @property
    def has_factors(self) -> bool:
        return self._factors is not None

    def diag_factors(self, n: int) -> list[np.ndarray]:
        self._check_depth(n)
        if self._factors is None:
            raise BadDimensionError(f"{self.name} has no factored form")
        return self._factors(n)

    def spectrum(self, n: int) -> np.ndarray:
        """Descending eigenvalues of level n (materialised levels only)."""
        return eigendecompose(self.density(n)).eigenvalues

    def entropy(self, n: int) -> float:
        """Entropy in bits of level n, via the factorisation when present."""
        if self._factors is not None:
            self._check_depth(n)
            return float(sum(shannon_entropy(f) for f in self._factors(n)))
        return von_neumann_entropy(self.density(n))


@dataclass(frozen=True)
class EntropyProfile:
    """Rows (n, H(level n), H/n) for n = 1..depth."""

    name: str
    entries: tuple[tuple[int, float, float], ...]

    @property
    def depth(self) -> int:
        return self.entries[-1][0] if self.entries else 0

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


def entropy_profile(state: StateSequence, depth: int) -> EntropyProfile:
    if depth > state.max_depth:
        raise BadDimensionError(f"depth {depth} beyond max_depth {state.max_depth}")
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


def _factored_pt(factors: list[np.ndarray]) -> tuple[list[np.ndarray], float]:
    """Trace the last qubit out of a factored diagonal level.

    Returns the new factor list and the scalar weight absorbed when a
    one-qubit trailing factor is traced away entirely.
    """
    last = factors[-1]
    if last.size == 2:
        return list(factors[:-1]), float(last.sum())
    return list(factors[:-1]) + [_pt_diag(last)], 1.0


def _factored_deviation(a: list[np.ndarray], b: list[np.ndarray], scale: float) -> float:
    """Upper bound on the sup-norm distance between two factored vectors.

    Exact (zero) when the aligned factors agree elementwise; a telescoping
    product bound otherwise.  Requires matching factor shapes.
    """
    if len(a) != len(b) or any(x.size != y.size for x, y in zip(a, b)):
        raise BadDimensionError("factor structures do not align")
    a = [a[0] * scale] + [x.astype(float) for x in a[1:]] if a else []
    total = 0.0
    for i in range(len(a)):
        term = _max_abs(a[i] - b[i])
        for j in range(i):
            term *= _max_abs(a[j])
        for j in range(i + 1, len(a)):
            term *= _max_abs(b[j])
        total += term
    return total


def check_coherence(state: StateSequence, depth: int, tol: float = 1e-8) -> CoherenceReport:
    """Verify that tracing level n reproduces level n-1, for 2 <= n <= depth."""
    if depth > state.max_depth:
        raise BadDimensionError(f"depth {depth} beyond max_depth {state.max_depth}")
    devs = []
    cap = DIAG_QUBIT_CAP if state.representation == "diag" else dense_qubit_cap()
    for n in range(2, depth + 1):
        if state.has_factors:
            traced, scale = _factored_pt(state.diag_factors(n))
            dev = _factored_deviation(traced, state.diag_factors(n - 1), scale)
        elif n <= cap:
            top, below = state.density(n), state.density(n - 1)
            if top.is_diagonal and below.is_diagonal:
                dev = _max_abs(_pt_diag(top.probs) - below.probs)
            else:
                from .linalg import _pt_dense

                dev = _max_abs(_pt_dense(top.dense_matrix()) - below.dense_matrix())
        else:
            raise DimensionCapError(f"cannot check coherence at depth {n} without factors")
        devs.append((n, dev))
    return CoherenceReport(name=state.name, tol=tol, deviations=tuple(devs))


# ---------------------------------------------------------------------------
# constructors


def explicit_state(name: str, levels: Sequence[DensityOperator]) -> StateSequence:
    """Wrap an explicit list of per-depth operators (levels[i] has i+1 qubits)."""
    for i, d in enumerate(levels):
        if d.qubits != i + 1:
            raise BadDimensionError(f"level {i + 1} has {d.qubits} qubits")
    ops = list(levels)
    repr_hint = "diag" if all(d.is_diagonal for d in ops) else "dense"
    return StateSequence(
        name, len(ops), lambda n: ops[n - 1], representation=repr_hint, spec=None
    )


def tracial_state(max_depth: int) -> StateSequence:
    """The uniform sequence: every level is 2^-n times the identity."""
    half = np.array([0.5, 0.5])

    def gen(n: int) -> DensityOperator:
        if n > DIAG_QUBIT_CAP:
            raise DimensionCapError(f"cannot materialise {n} qubits")
        return DensityOperator.diagonal(np.full(1 << n, 2.0**-n))

    return StateSequence(
        "tracial",
        max_depth,
        gen,
        representation="diag",
        factors=lambda n: [half] * n,
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

    def gen(n: int) -> DensityOperator:
        if n > DIAG_QUBIT_CAP:
            raise DimensionCapError(f"cannot materialise {n} qubits")
        p = np.zeros(1 << n)
        p[int(word[:n], 2)] = 1.0
        return DensityOperator.diagonal(p)

    return StateSequence(
        name or f"pure:{word[:8]}...",
        max_depth,
        gen,
        representation="diag",
        factors=lambda n: [e0 if c == "0" else e1 for c in word[:n]],
        spec={"kind": "pure", "bits": word, "n_max": max_depth},
    )


def block_checkpoint(m: int) -> int:
    """Depth at which the m-th uniform block of the block sequence completes."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return m + m * (m + 1) // 2


def _block_factor(i: int) -> np.ndarray:
    # one marker qubit followed by i uniform qubits
    if i == 0:
        return np.array([1.0, 0.0])
    v = np.zeros(1 << (i + 1))
    v[: 1 << i] = 2.0**-i
    return v


def _block_factors(n: int) -> list[np.ndarray]:
    fs = []
    used, i = 0, 1
    while used + i + 1 <= n:
        fs.append(_block_factor(i))
        used += i + 1
        i += 1
    if n - used > 0:
        fs.append(_block_factor(n - used - 1))
    return fs


def block_state(max_depth: int) -> StateSequence:
    """Concatenated blocks: block i is a pinned qubit then i uniform qubits.

    At checkpoint depths the entropy is depth minus the number of complete
    blocks, so the per-qubit entropy climbs toward 1 while every checkpoint
    level sits entirely inside an exponentially thin basis subset.
    """
    return StateSequence(
        "block",
        max_depth,
        representation="diag",
        factors=_block_factors,
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
        base = d.probs.astype(float)

        def facs(n: int) -> list[np.ndarray]:
            q, r = divmod(n, k)
            return [base] * q + ([_pt_diag(base, k - r)] if r else [])

        return StateSequence(label, max_depth, representation="diag", factors=facs, spec=spec)
    top = -(-max_depth // k) * k
    if top > dense_qubit_cap():
        raise DimensionCapError(
            f"depth {max_depth} needs {top} dense qubits, cap is {dense_qubit_cap()}"
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
    quad_tol: float = 1e-12
    name: str = "density"
    norm_tol: float = 1e-9
    _leaf_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        total = self.total_mass()
        # written so that a NaN total fails too
        if not abs(total - 1.0) <= max(self.norm_tol, 100 * self.quad_tol):
            raise WrongTraceError(f"density integrates to {total}, not 1")

    def total_mass(self) -> float:
        if self.antiderivative is not None:
            return float(self.antiderivative(np.array([1.0]))[0] - self.antiderivative(np.array([0.0]))[0])
        val, _ = quad(self.density, 0.0, 1.0, epsabs=self.quad_tol, limit=500)
        return float(val)

    def cylinder_masses(self, depth: int) -> np.ndarray:
        """Masses of the 2^depth dyadic cylinders, left to right."""
        if depth > DIAG_QUBIT_CAP:
            raise DimensionCapError(f"depth {depth} exceeds diagonal cap")
        if self.antiderivative is not None:
            xs = np.linspace(0.0, 1.0, (1 << depth) + 1)
            return np.clip(np.diff(self.antiderivative(xs)), 0.0, None)
        leaves = self._leaf_cache.get(depth)
        if leaves is None:
            deepest = max([depth] + list(self._leaf_cache))
            base = self._leaf_cache.get(deepest)
            if base is None:
                xs = np.linspace(0.0, 1.0, (1 << deepest) + 1)
                base = np.array(
                    [
                        quad(self.density, xs[i], xs[i + 1], epsabs=self.quad_tol, limit=200)[0]
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


def log_power_density(p: float) -> DensitySpec:
    """The density (p-1) / (x * (1 - ln x)^p) on (0, 1), for p > 1.

    Integrable despite the singularity at 0, with exact antiderivative
    (1 - ln x)^(1-p).  Its entropy integral -int f log2 f is finite exactly
    when p > 2: p = 3 gives a sequence whose entropy stays within a
    constant of the maximum, while p = 2 drifts away from the maximum
    without bound.
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
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = (1.0 - np.log(x[pos])) ** (1.0 - p)
        return out

    return DensitySpec(density=f, antiderivative=F, name=f"log-power-{p:g}")


def measure_state(spec, max_depth: int, *, name: str | None = None) -> StateSequence:
    """Diagonal sequence whose level-n weights are dyadic cylinder masses.

    ``spec`` is a DensitySpec, or a callable mapping a cylinder address
    (a '0'/'1' string) to its mass, in which case the masses must already
    be coherent.
    """
    if max_depth > DIAG_QUBIT_CAP:
        raise DimensionCapError(f"depth {max_depth} exceeds diagonal cap")
    if isinstance(spec, DensitySpec):
        label = name or spec.name
        # only densities reconstructible from their name are replayable
        replay = None
        if spec.name.startswith("log-power-"):
            replay = {"kind": "measure", "density": spec.name, "n_max": max_depth}

        def gen(n: int) -> DensityOperator:
            return DensityOperator.diagonal(spec.cylinder_masses(n))

    elif callable(spec):
        label = name or "measure:custom"
        replay = None

        def gen(n: int) -> DensityOperator:
            masses = np.array([spec(format(i, f"0{n}b")) for i in range(1 << n)])
            return DensityOperator.diagonal(masses)

    else:
        raise TypeError("spec must be a DensitySpec or a cylinder-mass callable")
    return StateSequence(label, max_depth, gen, representation="diag", spec=replay)


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
