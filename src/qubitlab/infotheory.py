"""Distribution surgery and uniform-integrability diagnostics.

Two rearrangement constructions bound the entropy of a descending
probability vector from opposite sides:

* flattening copies the head of the vector, pads with the cut value while
  the running mass stays below 1, and rescales; the original vector
  majorises nothing the flattened one doesn't, so its entropy can only be
  larger.  This yields a lower bound on the entropy of any vector whose
  head mass is small.
* two-block averaging replaces the vector by its block means on a leading
  block of size 2^(n-m) and the remainder; averaging within blocks can
  only raise entropy, which yields an upper bound linear in the leading
  block's mass.

The step family turns each level's spectrum into a non-increasing step
function on [0, 1); its prefix integrals are exactly the top-k masses, so
uniform integrability of the family is read off a table of prefix
integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import as_fraction, rank_ceil
from .linalg import (
    BadDimensionError,
    DimensionCapError,
    _finite,
    _floats,
    qubit_count,
    shannon_entropy,
)
from .states import DensitySpec, StateSequence, _check_scan

#: float dust absorbed when deciding whether one more pad step still fits
MASS_SLACK = 1e-12


def _check_descending(alpha: np.ndarray) -> np.ndarray:
    a = _finite(_floats(alpha, "probability"), "probability")
    if a.ndim != 1:
        raise BadDimensionError("expected a 1-D probability vector")
    if a.size > 1 and np.min(a[:-1] - a[1:]) < -1e-12:
        raise ValueError("vector must be non-increasing")
    return a


def _cut_index(n: int, eps) -> int:
    """ceil(2^(n eps)) clamped to the vector length."""
    f = as_fraction(eps)
    if not 0 < f < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    return min(rank_ceil(n, f), 1 << n)


@dataclass(frozen=True)
class FlattenResult:
    """Head-copied, cut-value-padded rearrangement of a descending vector.

    ``r`` agrees with the input up to ``cut``, holds the cut value on
    (cut, xi_index], and is zero beyond; ``mass`` is its total and ``p``
    the rescaled distribution.
    """

    r: np.ndarray
    p: np.ndarray
    cut: int
    xi_index: int
    mass: float


def flatten_distribution(alpha, eps) -> FlattenResult:
    """Flatten a descending probability vector below its cut index.

    The pad region is extended one cut-value step at a time while the
    running total stays at most 1; the boundary count is decided in exact
    rational arithmetic so float drift cannot add or drop a step.
    """
    a = _check_descending(alpha)
    n = qubit_count(a.size)
    cut = _cut_index(n, eps)
    head_mass = math.fsum(a[:cut].tolist())
    pad_value = float(a[cut - 1])
    r = np.zeros_like(a)
    r[:cut] = a[:cut]
    steps = 0
    if pad_value > 0.0 and cut < a.size:
        room = Fraction(1) + Fraction(MASS_SLACK) - Fraction(head_mass)
        if room >= 0:
            steps = min(int(room / Fraction(pad_value)), a.size - cut)
        r[cut : cut + steps] = pad_value
    mass = math.fsum(r[: cut + steps].tolist())
    positive = np.nonzero(r > 0.0)[0]
    xi_index = int(positive[-1]) + 1 if positive.size else cut
    return FlattenResult(r=r, p=r / mass, cut=cut, xi_index=xi_index, mass=mass)


@dataclass(frozen=True)
class LowerBoundCheck:
    """Both sides of the flattening entropy bound, plus applicability."""

    applicable: bool
    entropy: float
    bound: float
    cut: int
    head_mass: float

    def satisfied(self, slack: float = 1e-9) -> bool:
        return self.applicable and self.entropy > self.bound - slack


def check_entropy_lower_bound(alpha, eps, delta: float) -> LowerBoundCheck:
    """Evaluate H(alpha) against (1-2 delta)(log(1-delta) - log(delta) + n eps).

    Applicable only when the head mass through the cut is at most delta
    (which forces every entry below delta); outside that premise the check
    reports inapplicable rather than failing.
    """
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie strictly between 0 and 0.5")
    a = _check_descending(alpha)
    n = qubit_count(a.size)
    cut = _cut_index(n, eps)
    head_mass = float(a[:cut].sum())
    applicable = head_mass <= delta
    entropy = shannon_entropy(a)
    eps_value = float(as_fraction(eps))
    bound = (1 - 2 * delta) * (math.log2(1 - delta) - math.log2(delta) + n * eps_value)
    return LowerBoundCheck(
        applicable=applicable, entropy=entropy, bound=bound, cut=cut, head_mass=head_mass
    )


def uniformity_dominance(p, q) -> bool:
    """True when p >= q pointwise on the support of p.

    For *non-increasing* p and q this makes q a spread-out version of p,
    and then H(q) >= H(p); that consequence is property-tested, not
    assumed, and does not hold for arbitrary orderings.
    """
    p, q = _floats(p, "probability"), _floats(q, "probability")
    if p.shape != q.shape:
        raise BadDimensionError("vectors must have equal length")
    support = p > 0.0
    return bool(np.all(p[support] >= q[support] - 1e-12))


def two_block_average(alpha, m: int) -> np.ndarray:
    """Replace a vector by its means over the first 2^(n-m) entries and the rest."""
    a = _check_descending(alpha)
    n = qubit_count(a.size)
    if not 0 <= m <= n:
        raise ValueError(f"m={m} outside 0..{n}")
    k = 1 << (n - m)
    out = np.empty_like(a)
    lead = float(a[:k].sum())
    out[:k] = lead / k
    if k < a.size:
        out[k:] = (1.0 - lead) / (a.size - k)
    return out


@dataclass(frozen=True)
class UpperBoundCheck:
    """Both sides of the averaging entropy bound, plus the intermediate step."""

    entropy: float
    bound: float
    averaged_entropy: float

    def satisfied(self) -> bool:
        return self.entropy <= self.bound + 1e-9

    def intermediate_satisfied(self) -> bool:
        return self.entropy <= self.averaged_entropy + 1e-9


def check_entropy_upper_bound(alpha, m: int) -> UpperBoundCheck:
    """Evaluate H(alpha) against 1 - m * (leading 2^(n-m) mass) + n.

    Also reports the entropy of the two-block average, which sits between
    the two sides.
    """
    a = _check_descending(alpha)
    averaged = two_block_average(a, m)
    n = qubit_count(a.size)
    lead = float(a[: 1 << (n - m)].sum())
    return UpperBoundCheck(
        entropy=shannon_entropy(a),
        bound=1.0 - m * lead + n,
        averaged_entropy=shannon_entropy(averaged),
    )


# ---------------------------------------------------------------------------
# step families and uniform integrability


@dataclass(frozen=True)
class StepFamily:
    """Non-increasing step functions encoding each level's spectrum.

    Member n takes the value 2^n * alpha_i on [(i-1) 2^-n, i 2^-n), so it
    integrates to exactly the spectrum's total mass 1, and its integral
    over the prefix [0, 2^-m) is exactly the top 2^(n-m) eigenvalue mass.
    Members 1..depth of the state; prefix integrals are read from its top-k
    masses, and a member is materialised only when asked.  A depth the
    state's masses cannot reach is refused at construction.
    """

    state: StateSequence
    depth: int

    def __post_init__(self):
        _check_scan(self.state, self.depth, top_k=True)

    @property
    def depths(self) -> tuple[int, ...]:
        return tuple(range(1, self.depth + 1))

    def _check(self, n: int) -> None:
        if not 1 <= n <= self.depth:
            raise BadDimensionError(f"step family lacks depth {n}")

    def member(self, n: int) -> np.ndarray:
        self._check(n)
        return self.state.spectrum(n)

    def evaluate(self, n: int, x: float) -> float:
        """Value of member n at a point of [0, 1)."""
        if not 0 <= x < 1:
            raise ValueError("x must lie in [0, 1)")
        a = self.member(n)
        return float(a[min(int(x * a.size), a.size - 1)] * a.size)


def step_family(state: StateSequence, depth: int) -> StepFamily:
    """The state's step family, refused up front past the depth its masses reach."""
    return StepFamily(state, depth)


def prefix_integral(fam: StepFamily, n: int, m: int) -> float:
    """Integral of member n over [0, 2^-m): the top 2^(n-m) eigenvalue mass."""
    if not 0 <= m <= n:
        raise ValueError(f"m={m} outside 0..n for member depth n={n}")
    fam._check(n)
    return fam.state.top_k_mass(n, 1 << (n - m))


@dataclass(frozen=True)
class UIEntry:
    delta: float
    modulus: int | None  # smallest m with sup_n prefix_integral(n, m) <= delta

    @property
    def epsilon(self) -> float | None:  # 2^-modulus
        return None if self.modulus is None else 2.0**-self.modulus

    @property
    def found(self) -> bool:
        return self.modulus is not None


@dataclass(frozen=True)
class UIProfile:
    """Per-delta dyadic moduli witnessing uniform integrability up to a depth.

    Because every member is non-increasing, its integral over any set of
    measure 2^-m is at most its integral over the prefix [0, 2^-m), so
    checking prefixes suffices.
    """

    depth: int
    entries: tuple[UIEntry, ...]


def ui_profile(fam: StepFamily, deltas, depth: int) -> UIProfile:
    """Smallest m with sup_n prefix_integral(n, m) <= delta, for each delta.

    Each delta must lie in (0, 1) and depth must be at least 1.  Orders m
    are visited in ascending order until every delta has its modulus.  A
    state's levels are coherent (`explicit_state` checks its list, and
    `check_coherence` verifies any state), so a rank-k projection P on
    level n lifts to P (x) I, of rank 2k, one level up: by Ky Fan the sup
    over n is the value at n = depth, one query per order.  At any depth a
    sup read from closed-form masses must clear every delta it decides by
    more than their error, the state's `top_k_error`, or DimensionCapError
    is raised: no modulus is returned uncertified.  Spectra and histograms
    decide ties as they fall.
    """
    deltas = [float(d) for d in deltas]
    _finite(np.asarray(deltas), "delta")
    if not deltas:
        raise ValueError("empty delta grid")
    if not all(0 < d < 1 for d in deltas):
        raise ValueError(f"deltas must lie strictly between 0 and 1, got {deltas}")
    if depth < 1:
        raise BadDimensionError(f"depth {depth} is below 1")
    if depth > fam.depth:
        missing = range(fam.depth + 1, depth + 1)
        shown = list(missing) if len(missing) <= 8 else f"[{missing[0]}, ..., {missing[-1]}]"
        raise ValueError(f"step family lacks depths {shown}")
    slack = fam.state.top_k_error
    moduli: dict[float, int] = {}
    for m in range(1, depth + 1):
        open_deltas = [d for d in deltas if d not in moduli]
        if not open_deltas:
            break
        sup = prefix_integral(fam, depth, m)
        for delta in open_deltas:
            if slack and abs(sup - delta) <= slack:
                raise DimensionCapError(
                    f"sup of prefix integrals at m={m} is within {slack:g} of delta={delta:g}")
            if sup <= delta:
                moduli[delta] = m
    return UIProfile(depth=depth, entries=tuple(UIEntry(d, moduli.get(d)) for d in deltas))


def entropy_gap(spec: DensitySpec, n: int) -> float:
    """Entropy of the depth-n cylinder masses minus the maximum n, in bits; n >= 1."""
    if n < 1:
        raise BadDimensionError(f"depth {n} is below 1")
    return shannon_entropy(spec.cylinder_masses(n)) - n


def entropy_gap_curve(spec: DensitySpec, depth: int, start: int = 1) -> list[tuple[int, float]]:
    if depth < start:
        raise BadDimensionError(f"depth {depth} is below {start}")
    return [(n, entropy_gap(spec, n)) for n in range(start, depth + 1)]
