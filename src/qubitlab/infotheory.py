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
from .linalg import BadDimensionError, _finite, qubit_count, shannon_entropy
from .states import DensitySpec, StateSequence

#: float dust absorbed when deciding whether one more pad step still fits
MASS_SLACK = 1e-12


def _check_descending(alpha: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    a = _finite(np.asarray(alpha, dtype=float), "probability")
    if a.ndim != 1:
        raise BadDimensionError("expected a 1-D probability vector")
    if a.size > 1 and np.min(a[:-1] - a[1:]) < -atol:
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
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
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
    lead_mass: float
    averaged_entropy: float

    def satisfied(self, slack: float = 1e-9) -> bool:
        return self.entropy <= self.bound + slack

    def intermediate_satisfied(self, slack: float = 1e-9) -> bool:
        return self.entropy <= self.averaged_entropy + slack


def check_entropy_upper_bound(alpha, m: int) -> UpperBoundCheck:
    """Evaluate H(alpha) against 1 - m * (leading 2^(n-m) mass) + n.

    Also reports the entropy of the two-block average, which sits between
    the two sides.
    """
    a = _check_descending(alpha)
    n = qubit_count(a.size)
    k = 1 << (n - m)
    lead = float(a[:k].sum())
    averaged = two_block_average(a, m)
    return UpperBoundCheck(
        entropy=shannon_entropy(a),
        bound=1.0 - m * lead + n,
        lead_mass=lead,
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
    """

    spectra: dict[int, np.ndarray]

    @property
    def depths(self) -> tuple[int, ...]:
        return tuple(sorted(self.spectra))

    def member(self, n: int) -> np.ndarray:
        return self.spectra[n]

    def evaluate(self, n: int, x: float) -> float:
        """Value of member n at a point of [0, 1)."""
        if not 0 <= x < 1:
            raise ValueError("x must lie in [0, 1)")
        a = self.spectra[n]
        return float(a[min(int(x * a.size), a.size - 1)] * a.size)


def step_family(state: StateSequence, depth: int) -> StepFamily:
    return StepFamily(spectra={n: state.spectrum(n) for n in range(1, depth + 1)})


def prefix_integral(fam: StepFamily, n: int, m: int) -> float:
    """Integral of member n over [0, 2^-m): the top 2^(n-m) eigenvalue mass."""
    if m > n:
        raise ValueError(f"m={m} exceeds member depth n={n}")
    a = fam.spectra[n]
    return float(a[: 1 << (n - m)].sum())


@dataclass(frozen=True)
class UIEntry:
    delta: float
    modulus: int | None  # smallest m with sup_n prefix_integral(n, m) <= delta
    epsilon: float | None  # 2^-modulus

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
    deltas = [float(d) for d in deltas]
    _finite(np.asarray(deltas), "delta")
    if not deltas:
        raise ValueError("empty delta grid")
    missing = [n for n in range(1, depth + 1) if n not in fam.spectra]
    if missing:
        raise ValueError(f"step family lacks depths {missing}")
    sup_by_m = {
        m: max(prefix_integral(fam, n, m) for n in range(m, depth + 1))
        for m in range(1, depth + 1)
    }
    entries = []
    for delta in deltas:
        modulus = next((m for m in sorted(sup_by_m) if sup_by_m[m] <= delta), None)
        entries.append(
            UIEntry(
                delta=delta,
                modulus=modulus,
                epsilon=None if modulus is None else 2.0**-modulus,
            )
        )
    return UIProfile(depth=depth, entries=tuple(entries))


def entropy_gap(spec: DensitySpec, n: int) -> float:
    """Entropy of the depth-n cylinder masses minus the maximum n, in bits."""
    masses = spec.cylinder_masses(n)
    return shannon_entropy(masses, atol=1e-6) - n


def entropy_gap_curve(spec: DensitySpec, depth: int, start: int = 1) -> list[tuple[int, float]]:
    return [(n, entropy_gap(spec, n)) for n in range(start, depth + 1)]
