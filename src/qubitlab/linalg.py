"""Density operators, projections, spectra and entropy on qubit registers.

Index convention, fixed once for the whole package: computational-basis
index i has qubit 1 as its most significant bit, so the last qubit is the
least significant bit and tracing it out sums adjacent index pairs.

Dense matrices are capped at 12 qubits; diagonal probability vectors are
allowed up to 24 qubits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DENSE_QUBIT_CAP = 12
DIAG_QUBIT_CAP = 24

#: eigenvalues in [-EIG_CLIP_TOL, 0) are eigensolver noise and are clipped
EIG_CLIP_TOL = 1e-9
#: eigenvalues, before clipping, may drift this far from sum 1 before we refuse
EIG_SUM_TOL = 1e-6


class LinalgError(ValueError):
    """Base class for operator validation failures."""


class BadDimensionError(LinalgError):
    """Matrix is not square with a power-of-two dimension."""


class NonHermitianError(LinalgError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class NotPositiveError(LinalgError):
    """Eigenvalue or probability below -tolerance."""


class WrongTraceError(LinalgError):
    """Trace differs from 1 beyond tolerance."""


class MalformedOperatorError(LinalgError):
    """Spectrum cannot be repaired into a probability vector."""


class DimensionCapError(LinalgError):
    """Requested register exceeds the configured representation cap."""


def qubit_count(dim: int) -> int:
    """Number of qubits for a dimension, which must be a power of two."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise BadDimensionError(f"dimension {dim} is not a power of two")
    return n


def _finite(a: np.ndarray, what: str, floor: float | None = None, negative=NotPositiveError):
    """Return ``a`` after the checks every input path shares.

    Any NaN or infinity raises MalformedOperatorError; with a ``floor``, an
    entry below -floor raises ``negative``.  Sum rules and their
    tolerances stay with each caller.
    """
    if not np.isfinite(a).all():
        raise MalformedOperatorError(f"non-finite {what}")
    if floor is not None and a.min(initial=0.0) < -floor:
        raise negative(f"{what} {a.min()} below -{floor}")
    return a


def _index_set(indices, qubits: int, what: str) -> np.ndarray:
    """Sorted distinct basis indices of a ``qubits``-qubit register.

    NaN, infinite or fractional entries raise MalformedOperatorError and
    out-of-range ones BadDimensionError, both before the int64 cast.
    """
    a = np.asarray(indices)
    if a.dtype.kind not in "iu":
        a = _finite(a.astype(float), what)
        if (a != np.floor(a)).any():
            raise MalformedOperatorError(f"non-integral {what}")
    if a.size and (a.min() < 0 or a.max() >= (1 << qubits)):
        raise BadDimensionError(f"{what} out of range")
    a = np.sort(a.astype(np.int64))
    return a[np.diff(a, prepend=-1) != 0]  # the first of each run; bare np.unique loads numpy.ma


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DensityOperator:
    """A register state: dense 2^n x 2^n matrix or diagonal probability vector."""

    qubits: int
    matrix: np.ndarray | None = None
    probs: np.ndarray | None = None

    @classmethod
    def dense(cls, matrix: np.ndarray) -> "DensityOperator":
        return validate_density(matrix, 1e-9)

    @classmethod
    def diagonal(cls, probs: np.ndarray) -> "DensityOperator":
        p = np.asarray(probs)
        if p.ndim != 1:
            raise BadDimensionError("diagonal form takes a 1-D probability vector")
        p = p.astype(float, copy=False)
        n = qubit_count(p.size)
        if n > DIAG_QUBIT_CAP:
            raise DimensionCapError(f"{n} qubits exceeds diagonal cap {DIAG_QUBIT_CAP}")
        _finite(p, "probability", 1e-9)
        total = float(p.sum())
        if abs(total - 1.0) > 1e-8:
            raise WrongTraceError(f"probabilities sum to {total}, not 1")
        return cls(qubits=n, probs=_readonly(np.clip(p, 0.0, None)))

    @property
    def dim(self) -> int:
        return 1 << self.qubits

    @property
    def is_diagonal(self) -> bool:
        return self.probs is not None

    def diagonal_part(self) -> np.ndarray:
        """Real diagonal of the operator in the computational basis."""
        if self.is_diagonal:
            return self.probs
        return self.matrix.diagonal().real

    def dense_matrix(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        if self.qubits > DENSE_QUBIT_CAP:
            raise DimensionCapError(
                f"{self.qubits} qubits exceeds dense cap {DENSE_QUBIT_CAP}"
            )
        return np.diag(self.probs.astype(complex))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, with eigenvectors or basis labels.

    Ties are broken by ascending original index (stable sort), which makes
    top-k projectors deterministic; for a level of dense blocks the index
    is the product basis, the kron of the blocks' sorted eigenvectors.
    Diagonal operators carry the computational-basis labels of their
    sorted entries instead of vectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    basis_labels: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def qubits(self) -> int:
        return qubit_count(self.dim)


@dataclass(frozen=True)
class SpectrumHistogram:
    """Spectrum of a ``qubits``-qubit level as distinct values with multiplicities.

    ``values`` are the distinct positive eigenvalues, descending, and
    ``multiplicities`` their exact counts as Python ints; the remaining
    ``2^qubits - sum(multiplicities)`` eigenvalues are zero.
    """

    qubits: int
    values: tuple[float, ...]
    multiplicities: tuple[int, ...]


@dataclass(frozen=True)
class Projection:
    """Hermitian projection in dense or product form.

    The product form is a tensor product of basis subsets, stored as
    ``(qubits_i, indices_i)`` pairs; a basis subset is its one-block case.
    """

    qubits: int
    matrix: np.ndarray | None = None
    factors: tuple[tuple[int, np.ndarray], ...] | None = None

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "Projection":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise BadDimensionError("projection matrix must be square")
        n = qubit_count(m.shape[0])
        _finite(m, "projection entry")
        if np.abs(m - m.conj().T).max() > 1e-9:
            raise NonHermitianError("projection is not Hermitian within tolerance")
        if np.abs(m @ m - m).max() > 1e-8:
            raise MalformedOperatorError("projection is not idempotent within tolerance")
        tr = m.trace().real
        if abs(tr - round(tr)) > 1e-6:
            raise MalformedOperatorError(f"projection trace {tr} is not near an integer")
        return cls(qubits=n, matrix=_readonly(m))

    @classmethod
    def from_basis(cls, qubits: int, indices) -> "Projection":
        idx = _index_set(indices, qubits, "basis index")
        return cls(qubits=qubits, factors=((qubits, _readonly(idx)),))

    @classmethod
    def from_factors(cls, factors) -> "Projection":
        fs, seen = [], {}  # one validated index set per distinct (qubits, content)
        for q, idx in factors:
            if q < 1:
                raise BadDimensionError(f"a product block needs a qubit or more, got {q}")
            a = np.asarray(idx)  # an object array's bytes are pointers: key it by its float values
            key = (q, a.dtype, a.shape, (a.astype(float) if a.dtype.hasobject else a).tobytes())
            if key not in seen:
                arr = _index_set(a, q, "factor index")
                if arr.size == 0:
                    raise BadDimensionError("factor index out of range")
                seen[key] = (int(q), _readonly(arr))
            fs.append(seen[key])
        return cls(qubits=sum(q for q, _ in fs), factors=tuple(fs))

    @classmethod
    def identity(cls, qubits: int) -> "Projection":
        """The whole register, as one-qubit blocks ``(1, [0, 1])``, at any size."""
        return cls.from_factors([(1, np.arange(2))] * qubits)

    @property
    def basis_indices(self) -> np.ndarray | None:
        """The index set of a one-block product, else None."""
        if self.factors is not None and len(self.factors) == 1:
            return self.factors[0][1]
        return None

    @property
    def rank(self) -> int:
        if self.matrix is not None:
            return int(round(self.matrix.trace().real))
        return math.prod(int(idx.size) for _, idx in self.factors)

    def __eq__(self, other) -> bool:
        """Equal matrices, or equal index sets in one block layout: the block (2, [0, 1])
        is not the product (1, [0]), (1, [0, 1]), though both span one subspace."""
        if not isinstance(other, Projection):
            return NotImplemented
        if self.matrix is not None or other.matrix is not None:
            return self.qubits == other.qubits and np.array_equal(self.matrix, other.matrix)
        return len(self.factors) == len(other.factors) and all(
            q == r and np.array_equal(a, b) for (q, a), (r, b) in zip(self.factors, other.factors)
        )


def _joined_indices(factors) -> np.ndarray:
    """Ascending index set of a product of basis subsets, later blocks on lower bits."""
    (_, idx), *rest = factors
    for q, sub in rest:
        idx = (idx[:, None] << q | sub).reshape(-1)
    return idx


def tensor(a, b):
    """Kronecker product with ``a`` on the earlier (high-order) qubits.

    Accepts dense matrices, diagonal probability vectors, or
    DensityOperator values (diagonal is preserved when both sides have it).
    """
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        n = a.qubits + b.qubits
        if a.is_diagonal and b.is_diagonal:
            if n > DIAG_QUBIT_CAP:
                raise DimensionCapError(f"{n} qubits exceeds diagonal cap")
            return DensityOperator(qubits=n, probs=_readonly(np.kron(a.probs, b.probs)))
        if n > DENSE_QUBIT_CAP:
            raise DimensionCapError(f"{n} qubits exceeds dense cap {DENSE_QUBIT_CAP}")
        return DensityOperator(
            qubits=n, matrix=_readonly(np.kron(a.dense_matrix(), b.dense_matrix()))
        )
    am, bm = np.asarray(a), np.asarray(b)
    cap = DIAG_QUBIT_CAP if (am.ndim == 1 and bm.ndim == 1) else DENSE_QUBIT_CAP
    if qubit_count(am.shape[0]) + qubit_count(bm.shape[0]) > cap:
        raise DimensionCapError("tensor product exceeds the representation cap")
    return np.kron(am, bm)


def _pt_dense(m: np.ndarray, a: int = 1) -> np.ndarray:
    rem = m.shape[0] >> a
    r = m.reshape(rem, 1 << a, rem, 1 << a)
    return np.einsum("iaja->ij", r)


def _pt_diag(p: np.ndarray, a: int = 1) -> np.ndarray:
    return p.reshape(-1, 1 << a).sum(axis=1)


def partial_trace_last(d: DensityOperator) -> DensityOperator:
    """Trace out the last qubit (the least significant index bit)."""
    return partial_trace_k(d, 1)


def partial_trace_k(d: DensityOperator, a: int) -> DensityOperator:
    """Trace out the last ``a`` qubits; equals ``a``-fold partial_trace_last."""
    if a == 0:
        return d
    if not 0 < a < d.qubits:
        raise BadDimensionError(f"cannot trace {a} qubits out of {d.qubits}")
    if d.is_diagonal:
        return DensityOperator(qubits=d.qubits - a, probs=_readonly(_pt_diag(d.probs, a)))
    return DensityOperator(qubits=d.qubits - a, matrix=_readonly(_pt_dense(d.matrix, a)))


def _clean_eigenvalues(w: np.ndarray) -> np.ndarray:
    _finite(w, "eigenvalue", EIG_CLIP_TOL, MalformedOperatorError)
    total = float(w.sum())
    if abs(total - 1.0) > EIG_SUM_TOL:
        raise MalformedOperatorError(f"eigenvalues sum to {total}, not 1")
    w = np.clip(w, 0.0, 1.0)
    return w / float(w.sum())


def eigendecompose(d: DensityOperator) -> Spectrum:
    """Descending spectrum of a density operator.

    Eigenvalues are clipped to [0, 1] and renormalised; the descending
    order breaks ties by ascending original index (eigh output order for
    dense operators, computational-basis order for diagonal ones; a level
    of blocks, in `StateSequence.eigensystem`, uses product-basis order).
    """
    if d.is_diagonal:
        w = _clean_eigenvalues(d.probs.astype(float))
        order = np.argsort(-w, kind="stable")
        return Spectrum(
            eigenvalues=_readonly(w[order]), basis_labels=_readonly(order.astype(np.int64))
        )
    w, v = np.linalg.eigh(d.matrix)
    w = _clean_eigenvalues(w)
    order = np.argsort(-w, kind="stable")
    return Spectrum(eigenvalues=_readonly(w[order]), eigenvectors=_readonly(v[:, order]))


def shannon_entropy(p) -> float:
    """Entropy in bits of a probability vector, with 0*log(0) = 0."""
    p = _finite(np.asarray(p, dtype=float), "probability", EIG_CLIP_TOL)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-6:
        raise MalformedOperatorError(f"probabilities sum to {total}, not 1")
    return _entropy_bits(p)


def _entropy_bits(p: np.ndarray) -> float:
    """-sum p log2 p over p's positive entries, copying them out only if p has zeros."""
    if not p.min() > 0.0:
        p = p[p > 0.0]
    lg = np.log2(p)
    return float(-np.multiply(p, lg, out=lg).sum())


def von_neumann_entropy(d: DensityOperator | Spectrum) -> float:
    """Entropy in bits of the eigenvalue distribution; 0 <= H <= qubits.

    Takes an operator, or its spectrum when that is already at hand.
    """
    return _entropy_bits((d if isinstance(d, Spectrum) else eigendecompose(d)).eigenvalues)


def _as_descending(s) -> np.ndarray:
    if isinstance(s, Spectrum):
        return s.eigenvalues
    if isinstance(s, DensityOperator):
        return eigendecompose(s).eigenvalues
    arr = np.asarray(s, dtype=float)
    return np.sort(arr)[::-1]


def top_k_sum(s, k: int) -> float:
    """Sum of the k largest eigenvalues of a spectrum, operator or histogram."""
    if isinstance(s, SpectrumHistogram):
        if k < 1 or (k - 1).bit_length() > s.qubits:  # 1 <= k <= 2^qubits
            raise BadDimensionError(f"k={k} out of range 1..2^{s.qubits}")
        total = 0.0
        for v, c in zip(s.values, s.multiplicities):
            take = min(c, k)
            # a take past 2^1023 has no float; shift it into range (a no-op below 2^1000)
            shift = max(0, take.bit_length() - 1000)
            total += (take >> shift) * math.ldexp(v, shift)
            k -= take
            if not k:
                break
        return total
    w = _as_descending(s)
    if not 1 <= k <= w.size:
        raise BadDimensionError(f"k={k} out of range 1..{w.size}")
    return float(w[:k].sum())


def top_k_projector(s: Spectrum, k: int) -> Projection:
    """Rank-k projection onto the span of the first k spectrum entries."""
    if not 1 <= k <= s.dim:
        raise BadDimensionError(f"k={k} out of range 1..{s.dim}")
    if s.eigenvectors is not None:
        v = s.eigenvectors[:, :k]
        p = v @ v.conj().T
        return Projection(qubits=s.qubits, matrix=_readonly((p + p.conj().T) / 2))
    if s.basis_labels is None:
        raise MalformedOperatorError("spectrum has neither eigenvectors nor labels")
    return Projection.from_basis(s.qubits, s.basis_labels[:k])


def projection_weight(d: DensityOperator, g: Projection) -> float:
    """Tr(d G), the weight the state places on the projection's range."""
    if d.qubits != g.qubits:
        raise BadDimensionError(f"state on {d.qubits} qubits, projection on {g.qubits}")
    if g.factors is not None:
        return _product_weight([d.diagonal_part()], g.factors)
    if d.is_diagonal:
        return float(np.real(np.dot(d.probs, g.matrix.diagonal())))
    return float(np.einsum("ij,ji->", d.matrix, g.matrix).real)


def _product_weight(blocks: list[np.ndarray], factors) -> float:
    """Tr(rho G) for rho the kron of diagonal ``blocks`` and G a product projection.

    Both sides are cut at their common qubit boundaries; a group wider than
    `DIAG_QUBIT_CAP` raises, else its kron-merged blocks are summed on its joined indices.
    """
    weight = 1.0
    i = j = 0
    while i < len(blocks) and j < len(factors):
        i1, j1, a, q = i + 1, j + 1, qubit_count(blocks[i].size), factors[j][0]
        while a != q:  # extend the narrower side until both end on one qubit
            if a < q:
                a, i1 = a + qubit_count(blocks[i1].size), i1 + 1
            else:
                q, j1 = q + factors[j1][0], j1 + 1
        if a > DIAG_QUBIT_CAP:
            raise DimensionCapError(f"a {a}-qubit block exceeds diagonal cap {DIAG_QUBIT_CAP}")
        buf = functools.reduce(np.kron, blocks[i:i1])
        weight *= float(buf[_joined_indices(factors[j:j1])].sum())
        i, j = i1, j1
    return weight


def tau_weight(g: Projection) -> float:
    """Normalised rank 2^-n * rank(G): the uniform state's weight on G."""
    return float(Fraction(g.rank, 1 << g.qubits))


def matrix_to_json(d: DensityOperator) -> dict:
    """JSON form {qubits, repr, data}; dense data is [[re, im], ...] rows."""
    if d.is_diagonal:
        return {"qubits": d.qubits, "repr": "diag", "data": [float(x) for x in d.probs]}
    return {
        "qubits": d.qubits,
        "repr": "dense",
        "data": [[[z.real, z.imag] for z in row] for row in d.matrix],
    }


def matrix_from_json(obj: dict) -> DensityOperator:
    if obj["repr"] == "diag":
        return DensityOperator.diagonal(np.asarray(obj["data"], dtype=float))
    data = np.asarray(obj["data"], dtype=float)
    return validate_density(data[..., 0] + 1j * data[..., 1], 1e-8)


def validate_density(matrix: np.ndarray, tol: float) -> DensityOperator:
    """Check Hermiticity, unit trace and positivity; return the operator.

    Raises a distinct error type per failure mode.  With t = max(tol, 1e-12),
    the trace may miss 1 by min(t, EIG_SUM_TOL / 2), leaving the sum rule room
    for rounding, and the positivity floor is f = min(t, EIG_CLIP_TOL), so at
    any tol and dimension `eigendecompose` refuses nothing accepted here.  A
    Cholesky factorisation of m + f I, a quarter of the cost of an eigenvalue
    solve, certifies no eigenvalue below -f to within its rounding, about
    dim 2^-53 ||m|| (Higham, Accuracy and Stability, ch. 10).  If it fails,
    eigenvalues decide: those in [-f, 0) are accepted, to be clipped.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadDimensionError(f"expected a square matrix, got shape {m.shape}")
    n = qubit_count(m.shape[0])
    if n > DENSE_QUBIT_CAP:
        raise DimensionCapError(f"{n} qubits exceeds dense cap {DENSE_QUBIT_CAP}")
    _finite(m, "matrix entry")
    if np.abs(m - m.conj().T).max() > tol:
        raise NonHermitianError("matrix is not Hermitian within tolerance")
    tr = m.trace().real
    if abs(tr - 1.0) > min(max(tol, 1e-12), EIG_SUM_TOL / 2):
        raise WrongTraceError(f"trace is {tr}, not 1")
    floor = min(max(tol, 1e-12), EIG_CLIP_TOL)
    shifted = m.copy()
    shifted.flat[:: m.shape[0] + 1] += floor
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        _finite(np.linalg.eigvalsh(m), "eigenvalue", floor)
    return DensityOperator(qubits=n, matrix=_readonly(m))
