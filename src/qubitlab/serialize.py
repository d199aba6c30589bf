"""Replayable JSON for states and tests, and deterministic CSV output.

State files store the constructor recipe, not the matrices, so replaying
a file rebuilds the exact sequence; explicit per-level dumps are the
fallback for sequences without a recipe.  CSV files open with a comment
line carrying a hash of the producing experiment so outputs are
attributable and diffable; reals are printed with 17 significant digits.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .linalg import BadDimensionError, Projection, matrix_from_json, matrix_to_json
from .rtests import NullCondition, ProjectionSequence, QSTest, STest, TestTerm
from .states import StateSequence, explicit_state, state_from_recipe


def format_real(x: float) -> str:
    return format(float(x), ".17g")


def spec_hash(obj) -> str:
    """Stable 12-hex digest of a canonical JSON rendering."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def write_csv(path, columns, rows, *, experiment=None, trailer=None) -> None:
    """Write rows with a header and an experiment-hash comment line."""
    lines = [f"# spec_hash={spec_hash(experiment)}", ",".join(columns)]
    for row in rows:
        cells = [format_real(c) if isinstance(c, float) else str(c) for c in row]
        lines.append(",".join(cells))
    if trailer:
        lines.append(f"# {trailer}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def dump_json(path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, indent=2, default=str) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# states


def state_to_json(state: StateSequence) -> dict:
    """The state's recipe, else its per-level dump; ``repr`` is "diag" iff
    every level read (level 1 of a recipe, all of a dump) is diagonal."""
    out = {"name": state.name, "n_max": state.max_depth}
    if state.spec is not None:
        levels = [state.density(1)]
        out["constructor"] = state.spec
    else:
        levels = [state.density(n) for n in range(1, state.max_depth + 1)]
        out["per_n"] = [matrix_to_json(d) for d in levels]
    out["repr"] = "diag" if all(d.is_diagonal for d in levels) else "dense"
    return out


def state_from_json(obj: dict) -> StateSequence:
    if "per_n" in obj:
        levels = [matrix_from_json(m) for m in obj["per_n"]]
        return explicit_state(obj.get("name", "explicit"), levels)
    spec = obj["constructor"]
    state = state_from_recipe(spec, int(spec.get("n_max", obj.get("n_max"))))
    state.name = obj.get("name", state.name)
    return state


# ---------------------------------------------------------------------------
# tests


def projection_to_json(g: Projection) -> dict:
    if g.basis_indices is not None:
        return {"qubits": g.qubits, "kind": "basis", "indices": [int(i) for i in g.basis_indices]}
    if g.factors is not None:
        return {
            "qubits": g.qubits,
            "kind": "product",
            "factors": [
                {"qubits": q, "indices": [int(i) for i in idx]} for q, idx in g.factors
            ],
        }
    return {
        "qubits": g.qubits,
        "kind": "dense",
        "matrix": [[[z.real, z.imag] for z in row] for row in g.matrix],
    }


def projection_from_json(obj: dict) -> Projection:
    kind = obj["kind"]
    if kind == "basis":
        return Projection.from_basis(obj["qubits"], obj["indices"])
    if kind == "product":
        return Projection.from_factors(
            [(f["qubits"], f["indices"]) for f in obj["factors"]]
        )
    if kind == "dense":
        data = np.asarray(obj["matrix"], dtype=float)
        return Projection.from_matrix(data[..., 0] + 1j * data[..., 1])
    raise ValueError(f"unknown projection kind {kind!r}")


def _terms_to_json(seq: ProjectionSequence) -> list[dict]:
    return [
        {"m": t.m, "n_m": t.qubits, "projector": projection_to_json(t.projector)}
        for t in seq.terms
    ]


def _terms_from_json(items) -> ProjectionSequence:
    terms = tuple(
        TestTerm(m=int(d["m"]), projector=projection_from_json(d["projector"])) for d in items
    )
    for t, d in zip(terms, items):
        if int(d["n_m"]) != t.qubits:  # the one place a stated register can disagree
            raise BadDimensionError(f"term m={t.m} qubit count mismatch")
    return ProjectionSequence(terms=terms)


def projection_test_to_json(test) -> dict:
    if isinstance(test, QSTest):
        return {"kind": "qs", "terms": _terms_to_json(test.seq), "certificate": {"type": "geometric"}}
    if isinstance(test, STest):
        return {
            "kind": "s",
            "s": test.s,
            "terms": _terms_to_json(test.seq),
            "certificate": {"type": "weight_partial_sums", "values": list(test.weight_partial_sums)},
        }
    if isinstance(test, NullCondition):
        return {"kind": "null", "terms": _terms_to_json(test.seq), "certificate": {"type": "none"}}
    raise TypeError(f"cannot serialise {type(test).__name__}")


def projection_test_from_json(obj: dict):
    seq = _terms_from_json(obj["terms"])
    kind = obj["kind"]
    if kind == "qs":
        cert = obj.get("certificate", {}).get("type", "geometric")
        if cert != "geometric":  # the one certificate a quantum test carries
            raise ValueError(f"unsupported certificate type {cert!r} for a qs test")
        return QSTest(seq=seq)
    if kind == "s":
        cert = obj.get("certificate", {})
        return STest(
            s=float(obj["s"]), seq=seq, weight_partial_sums=tuple(cert.get("values", ()))
        )
    if kind == "null":
        return NullCondition(seq=seq)
    raise ValueError(f"unknown test kind {kind!r}")
