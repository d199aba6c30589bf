"""The cli-session reach ladder climbs past the diagonal cap and stops as `cap`.

`perfbench/` climbs `ui-profile` on the log-power-3 measure state one rung
at a time.  This test runs rungs of that same function from past 24
qubits to 40,000, each within its 5 s budget, and checks that the first
rung past the closed-form cap (`CLOSED_FORM_QUBIT_CAP`) raises
DimensionCapError and nothing else, within 1 s, which the ladder records
as a `cap` stop rather than an `error`.  It only reads `perfbench/`.
"""

from __future__ import annotations

import time
from pathlib import Path

from qubitlab.linalg import DimensionCapError
from qubitlab.states import CLOSED_FORM_QUBIT_CAP

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_cli_session_rungs_pass_the_diagonal_cap(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import worker
    import workloads

    inp = workloads.build_inputs("cli-session", worker.DIGEST_SEED, False)
    for n in (25, 99, 205, 2000, 9000, 40000):
        start = time.perf_counter()
        workloads.rung("cli-session", inp, n, str(tmp_path))
        assert time.perf_counter() - start < 5.0, n
        assert (tmp_path / "rung.csv").read_text().count("found") == 3, n
    past = next(n for n in workloads.rungs() if n > CLOSED_FORM_QUBIT_CAP)
    start = time.perf_counter()
    with pytest.raises(DimensionCapError):
        workloads.rung("cli-session", inp, past, str(tmp_path))
    assert time.perf_counter() - start < 1.0
