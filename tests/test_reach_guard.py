"""The cli-session and dense-spectral reach ladders climb to their caps and stop as `cap`.

`perfbench/` climbs `ui-profile` on the log-power-3 measure state one rung
at a time.  This test runs rungs of that same function from past 24
qubits to 40,000, each within its 5 s budget, and checks that the first
rung past the closed-form cap (`CLOSED_FORM_QUBIT_CAP`) raises
DimensionCapError and nothing else, within 1 s, which the ladder records
as a `cap` stop rather than an `error`.  Its dense-spectral twin does the
same for the entropy of a dense tensor power, whose rungs each build one
run of blocks, up to the block cap (`BLOCK_QUBIT_CAP`).  It only reads
`perfbench/`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import time
import types
from pathlib import Path

from qubitlab.linalg import DimensionCapError
from qubitlab.states import BLOCK_QUBIT_CAP, CLOSED_FORM_QUBIT_CAP

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


def test_dense_spectral_rungs_climb_to_the_block_cap(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import worker
    import workloads

    inp = workloads.build_inputs("dense-spectral", worker.DIGEST_SEED, False)
    last = max(n for n in itertools.takewhile(lambda n: n <= BLOCK_QUBIT_CAP, workloads.rungs()))
    assert last == 8_265_166_138
    for n in (10**6, 10**9, last):
        start = time.perf_counter()
        workloads.rung("dense-spectral", inp, n, str(tmp_path))
        assert time.perf_counter() - start < 1.0, n
    past = next(n for n in workloads.rungs() if n > BLOCK_QUBIT_CAP)
    start = time.perf_counter()
    with pytest.raises(DimensionCapError):
        workloads.rung("dense-spectral", inp, past, str(tmp_path))
    assert time.perf_counter() - start < 1.0
    # the whole ladder, as the benchmark's child runs it: every rung done, then a `cap` stop
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        worker.cmd_ladder(types.SimpleNamespace(
            workload="dense-spectral", seed=worker.DIGEST_SEED, toy=False, out=str(tmp_path)))
    lines = out.getvalue().splitlines()
    assert lines[-3].startswith(f"done {last} ") and lines[-2] == f"start {past}"
    assert lines[-1].startswith("stop cap ")
    assert not [line for line in lines if line.startswith("error")]
