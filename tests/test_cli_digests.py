"""Byte identity of the benchmark's CLI session against its recorded digests.

The `cli-session` workload in `perfbench/` runs twelve CLI commands (the
seven `reproduce` bundles and a builder/evaluate/profile chain) and, at
its digest seed, checks each command's stdout and output files against
`perfbench/cli_digests.json`.  This test runs the same commands, built by
the same functions, each in a fresh interpreter, so a change that moves a
single output byte fails the suite.  It only reads `perfbench/`.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def test_cli_session_matches_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import procs
    import worker
    import workloads

    inp = workloads.build_inputs("cli-session", worker.DIGEST_SEED, False)
    recorded = json.loads(worker.DIGESTS_FILE.read_text())
    env = procs.child_env(ROOT)
    commands = worker.cli_commands(inp, str(tmp_path))
    assert sorted(label for label, *_ in commands) == sorted(recorded)
    for label, _, argv, expected, outputs in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "qubitlab.cli", *argv],
            env=env, cwd=tmp_path, capture_output=True, timeout=worker.CLI_TIMEOUT,
        )
        assert proc.returncode == expected, (label, proc.stderr.decode()[-500:])
        assert worker._digest(proc.stdout, tmp_path, outputs) == recorded[label], label
