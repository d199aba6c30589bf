"""The command-line driver, scripted end to end in a temp directory.

Run with:  python3 demos/05_cli_workflow.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(*args):
    cmd = [sys.executable, "-m", "qubitlab.cli", *map(str, args)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(f"\n$ qubitlab {' '.join(map(str, args))}   -> exit {proc.returncode}")
    if proc.stdout:
        print(proc.stdout.rstrip())
    if proc.stderr:
        print(proc.stderr.rstrip())
    return proc.returncode


# the directory and everything written into it are removed on exit
with tempfile.TemporaryDirectory(prefix="qubitlab-demo-") as tmp:
    workdir = Path(tmp)
    print("writing artifacts under", workdir)

    # 1. entropy profile of the block sequence, with a trailing-window estimate
    run(
        "entropy-profile", "--state", "builtin:block(n=20)", "--depth", 20,
        "--window", 5, "--out", workdir / "block_profile.csv",
    )
    print((workdir / "block_profile.csv").read_text().splitlines()[-1])

    # 2. build a pinning test from a zero-entropy sequence; certificates included
    run(
        "build-test", "--kind", "deficiency",
        "--state", "builtin:pure(seed=3,n=20)", "--terms", 8, "--depth", 20,
        "--theta", "1/2", "--delta", "1/2", "--out", workdir / "test.json",
    )
    payload = json.loads((workdir / "test.json").read_text())
    print("emitted depths:", [t["n_m"] for t in payload["terms"]])

    # 3. the same builder on the uniform sequence exhausts: exit code 3
    run(
        "build-test", "--kind", "deficiency", "--state", "builtin:tracial(n=20)",
        "--terms", 8, "--depth", 20, "--out", workdir / "never.json",
    )

    # 4. evaluate the saved test against the sequence it was built from
    run(
        "evaluate", "--state", "builtin:pure(seed=3,n=20)", "--test", workdir / "test.json",
        "--delta", 0.5, "--out", workdir / "eval.csv",
    )
    print((workdir / "eval.csv").read_text().splitlines()[-1])

    # 5. integrability moduli for a heavy-tailed measure sequence
    run(
        "ui-profile", "--state", "builtin:measure(density=logpow2,n=20)", "--depth", 20,
        "--deltas", "0.5,0.25,0.1", "--out", workdir / "ui.csv",
    )
    print("\n".join((workdir / "ui.csv").read_text().splitlines()[1:]))

    # 6. a full reproducible experiment bundle
    run("reproduce", "block", "--out", workdir / "rep_block", "--seed", 0)
