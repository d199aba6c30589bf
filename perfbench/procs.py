"""Child-process helpers shared by the runner and the worker (standard library only)."""

from __future__ import annotations

import os
import statistics
import subprocess
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
#: BLAS and OpenMP pools are pinned to one thread so runs on a shared machine stay steady
BLAS_THREADS = 1
#: seconds the reference kernel of `calibrate.py` takes on the reference host, about
#: its median on an idle 2-vCPU x86-64 VM with one BLAS thread.  It is only a unit,
#: and it must not change once a baseline has been measured with it.
REFERENCE_S = 0.15


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"  # str hashing, and so set order, repeats across processes
    return env


def host_scale(kernel_samples) -> float:
    """Factor that turns seconds on this host, now, into seconds on the reference host."""
    return REFERENCE_S / statistics.median(kernel_samples)


class ChildTimeout(Exception):
    pass


def wait_child(proc: subprocess.Popen, timeout: float):
    """Reap `proc`; return (exit status as Popen reports it, peak RSS in MB).

    The peak comes from this child's own rusage (`wait4`), not from
    RUSAGE_CHILDREN, which is a running maximum over every child reaped so
    far.  Polls every millisecond so wall times taken around it stay sharp;
    kills the child and raises ChildTimeout when `timeout` passes.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise ChildTimeout(f"child {proc.args[:4]} exceeded {timeout:.0f} s")
        time.sleep(0.001)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_child(argv, *, env, cwd, timeout, stdout=None, stderr=None):
    """Run argv to completion; return (exit status, wall seconds, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=stdout, stderr=stderr)
    rc, peak = wait_child(proc, timeout)
    return rc, time.perf_counter() - start, peak
