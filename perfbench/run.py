"""qubitlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qubitlab checkout; the package is loaded from
`src`.  With `--trace 0` the run measures the end-to-end metrics
(setup_s, solve_s, reach_depth, peak_rss_mb) with tracing off; with
`--trace 1` it measures the per-layer metrics instead.  Times are rescaled
to a reference host speed with the kernel of `calibrate.py`, which runs
between the timed passes.  Every output is checked against an oracle.
Human-readable lines start with `#`; the last line is the JSON result.  The full record, with provenance and ladder
details, is written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from procs import (BENCH_DIR, REFERENCE_S, ChildTimeout, child_env, host_scale, run_child,
                   wait_child)

WORKLOADS = ("dense-spectral", "factored-deep", "measure-gap", "cli-session")
#: fresh interpreters timed with -X importtime in a traced run
IMPORTTIME_REPEATS = 3
#: a rung counts toward reach_depth only if it finishes within this many seconds
#: on the reference host (raw seconds rescaled like solve_s)
RUNG_BUDGET_S = 5.0
#: a rung is killed once its rescaled time passes this multiple of the budget
RUNG_KILL_FACTOR = 1.3
#: address-space limit of the ladder process, so a blow-up is a recorded `memory` stop
LADDER_AS_BYTES = 2 << 30
LADDER_TOTAL_S = 40.0
#: everything a run does must end well inside the 180 s a run is allowed
RUN_LIMIT_S = 170.0
WORKER = str(BENCH_DIR / "worker.py")


class RunError(Exception):
    pass


class Run:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.env = child_env(root)
        self.started = time.monotonic()
        self.out = root / ".perfbench_out"
        self.scratch = self.out / f"{args.workload}-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.common = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.toy:
            self.common.append("--toy")

    def remaining(self) -> float:
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 1:
            raise RunError("run time limit reached")
        return left

    def worker(self, argv, *, python_flags=()):
        """Run a worker mode; return (last stdout line as JSON, stderr, wall, peak MB)."""
        out_path, err_path = self.scratch / "worker.out", self.scratch / "worker.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            rc, wall, peak = run_child(
                [sys.executable, *python_flags, WORKER, *argv], env=self.env, cwd=self.root,
                timeout=self.remaining(), stdout=out, stderr=err)
        stderr = err_path.read_text(errors="replace")
        lines = out_path.read_text().strip().splitlines()
        if rc != 0 or not lines:
            raise RunError(f"worker {argv[0]} exited {rc}: {stderr[-2000:]}")
        return json.loads(lines[-1]), stderr, wall, peak

    # -- phases ----------------------------------------------------------

    def setup_wall(self) -> float:
        """Wall time of a fresh interpreter that imports qubitlab and builds the inputs."""
        return self.worker(["setup", *self.common])[2]

    def setup_breakdown(self) -> dict:
        samples = []
        for _ in range(IMPORTTIME_REPEATS):
            res, stderr, _, _ = self.worker(["setup", *self.common], python_flags=("-X", "importtime"))
            cumulative = {}
            for line in stderr.splitlines():
                m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
                if m:
                    cumulative[m.group(2)] = int(m.group(1)) / 1e6
            samples.append({
                "setup.import_qubitlab_s": cumulative.get("qubitlab", 0.0),
                "setup.import_scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
                "setup.import_numpy_s": cumulative.get("numpy", 0.0),
                "setup.inputs_s": res["inputs_s"],
            })
        return {k: (statistics.median(s[k] for s in samples), "s") for k in samples[0]}

    def solve(self, trace: int):
        argv = ["solve", *self.common, "--seconds", str(self.args.seconds),
                "--trace", str(trace), "--out", str(self.scratch)]
        res, _, _, peak = self.worker(argv)
        return res, peak

    def ladder(self) -> dict:
        """Rungs at growing depth in one child with an address-space limit and a wall clock."""

        def limit_as():
            resource.setrlimit(resource.RLIMIT_AS, (LADDER_AS_BYTES, LADDER_AS_BYTES))

        err_path = self.scratch / "ladder.err"
        argv = [sys.executable, WORKER, "ladder", *self.common, "--out", str(self.scratch)]
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=subprocess.PIPE,
                                    stderr=err, preexec_fn=limit_as)
        began = time.monotonic()
        rungs, reach, stop, errors = {}, 0, None, []
        kernel_s, scale = [], 1.0
        buf = b""
        deadline = began + min(LADDER_TOTAL_S, self.remaining())
        current = None
        try:
            while stop is None:
                if b"\n" not in buf:
                    wait = deadline - time.monotonic()
                    ready = select.select([proc.stdout], [], [], max(wait, 0))[0] if wait > 0 else []
                    if not ready:
                        stop = "budget" if current is not None else "ladder-time"
                        break
                    chunk = os.read(proc.stdout.fileno(), 4096)
                    if not chunk:
                        stop = "exited"
                        break
                    buf += chunk
                    continue
                line, buf = buf.split(b"\n", 1)
                word, _, rest = line.decode().partition(" ")
                if word == "kernel":
                    kernel_s = [float(x) for x in rest.split()]
                    scale = host_scale(kernel_s)
                elif word == "start":
                    current = int(rest)
                    deadline = time.monotonic() + RUNG_BUDGET_S * RUNG_KILL_FACTOR / scale + 0.5
                elif word == "done":
                    n, secs = rest.split()
                    rungs[int(n)] = float(secs) * scale
                    if rungs[int(n)] > RUNG_BUDGET_S:
                        stop = "budget"
                        break
                    reach, current = int(n), None
                    deadline = min(began + LADDER_TOTAL_S, time.monotonic() + self.remaining())
                elif word == "stop":
                    stop = rest.split()[0]
                elif word == "error":
                    errors.append(rest)
                    stop = "error"
                elif word != "ready":
                    raise RunError(f"unexpected ladder line {line!r}")
        finally:
            proc.kill()  # a no-op once the ladder has exited by itself
            proc.stdout.close()
            rc, _ = wait_child(proc, 30)
        if stop == "exited":
            # killed by a signal without reporting: an allocation the limit refused
            stop = "memory" if rc < 0 else "error"
            if rc >= 0:
                errors.append(err_path.read_text(errors="replace")[-2000:])
        # `current` is the rung that stopped the ladder, if one did
        return {"reach": reach, "stop": stop, "stopped_at": current, "rungs": rungs,
                "errors": errors, "budget_s": RUNG_BUDGET_S, "kernel_s": kernel_s,
                "ladder_s": time.monotonic() - began}


def _provenance(args, root: Path) -> dict:
    def llc() -> str:
        best = (0, "unknown")
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(base.glob("index*")) if base.exists() else []:
            try:
                level = int((idx / "level").read_text())
                if level > best[0]:
                    best = (level, f"L{level} {(idx / 'size').read_text().strip()}")
            except (OSError, ValueError):
                continue
        return best[1]

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        sha = "git unavailable"
    src = hashlib.sha256()
    for f in sorted((root / "src" / "qubitlab").glob("*.py")):
        src.update(f.name.encode() + f.read_bytes())
    return {
        "seed": args.seed,
        "commit": sha,
        "src_sha256": src.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "llc": llc(),
        "rung_budget_s": RUNG_BUDGET_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qubitlab" / "__init__.py").is_file():
        print("error: run from the root of a qubitlab checkout (no src/qubitlab here)",
              file=sys.stderr)
        return 2
    run = Run(args, root)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        record["provenance"] = _provenance(args, root)
        if args.trace == 0:
            # the set-up samples are spread over the run, so one slow spell
            # of a shared host does not decide their median
            walls = [run.setup_wall()]
            solve, process_peak = run.solve(0)
            walls.append(run.setup_wall())
            ladder = run.ladder()
            walls.append(run.setup_wall())
            # times are rescaled to the reference host by the kernel runs
            # interleaved with them (calibrate.py); the raw ones stay in the record
            solve_scale = host_scale(solve["kernel_s"])
            run_scale = host_scale(solve["kernel_s"] + ladder["kernel_s"])
            raw_solve = statistics.median(solve["passes_s"])
            metrics = {
                "setup_s": (statistics.median(walls) * run_scale, "s"),
                "solve_s": (raw_solve * solve_scale, "s"),
                "reach_depth": (ladder["reach"], "qubit"),
                "peak_rss_mb": (solve["peak_rss_mb"], "MB"),
            }
            record.update(setup_samples_s=walls, ladder=ladder, solve_process_peak_mb=process_peak,
                          solve_scale=solve_scale, run_scale=run_scale,
                          raw_setup_s=statistics.median(walls), raw_solve_s=raw_solve)
            attempted = solve["attempted"] + len(ladder["rungs"]) + len(ladder["errors"])
            failed = solve["failed"] + len(ladder["errors"])
        else:
            metrics = run.setup_breakdown()
            solve, _ = run.solve(1)
            metrics.update({k: tuple(v) for k, v in solve["per_layer"].items()})
            record.update(edges=solve["edges"], spans_per_pass=solve["spans_per_pass"])
            attempted, failed = solve["attempted"], solve["failed"]
    except (RunError, ChildTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
    record["provenance"].update(solve["provenance"])
    record.update(solve_samples_s=solve["passes_s"], kernel_samples_s=solve["kernel_s"],
                  problems=solve["problems"],
                  digests=solve.get("digests"))
    record.update(attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (run.out / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"# {tag}: provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<48} {value:>16.6g} {unit}")
    print(f"# solve passes: {len(solve['passes_s'])} samples, median reported")
    if args.trace == 0:
        print(f"# reach ladder: stop={ladder['stop']} at depth {ladder['stopped_at']}, "
              f"budget {RUNG_BUDGET_S} s per rung")
        print(f"# setup: {len(walls)} fresh interpreters, median reported")
        print(f"# host scale {solve_scale:.4g} (solve), {run_scale:.4g} (run): reference "
              f"kernel median {REFERENCE_S / solve_scale:.4g} s against {REFERENCE_S} s; "
              f"raw medians setup {record['raw_setup_s']:.4g} s, "
              f"solve {record['raw_solve_s']:.4g} s")
    else:
        edges = ", ".join(f"{k}={v}" for k, v in sorted(solve["edges"].items()))
        print(f"# span parent links (last pass): {edges}")
    print(f"# error_rate {failed / max(attempted, 1):.6g} ({failed}/{attempted} operations)")
    for p in solve["problems"]:
        print(f"# problem: {p}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
