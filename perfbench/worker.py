"""Benchmark child process: one of setup, solve, ladder or clitrace.

    python perfbench/worker.py setup  --workload W --seed N [--toy]
    python perfbench/worker.py solve  --workload W --seed N --seconds S --trace T --out DIR [--toy]
    python perfbench/worker.py ladder --workload W --seed N --out DIR [--toy]
    python perfbench/worker.py clitrace --raw FILE --spans FILE -- <qubitlab cli arguments>

`run.py` starts these with `src` on PYTHONPATH.  Only the standard
library is imported at module level, so `setup` times the import of
qubitlab (and `-X importtime` attributes numpy and scipy to it).  Results
go to stdout as one JSON line; the ladder streams one line per rung.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from procs import run_child

REPRODUCE = (
    "block",
    "fstate-finite",
    "fstate-infinite",
    "tensor-power",
    "svd-bound",
    "typical-decay",
    "flatten-bounds",
)
#: the default seed, at which cli-session outputs must match the recorded digests
DIGEST_SEED = 0
DIGESTS_FILE = Path(__file__).resolve().parent / "cli_digests.json"
CLI_TIMEOUT = 60.0
#: reference-kernel runs before the ladder, which scale its rung times
LADDER_KERNEL_RUNS = 5


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def cmd_setup(args) -> None:
    start = time.perf_counter()
    import qubitlab  # noqa: F401

    imported = time.perf_counter()
    import workloads

    workloads.build_inputs(args.workload, args.seed, args.toy)
    _emit({"import_s": imported - start, "inputs_s": time.perf_counter() - imported})


# ---------------------------------------------------------------------------
# cli-session: each command in a fresh `python -m qubitlab.cli` process


def cli_commands(inp, outdir: str):
    """(label, metric command, argv, expected exit status, outputs) for one pass."""
    seed = str(inp.seed)
    bundles = ("typical-decay",) if inp.toy else REPRODUCE
    depth, terms = ("10", "3") if inp.toy else ("20", "6")
    pure = f"builtin:pure(seed={seed})"
    cmds = [
        (f"reproduce-{b}", "reproduce",
         ["reproduce", b, "--out", f"{outdir}/reproduce-{b}", "--seed", seed], 0,
         [f"reproduce-{b}"])
        for b in bundles
    ]
    cmds += [
        ("entropy-profile", "entropy-profile",
         ["entropy-profile", "--state", f"builtin:tensor-power(probs={inp.probs})",
          "--depth", "200", "--out", f"{outdir}/profile.csv"], 0, ["profile.csv"]),
        ("build-test-deficiency", "build-test",
         ["build-test", "--kind", "deficiency", "--state", pure, "--depth", depth,
          "--terms", terms, "--out", f"{outdir}/deficiency.json"], 0, ["deficiency.json"]),
        ("evaluate", "evaluate",
         ["evaluate", "--state", pure, "--depth", depth, "--test", f"{outdir}/deficiency.json",
          "--out", f"{outdir}/evaluate.csv"], 0, ["evaluate.csv"]),
        ("ui-profile", "ui-profile",
         ["ui-profile", "--state", "builtin:measure(density=logpow2)", "--depth", "18",
          "--out", f"{outdir}/ui.csv"], 0, ["ui.csv"]),
        ("build-test-ui", "build-test",
         ["build-test", "--kind", "ui", "--state", "builtin:block", "--depth", depth,
          "--terms", terms, "--out", f"{outdir}/ui_test.json"], 0 if inp.toy else 3,
         ["ui_test.json"]),
    ]
    return cmds


def _digest(stdout: bytes, outdir: Path, outputs) -> str:
    h = hashlib.sha256(stdout)
    for name in outputs:
        path = outdir / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(str(f.relative_to(outdir)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def _certificates_hold(payload: dict) -> bool:
    """Re-check each emitted term's normalised rank exactly: below 2^-m for the
    deficiency builder, equal to 2^-m for the ui builder."""
    from fractions import Fraction

    kind = payload["build"]["kind"]
    for c in payload["build"]["certificates"]:
        tau, budget = Fraction(c["tau"]), Fraction(1, 1 << c["m"])
        if not (tau < budget if kind == "deficiency" else tau == budget):
            return False
    return True


def cli_pass(inp, outdir: Path, traced: bool, spans_dir: Path, kernel_s=None):
    """Run the commands once; return (wall, per-command records, raw traces).

    With a list for `kernel_s`, the reference kernel runs before each
    command, outside the pass's time, and its times are appended there.
    """
    import calibrate

    records, raws = [], []
    wall = 0.0
    for i, (label, command, argv, expected, outputs) in enumerate(cli_commands(inp, str(outdir))):
        if kernel_s is not None:
            kernel_s.append(calibrate.kernel())
        if traced:
            raw_path = outdir / f"raw-{i}.json"
            prefix = [__file__, "clitrace", "--raw", str(raw_path),
                      "--spans", str(spans_dir / f"cli-session-{label}.json"), "--"]
        else:
            prefix = ["-m", "qubitlab.cli"]
        out_path, err_path = outdir / "stdout.txt", outdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            rc, cmd_wall, peak = run_child([sys.executable, *prefix, *argv], env=None,
                                           cwd=os.getcwd(), timeout=CLI_TIMEOUT,
                                           stdout=out, stderr=err)
        wall += cmd_wall
        problems = []
        if rc != expected:
            problems.append(f"exit {rc}, expected {expected}: "
                            f"{err_path.read_text(errors='replace')[-300:]}")
        digest = None
        try:
            digest = _digest(out_path.read_bytes(), outdir, outputs)
            if label.startswith("build-test") and not _certificates_hold(
                    json.loads((outdir / outputs[0]).read_text())):
                problems.append("a certificate does not hold")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"output unreadable: {exc}")
        if traced and raw_path.exists():
            raws.append(json.loads(raw_path.read_text()))
            raw_path.unlink()
        records.append({"label": label, "command": command, "wall_s": cmd_wall,
                        "peak_rss_mb": peak, "digest": digest, "problems": problems})
    return wall, records, raws


def _cli_layer_metrics(passes_records) -> dict:
    """cli.<command>.wall_s (summed over a pass) and peak_rss_mb (max), median over passes."""
    import tracer

    out = {}
    for cmd in tracer.CLI_COMMANDS:
        walls = [sum(r["wall_s"] for r in recs if r["command"] == cmd) for recs in passes_records]
        peaks = [max((r["peak_rss_mb"] for r in recs if r["command"] == cmd), default=0.0)
                 for recs in passes_records]
        out[f"cli.{cmd}.wall_s"] = (statistics.median(walls), "s")
        out[f"cli.{cmd}.peak_rss_mb"] = (statistics.median(peaks), "MB")
    return out


# ---------------------------------------------------------------------------
# solve


def _provenance(workload: str, toy: bool) -> dict:
    import numpy as np
    import scipy

    import workloads

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "largest_array_mib": workloads.largest_array_bytes(workload, toy) / 2**20,
    }


def _median_metrics(per_pass: list[dict]) -> dict:
    return {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


def cmd_solve(args) -> None:
    import calibrate
    import tracer
    import workloads

    inp = workloads.build_inputs(args.workload, args.seed, args.toy)
    outdir = Path(args.out)
    spans_dir = outdir.parent / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    in_process = args.workload != "cli-session"
    expect = workloads.expectations(args.workload, inp) if in_process else None
    recorded = {}
    if not in_process and args.seed == DIGEST_SEED and not args.toy and DIGESTS_FILE.exists():
        recorded = json.loads(DIGESTS_FILE.read_text())

    attempted = failed = 0
    problems: list[str] = []
    first_digests: dict = {}
    untraced: list[float] = []
    traced: list[float] = []
    layer_passes: list[dict] = []
    cli_records: list[list] = []
    active = None  # the Tracer, once installed
    # the peak after the first pass does not depend on how many passes fit in
    # the run, unlike the whole process's peak, which heap fragmentation raises
    first_pass_peak_mb = None
    # reference-kernel times interleaved with the untraced passes of an
    # end-to-end run, from which run.py rescales them to the reference host
    kernel_s: list[float] | None = None if args.trace else []

    def one_pass(trace_on: bool) -> float:
        nonlocal attempted, failed, first_pass_peak_mb
        if in_process:
            if kernel_s is not None:
                kernel_s.append(calibrate.kernel())
            t0 = time.perf_counter()
            results = workloads.run_pass(args.workload, inp)
            wall = time.perf_counter() - t0
            if first_pass_peak_mb is None:
                first_pass_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if trace_on:
                layer_passes.append(active.take_pass())
            checks = workloads.check_pass(args.workload, inp, expect, results)
        else:
            wall, records, raws = cli_pass(inp, outdir, trace_on, spans_dir,
                                           kernel_s if not trace_on else None)
            if not trace_on:
                cli_records.append(records)
            else:
                layer_passes.append(tracer.merge(raws))
            checks = {}
            for r in records:
                p = list(r["problems"])
                first = first_digests.setdefault(r["label"], r["digest"])
                if r["digest"] != first:
                    p.append("output bytes differ from the first pass")
                if recorded and r["digest"] != recorded.get(r["label"]):
                    p.append("output bytes differ from the digest recorded at the default seed")
                checks[r["label"]] = p
        attempted += len(checks)
        for name, p in checks.items():
            if p:
                failed += 1
                problems.extend(f"{name}: {x}" for x in p)
        return wall

    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    while len(untraced) < (1 if args.trace else 2) or time.perf_counter() - start < budget:
        untraced.append(one_pass(False))
    result = {"passes_s": untraced, "kernel_s": kernel_s}
    if args.trace:
        if in_process:
            active = tracer.Tracer()
            active.install()
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < budget:
            traced.append(one_pass(True))
        per_pass = [tracer.derive(raw) for raw in layer_passes]
        metrics = _median_metrics(per_pass)
        if in_process:
            metrics.update(_cli_layer_metrics([[]]))
            (spans_dir / f"{args.workload}.json").write_text(json.dumps(active.last_spans))
        else:
            metrics.update(_cli_layer_metrics(cli_records))
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
        result["traced_passes_s"] = traced
        result["per_layer"] = metrics
        result["edges"] = layer_passes[-1]["edges"]
        result["spans_per_pass"] = layer_passes[-1]["spans"]
    if in_process:
        result["peak_rss_mb"] = first_pass_peak_mb
    else:
        result["peak_rss_mb"] = statistics.median(
            max(r["peak_rss_mb"] for r in recs) for recs in cli_records)
        result["digests"] = first_digests
    result.update(attempted=attempted, failed=failed, problems=problems[:20],
                  provenance=_provenance(args.workload, args.toy))
    _emit(result)


# ---------------------------------------------------------------------------
# ladder: rungs at growing depth in this process, watched by the parent


def cmd_ladder(args) -> None:
    import calibrate
    import workloads
    from qubitlab.linalg import DimensionCapError

    inp = workloads.build_inputs(args.workload, args.seed, args.toy)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    kernel_s = [calibrate.kernel() for _ in range(LADDER_KERNEL_RUNS)]
    print("kernel", *map(repr, kernel_s), flush=True)
    print("ready", flush=True)
    for n in workloads.rungs():
        print(f"start {n}", flush=True)
        t0 = time.perf_counter()
        try:
            workloads.rung(args.workload, inp, n, args.out)
        except DimensionCapError as exc:
            print(f"stop cap {exc}", flush=True)
            return
        except MemoryError:
            print("stop memory", flush=True)
            return
        except Exception as exc:  # reported to the parent as a failed operation
            print(f"error {n} {type(exc).__name__}: {exc}", flush=True)
            return
        print(f"done {n} {time.perf_counter() - t0!r}", flush=True)


# ---------------------------------------------------------------------------
# clitrace: one CLI command with the tracer installed


def cmd_clitrace(args) -> int:
    import tracer
    from qubitlab import cli

    active = tracer.Tracer()
    active.install()
    rc = cli.main(args.argv)
    raw = active.take_pass()
    Path(args.raw).write_text(json.dumps(raw))
    Path(args.spans).write_text(json.dumps(active.last_spans))
    return rc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "solve", "ladder"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--toy", action="store_true")
        if mode != "setup":
            p.add_argument("--out", required=True)
        if mode == "solve":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("clitrace")
    p.add_argument("--raw", required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "clitrace":
        args.argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return cmd_clitrace(args)
    {"setup": cmd_setup, "solve": cmd_solve, "ladder": cmd_ladder}[args.mode](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
