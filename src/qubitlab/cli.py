"""Experiment driver with replayable specs and deterministic outputs.

Exit codes: 0 success, 2 input/validation failure, 3 a builder exhausted
its depth search for at least one order, 4 a reproduce bundle check
failed.  Identical arguments and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from .infotheory import (
    check_entropy_lower_bound,
    check_entropy_upper_bound,
    entropy_gap_curve,
    flatten_distribution,
    step_family,
    ui_profile,
    uniformity_dominance,
)
from .linalg import (
    DensityOperator,
    LinalgError,
    Projection,
    eigendecompose,
    projection_weight,
    shannon_entropy,
    tau_weight,
    top_k_projector,
    top_k_sum,
    validate_density,
)
from .rtests import (
    block_test_sequence,
    build_entropy_deficiency_test,
    build_s_test,
    build_ui_test,
    evaluate_failure,
    state_weight,
    typical_subspace_decay,
    validate_qstest,
)
from .serialize import (
    dump_json,
    format_real,
    spec_hash,
    state_from_json,
    projection_test_from_json,
    projection_test_to_json,
    write_csv,
)
from .states import (
    block_state,
    check_coherence,
    entropy_profile,
    entropy_rate_estimate,
    log_power_density,
    measure_state,
    prng_bits,
    state_from_recipe,
    tensor_power_state,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EXHAUSTED = 3
EXIT_CHECK_FAILED = 4


def _parse_builtin(text: str):
    """Parse 'name(key=value,...)' into (name, params)."""
    name, _, rest = text.partition("(")
    params = {}
    if rest:
        if not rest.endswith(")"):
            raise ValueError(f"unbalanced parentheses in {text!r}")
        body = rest[:-1]
        for item in filter(None, (s.strip() for s in body.split(","))):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"expected key=value, got {item!r}")
            params[key.strip()] = value.strip()
    return name.strip(), params


def load_state(text: str, default_depth: int = 20):
    """Resolve --state: 'builtin:name(params)' or a JSON file path.

    A builtin is turned into the recipe its JSON file would hold and
    built from the registry in `states`; `pure` without bits draws them
    from its seed, and `tensor-power` takes a diagonal factor as probs=p0:p1:...
    """
    if not text.startswith("builtin:"):
        return state_from_json(json.loads(Path(text).read_text(encoding="utf-8")))
    name, params = _parse_builtin(text.removeprefix("builtin:"))
    depth = int(params.get("n", default_depth))
    recipe = {**params, "kind": "tensor_power" if name == "tensor-power" else name}
    if name == "pure" and "bits" not in params:
        recipe["bits"] = prng_bits(depth, int(params.get("seed", 0)))
    if recipe["kind"] == "tensor_power":
        recipe["factor"] = {"repr": "diag", "data": [float(x) for x in params["probs"].split(":")]}
    return state_from_recipe(recipe, depth)


# ---------------------------------------------------------------------------
# commands


def cmd_entropy_profile(args) -> int:
    state = load_state(args.state, args.depth)
    depth = min(args.depth, state.max_depth)
    profile = entropy_profile(state, depth)
    window = args.window or max(1, depth // 4)
    est = entropy_rate_estimate(profile, min(window, depth))
    experiment = {"cmd": "entropy-profile", "state": args.state, "depth": depth, "window": window}
    rows = [(n, h, r) for n, h, r in profile.entries]
    trailer = (
        f"rate_estimate={format_real(est.value)} window={est.window} "
        f"n_lo={est.n_lo} n_hi={est.n_hi}"
    )
    if args.format == "json":
        dump_json(
            args.out,
            {
                "spec_hash": spec_hash(experiment),
                "profile": [{"n": n, "H": h, "H_over_n": r} for n, h, r in rows],
                "rate_estimate": {"value": est.value, "window": est.window},
            },
        )
    else:
        write_csv(args.out, ["n", "H", "H_over_n"], rows, experiment=experiment, trailer=trailer)
    return EXIT_OK


def cmd_build_test(args) -> int:
    state = load_state(args.state, args.depth)
    if args.kind == "deficiency":
        outcome = build_entropy_deficiency_test(
            state, args.theta, args.delta, args.terms, args.depth
        )
    elif args.kind == "s":
        outcome = build_s_test(state, args.s, args.t, args.delta, args.terms, args.depth)
    elif args.kind == "ui":
        outcome = build_ui_test(state, args.delta, args.terms, args.depth)
    else:
        raise ValueError(f"unknown builder kind {args.kind!r}")
    payload = projection_test_to_json(outcome.test)
    payload["build"] = {
        "kind": args.kind,
        "state": args.state,
        "requested_terms": outcome.requested_terms,
        "depth_cap": outcome.depth_cap,
        "exhausted": list(outcome.exhausted),
        "certificates": [
            {
                "m": t.m,
                "n_m": t.qubits,
                "tau": tau_weight(t.projector),
                "rho": state_weight(state, t.qubits, t.projector),
            }
            for t in outcome.test.seq.terms
        ],
    }
    dump_json(args.out, payload)
    return EXIT_EXHAUSTED if outcome.exhausted else EXIT_OK


def cmd_evaluate(args) -> int:
    state = load_state(args.state, args.depth)
    test = projection_test_from_json(json.loads(Path(args.test).read_text(encoding="utf-8")))
    depth = args.terms or (test.seq.m_max if test.seq.terms else 0)
    report = evaluate_failure(state, test, args.delta, depth)
    taus = [tau_weight(t.projector) for t in test.seq.up_to(depth)]
    experiment = {"cmd": "evaluate", "state": args.state, "delta": args.delta, "terms": depth}
    rows = [
        (m, t.qubits, tau, w, int(w > args.delta))
        for m, t, tau, w in zip(report.ms, test.seq.up_to(depth), taus, report.weights)
    ]
    write_csv(
        args.out,
        ["m", "n_m", "tau", "rho", "witness"],
        rows,
        experiment=experiment,
        trailer=f"witnesses={len(report.witnesses)}/{len(report.ms)} delta={format_real(args.delta)}",
    )
    return EXIT_OK


def cmd_ui_profile(args) -> int:
    state = load_state(args.state, args.depth)
    depth = min(args.depth, state.max_depth)
    deltas = [float(x) for x in args.deltas.split(",")]
    fam = step_family(state, depth)
    profile = ui_profile(fam, deltas, depth)
    experiment = {"cmd": "ui-profile", "state": args.state, "depth": depth, "deltas": deltas}
    rows = [
        (
            e.delta,
            -1 if e.modulus is None else e.modulus,
            e.epsilon if e.epsilon is not None else float("nan"),
            "found" if e.found else "no-modulus-at-depth",
        )
        for e in profile.entries
    ]
    write_csv(args.out, ["delta", "modulus_m", "epsilon", "verdict"], rows, experiment=experiment)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce bundles


def log_power_entropy_integral(p: float) -> float:
    """-int f log2 f for the log-power density, p > 2, by adaptive quadrature.

    Uses the exact substitution u = 1 - ln x, under which the integrand is
    smooth on [1, inf) and QUADPACK converges to near machine precision.
    """
    if p <= 2:
        raise ValueError("entropy integral diverges for p <= 2")
    c = p - 1.0
    log2e = math.log2(math.e)

    def g(u):
        # log2 f(x(u)) expanded so nothing overflows for large u
        return (c / u**p) * (math.log2(c) + (u - 1.0) * log2e - p * np.log2(u))

    val, _ = quad(g, 1.0, np.inf, limit=500)
    return -val


def _random_density(rng, qubits: int) -> DensityOperator:
    dim = 1 << qubits
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return validate_density(m / m.trace().real, 1e-8)


def _haar_projection(rng, qubits: int, rank: int) -> Projection:
    dim = 1 << qubits
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    p = q @ q.conj().T
    return Projection(qubits=qubits, matrix=(p + p.conj().T) / 2)


def _random_descending(rng, size: int, concentration: float = 1.0) -> np.ndarray:
    return np.sort(rng.dirichlet(np.full(size, concentration)))[::-1]


def _reproduce_block(outdir: Path, seed: int):
    state = block_state(44)
    test = block_test_sequence(8)
    report = evaluate_failure(state, test, 0.9, 8)
    taus = [tau_weight(t.projector) for t in test.seq.terms]
    rows = [
        (t.m, t.qubits, tau, w, int(w > 0.9))
        for t, tau, w in zip(test.seq.terms, taus, report.weights)
    ]
    write_csv(
        outdir / "block_test.csv",
        ["m", "n_m", "tau", "rho", "witness"],
        rows,
        experiment={"reproduce": "block", "seed": seed},
    )
    profile = entropy_profile(state, 44)
    write_csv(
        outdir / "block_profile.csv",
        ["n", "H", "H_over_n"],
        list(profile.entries),
        experiment={"reproduce": "block", "seed": seed},
    )
    checkpoints = [m + m * (m + 1) // 2 for m in range(1, 9)]
    ratios = [profile.entries[n - 1][2] for n in checkpoints]
    checks = [
        ("tau_exact", all(tau == 2.0**-t.m for tau, t in zip(taus, test.seq.terms)), str(taus)),
        ("weight_one", all(abs(w - 1.0) <= 1e-10 for w in report.weights), str(report.weights)),
        (
            "checkpoint_ratio_climbs",
            all(b > a for a, b in zip(ratios, ratios[1:])),
            str([round(r, 4) for r in ratios]),
        ),
        ("budget_valid", validate_qstest(test, 8).valid, ""),
    ]
    return checks


def _reproduce_fstate(outdir: Path, seed: int, power: float):
    spec = log_power_density(power)
    finite_entropy = power > 2
    depth = 18 if finite_entropy else 20
    state = measure_state(spec, depth)
    curve = entropy_gap_curve(spec, depth, start=2)
    name = f"fstate_p{power:g}"
    write_csv(
        outdir / f"{name}_gap.csv",
        ["n", "gap_bits"],
        curve,
        experiment={"reproduce": name, "seed": seed},
    )
    coherence = check_coherence(state, min(depth, 14), 1e-8)
    gaps = [g for _, g in curve]
    checks = [
        ("coherent", coherence.passed, f"first_failure={coherence.first_failure}"),
        ("gap_decreasing", all(b < a for a, b in zip(gaps, gaps[1:])), ""),
    ]
    if finite_entropy:
        limit = log_power_entropy_integral(power)
        checks.append(
            (
                "gap_above_limit",
                gaps[-1] > limit,
                f"gap={gaps[-1]:.6f} limit={limit:.6f}",
            )
        )
    else:
        alpha0 = float(spec.cylinder_masses(1)[0])
        closed = 1.0 / (1.0 + math.log(2.0))
        checks.append(
            ("alpha0_closed_form", abs(alpha0 - closed) <= 1e-9, f"{alpha0} vs {closed}")
        )
    return checks


def _reproduce_tensor_power(outdir: Path, seed: int):
    base = DensityOperator.diagonal(np.array([0.9, 0.1]))
    state = tensor_power_state(base, 24)
    profile = entropy_profile(state, 24)
    write_csv(
        outdir / "tensor_power_profile.csv",
        ["n", "H", "H_over_n"],
        list(profile.entries),
        experiment={"reproduce": "tensor-power", "seed": seed},
    )
    h = shannon_entropy(np.array([0.9, 0.1]))
    est = entropy_rate_estimate(profile, 9)  # trailing window n = 16..24
    checks = [
        (
            "entropy_additive",
            all(abs(profile.entries[n - 1][1] - n * h) <= 1e-8 for n in range(1, 25)),
            "",
        ),
        ("rate_estimate_near_binary_entropy", abs(est.value - h) <= 0.02, f"{est.value} vs {h}"),
        ("coherent", check_coherence(state, 24, 1e-8).passed, ""),
    ]
    return checks


def _reproduce_svd_bound(outdir: Path, seed: int):
    rng = np.random.default_rng(seed)
    worst_slack, worst_eq = -np.inf, 0.0
    violations = 0
    rows = []
    for trial in range(1000):
        qubits = int(rng.integers(1, 5))
        dim = 1 << qubits
        d = _random_density(rng, qubits)
        k = int(rng.integers(1, dim + 1))
        g = _haar_projection(rng, qubits, k)
        weight = projection_weight(d, g)
        cap = top_k_sum(eigendecompose(d), k)
        slack = weight - cap
        worst_slack = max(worst_slack, slack)
        if slack > 1e-9:
            violations += 1
        eig_proj = top_k_projector(eigendecompose(d), k)
        eq_err = abs(projection_weight(d, eig_proj) - cap)
        worst_eq = max(worst_eq, eq_err)
        if trial < 100:
            rows.append((trial, qubits, k, weight, cap, slack))
    write_csv(
        outdir / "svd_bound_sample.csv",
        ["trial", "qubits", "rank", "weight", "top_k_sum", "slack"],
        rows,
        experiment={"reproduce": "svd-bound", "seed": seed},
        trailer=f"violations={violations} worst_slack={format_real(worst_slack)}",
    )
    return [
        ("no_violations", violations == 0, f"worst_slack={worst_slack:.3e}"),
        ("tight_on_eigenprojector", worst_eq <= 1e-9, f"worst={worst_eq:.3e}"),
    ]


def _reproduce_typical_decay(outdir: Path, seed: int):
    base = DensityOperator.diagonal(np.array([0.9, 0.1]))
    curve = typical_subspace_decay(base, "3/10", 16)
    write_csv(
        outdir / "typical_decay.csv",
        ["n", "rank", "value"],
        list(zip(curve.ns, curve.ranks, curve.values)),
        experiment={"reproduce": "typical-decay", "seed": seed},
    )
    return [
        ("net_decay", curve.net_decay, f"{curve.values[0]:.6f} -> {curve.values[-1]:.6f}"),
        ("tail_strictly_decreasing", curve.tail_strictly_decreasing, ""),
    ]


def _reproduce_flatten_bounds(outdir: Path, seed: int):
    rng = np.random.default_rng(seed)
    lower_ok = upper_ok = dominance_ok = 0
    lower_total = upper_total = 0
    attempts = 0
    while lower_total < 1000 and attempts < 20000:
        attempts += 1
        alpha = _random_descending(rng, 1 << 10)
        check = check_entropy_lower_bound(alpha, "1/2", 0.4)
        if not check.applicable:
            continue
        lower_total += 1
        flat = flatten_distribution(alpha, "1/2")
        if check.satisfied(slack=0.0):
            lower_ok += 1
        if uniformity_dominance(flat.p, alpha) and shannon_entropy(alpha) >= shannon_entropy(
            flat.p
        ) - 1e-9:
            dominance_ok += 1
    for _ in range(1000):
        n = int(rng.integers(3, 11))
        alpha = _random_descending(rng, 1 << n, concentration=float(rng.uniform(0.2, 2.0)))
        m = int(rng.integers(1, n + 1))
        check = check_entropy_upper_bound(alpha, m)
        upper_total += 1
        if check.satisfied() and check.intermediate_satisfied():
            upper_ok += 1
    write_csv(
        outdir / "flatten_bounds.csv",
        ["check", "passed", "total"],
        [
            ("lower_bound_strict", lower_ok, lower_total),
            ("dominance_entropy", dominance_ok, lower_total),
            ("upper_bound", upper_ok, upper_total),
        ],
        experiment={"reproduce": "flatten-bounds", "seed": seed},
    )
    return [
        ("lower_bound_strict", lower_ok == lower_total == 1000, f"{lower_ok}/{lower_total}"),
        ("dominance_entropy", dominance_ok == lower_total, f"{dominance_ok}/{lower_total}"),
        ("upper_bound", upper_ok == upper_total == 1000, f"{upper_ok}/{upper_total}"),
    ]


REPRODUCE = {
    "block": _reproduce_block,
    "fstate-finite": lambda outdir, seed: _reproduce_fstate(outdir, seed, 3.0),
    "fstate-infinite": lambda outdir, seed: _reproduce_fstate(outdir, seed, 2.0),
    "tensor-power": _reproduce_tensor_power,
    "svd-bound": _reproduce_svd_bound,
    "typical-decay": _reproduce_typical_decay,
    "flatten-bounds": _reproduce_flatten_bounds,
}


def cmd_reproduce(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    checks = REPRODUCE[args.name](outdir, args.seed)
    summary = {
        "experiment": args.name,
        "seed": args.seed,
        "checks": [{"check": c, "passed": bool(ok), "detail": d} for c, ok, d in checks],
        "passed": all(ok for _, ok, _ in checks),
    }
    dump_json(outdir / "summary.json", summary)
    for c, ok, d in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {args.name}: {c} {d}")
    return EXIT_OK if summary["passed"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitlab",
        description="Entropy-rate and projection-test experiments on qubit sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, depth=20):
        p.add_argument("--state", required=True, help="builtin:name(params) or a JSON file")
        p.add_argument("--depth", type=int, default=depth, help="depth / search cap")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("entropy-profile", help="per-depth entropy table")
    common(p)
    p.add_argument("--window", type=int, default=0, help="trailing window (default depth/4)")
    p.set_defaults(func=cmd_entropy_profile)

    p = sub.add_parser("build-test", help="extract a projection test from a state")
    common(p)
    p.add_argument("--kind", choices=["deficiency", "s", "ui"], required=True)
    p.add_argument("--terms", type=int, default=8)
    p.add_argument("--delta", default="1/2", help="rational weight threshold")
    p.add_argument("--theta", default="1/2", help="rank exponent (deficiency builder)")
    p.add_argument("--s", default="1/2", help="weight exponent (s builder)")
    p.add_argument("--t", default="1/4", help="rank exponent (s builder)")
    p.set_defaults(func=cmd_build_test)

    p = sub.add_parser("evaluate", help="weight table of a state against a saved test")
    common(p)
    p.add_argument("--test", required=True, help="test JSON file")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--terms", type=int, default=0, help="orders to evaluate (default: all)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ui-profile", help="uniform-integrability moduli per delta")
    common(p)
    p.add_argument("--deltas", default="0.5,0.25,0.1")
    p.set_defaults(func=cmd_ui_profile)

    p = sub.add_parser("reproduce", help="run a named experiment bundle")
    p.add_argument("name", choices=sorted(REPRODUCE))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LinalgError, ValueError, TypeError, OSError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
