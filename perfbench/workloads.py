"""The four workloads: inputs drawn from a seed, one pass's tasks, the oracle checks
and the reach rung.

A pass runs the workload's fixed task list on fresh `StateSequence` and
`DensitySpec` objects, so the level memo starts empty, as it does for a
user.  `run_pass` only calls the library and records each result or
exception; `check_pass` compares them with reference values computed
once per run, outside the timed region, by `expectations`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import oracles as ref

WORKLOADS = ("dense-spectral", "factored-deep", "measure-gap", "cli-session")

#: full and toy sizes; toy sizes are what the self-test runs
SIZES = {
    "dense-spectral": {False: {"depth": 9, "terms": 6}, True: {"depth": 5, "terms": 3}},
    "factored-deep": {
        False: {"profile": 280, "block": 150, "coh_power": 80, "coh_block": 150,
                "block_terms": 8, "exhaust_cap": 21, "emit_cap": 24, "s_cap": 21,
                "typical": 22, "terms": 6},
        True: {"profile": 40, "block": 30, "coh_power": 12, "coh_block": 30,
               "block_terms": 4, "exhaust_cap": 10, "emit_cap": 12, "s_cap": 10,
               "typical": 10, "terms": 3},
    },
    "measure-gap": {
        False: {"gap": 24, "measure": 20, "coherence": 14, "terms": 6, "exact": 20},
        True: {"gap": 10, "measure": 8, "coherence": 6, "terms": 3, "exact": 8},
    },
}

THETA = Fraction(1, 2)
DELTA = Fraction(1, 2)
S_EXP, T_EXP = Fraction(1, 2), Fraction(1, 4)
S_DELTA = Fraction(1, 8)
TYPICAL_RATE = Fraction(3, 10)
UI_DELTAS = (0.5, 0.25, 0.1)
ENTROPY_TOL = 1e-9


class Inputs(dict):
    """Attribute access over the generated inputs."""

    __getattr__ = dict.__getitem__


#: spectra of the dense factor's two qubits and of the diagonal power's factor; the
#: seed draws eigenbases and orientations only, so every seed does the same work
FACTOR_QUBIT_PROBS = (0.8, 0.7)
POWER_P = 0.8


def _haar_qubit(rng) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, r = np.linalg.qr(z)
    return u * (np.diag(r) / np.abs(np.diag(r)))


def _dense_factor(rng) -> np.ndarray:
    """A dense 2-qubit density with a fixed spectrum in a seed-drawn local eigenbasis."""
    u = np.kron(_haar_qubit(rng), _haar_qubit(rng))
    lam = np.kron(*[np.array([a, 1.0 - a]) for a in FACTOR_QUBIT_PROBS])
    m = u @ np.diag(lam) @ u.conj().T
    return (m + m.conj().T) / 2


def _ginibre_matrix(rng, qubits: int) -> np.ndarray:
    dim = 1 << qubits
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def build_inputs(workload: str, seed: int, toy: bool) -> Inputs:
    import qubitlab as q

    rng = np.random.default_rng(seed)
    if workload == "dense-spectral":
        size = SIZES[workload][toy]
        factor = q.validate_density(_dense_factor(rng), 1e-8)
        top = q.validate_density(_ginibre_matrix(rng, size["depth"]), 1e-8)
        levels = [top]
        while levels[-1].qubits > 1:
            levels.append(q.partial_trace_last(levels[-1]))
        return Inputs(size=size, factor=factor, levels=levels[::-1])
    if workload == "factored-deep":
        size = SIZES[workload][toy]
        bits = "".join("1" if b else "0" for b in rng.integers(0, 2, size=size["profile"]))
        p = POWER_P if rng.integers(0, 2) else 1.0 - POWER_P
        base = q.DensityOperator.diagonal(np.array([p, 1.0 - p]))
        return Inputs(size=size, bits=bits, p=p, base=base)
    if workload == "measure-gap":
        size = SIZES[workload][toy]
        deltas = tuple(sorted(float(x) for x in rng.uniform(0.05, 0.6, size=3)))
        return Inputs(size=size, deltas=deltas)
    if workload == "cli-session":
        probs = float(rng.uniform(0.6, 0.9))
        return Inputs(seed=seed, toy=toy, probs=f"{probs:.6f}:{1.0 - float(f'{probs:.6f}'):.6f}")
    raise ValueError(f"unknown workload {workload!r}")


def largest_array_bytes(workload: str, toy: bool) -> int:
    """Largest single array one pass allocates, computed from the sizes."""
    if workload == "dense-spectral":
        return 16 << (2 * SIZES[workload][toy]["depth"])
    if workload == "factored-deep":
        return 8 << SIZES[workload][toy]["typical"]
    if workload == "measure-gap":
        return 8 << SIZES[workload][toy]["gap"]
    return 8 << 20  # the depth-20 cylinder masses of `reproduce fstate-infinite`


# ---------------------------------------------------------------------------
# one pass


def run_pass(workload: str, inp: Inputs) -> dict:
    """Run one pass; map task name to its result or the exception it raised."""
    import qubitlab as q

    results: dict = {}

    def op(name, fn, *args):
        try:
            results[name] = fn(*args)
        except Exception as exc:  # recorded and counted as a failed operation
            results[name] = exc
        return results[name]

    s = inp.size
    if workload == "dense-spectral":
        states = {
            "power": q.tensor_power_state(inp.factor, s["depth"]),
            "ginibre": q.explicit_state("ginibre", inp.levels),
        }
        for key, st in states.items():
            op(f"{key}.profile", q.entropy_profile, st, s["depth"])
            fam = op(f"{key}.step_family", q.step_family, st, s["depth"])
            if not isinstance(fam, Exception):
                op(f"{key}.ui_profile", q.ui_profile, fam, UI_DELTAS, s["depth"])
            op(f"{key}.ui_test", q.build_ui_test, st, DELTA, s["terms"], s["depth"])
            built = op(
                f"{key}.deficiency_test",
                q.build_entropy_deficiency_test, st, THETA, DELTA, s["terms"], s["depth"],
            )
            if not isinstance(built, Exception):
                op(f"{key}.evaluate", q.evaluate_failure, st, built.test, float(DELTA),
                   built.test.seq.m_max if built.test.seq.terms else 0)
    elif workload == "factored-deep":
        n = s["profile"]
        power = q.tensor_power_state(inp.base, n)
        block = q.block_state(s["block"])
        op("tracial.profile", q.entropy_profile, q.tracial_state(n), n)
        op("pure.profile", q.entropy_profile, q.pure_bitstring_state(inp.bits, n), n)
        op("power.profile", q.entropy_profile, power, n)
        op("block.profile", q.entropy_profile, block, s["block"])
        op("power.coherence", q.check_coherence, power, s["coh_power"])
        op("block.coherence", q.check_coherence, block, s["coh_block"])
        op("block.evaluate", q.evaluate_failure, block,
           q.block_test_sequence(s["block_terms"]), 0.9, s["block_terms"])
        cap = s["exhaust_cap"]
        op("tracial.deficiency_test", q.build_entropy_deficiency_test,
           q.tracial_state(cap), THETA, DELTA, s["terms"], cap)
        op("tracial.ui_test", q.build_ui_test, q.tracial_state(cap), DELTA, s["terms"], cap)
        cap = s["emit_cap"]
        pure = q.pure_bitstring_state(inp.bits, cap)
        op("pure.deficiency_test", q.build_entropy_deficiency_test,
           pure, THETA, DELTA, s["terms"], cap)
        op("pure.ui_test", q.build_ui_test, pure, DELTA, s["terms"], cap)
        op("power.s_test", q.build_s_test, q.tensor_power_state(inp.base, s["s_cap"]),
           S_EXP, T_EXP, S_DELTA, s["terms"], s["s_cap"])
        op("power.typical_decay", q.typical_subspace_decay, inp.base, TYPICAL_RATE,
           s["typical"])
    elif workload == "measure-gap":
        for p in (2, 3):
            spec = q.log_power_density(p)
            op(f"p{p}.gap_curve", q.entropy_gap_curve, spec, s["gap"], 2)
            st = q.measure_state(spec, s["measure"])
            fam = op(f"p{p}.step_family", q.step_family, st, s["measure"])
            if not isinstance(fam, Exception):
                op(f"p{p}.ui_profile", q.ui_profile, fam, inp.deltas, s["measure"])
            op(f"p{p}.ui_test", q.build_ui_test, st, DELTA, s["terms"], s["measure"])
            op(f"p{p}.coherence", q.check_coherence, st, s["coherence"])
    else:
        raise ValueError(f"{workload} does not run in process")
    return results


# ---------------------------------------------------------------------------
# reference values, computed once per run outside the timed region


def _sorted_prefix(levels_desc: dict[int, np.ndarray]):
    prefix = {n: np.cumsum(w) for n, w in levels_desc.items()}
    return lambda n, k: float(prefix[n][k - 1])


def expectations(workload: str, inp: Inputs) -> dict:
    s = inp.size
    if workload == "dense-spectral":
        k = inp.factor.qubits
        top = np.asarray(inp.levels[-1].matrix)
        power_mats = {n: ref.power_level_matrix(np.asarray(inp.factor.matrix), k, n)
                      for n in range(1, s["depth"] + 1)}
        gin_mats = {n: ref.trace_out_last(top, s["depth"] - n) if n < s["depth"] else top
                    for n in range(1, s["depth"] + 1)}
        out = {}
        for key, mats in (("power", power_mats), ("ginibre", gin_mats)):
            spectra = {n: ref.spectrum_desc(m) for n, m in mats.items()}
            if key == "power":
                entropies = [ref.power_level_entropy(np.asarray(inp.factor.matrix), k, n)
                             for n in range(1, s["depth"] + 1)]
            else:
                entropies = [ref.entropy_bits(spectra[n]) for n in range(1, s["depth"] + 1)]
            top_sum = _sorted_prefix(spectra)
            out[key] = {
                "entropies": entropies,
                "matrices": mats,
                "moduli": ref.ui_moduli(top_sum, UI_DELTAS, s["depth"]),
                "ui_plan": ref.ui_plan(top_sum, float(DELTA), s["terms"], s["depth"]),
                "deficiency_plan": ref.deficiency_plan(
                    top_sum, THETA, float(DELTA), s["terms"], s["depth"]),
            }
        return out
    if workload == "factored-deep":
        h = ref.entropy_bits([inp.p, 1.0 - inp.p])
        binom = lambda n, k: ref.binomial_top_sum(inp.p, n, k)  # noqa: E731
        ranks = [min(max(ref.pow2_floor(n, TYPICAL_RATE), 1), 1 << n)
                 for n in range(1, s["typical"] + 1)]
        pure_top = lambda n, k: 1.0  # noqa: E731
        return {
            "h_power": h,
            "typical_ranks": ranks,
            "typical_values": [binom(n, r) for n, r in zip(range(1, s["typical"] + 1), ranks)],
            "s_plan": ref.s_plan(binom, S_EXP, T_EXP, float(S_DELTA), s["terms"], s["s_cap"]),
            "pure_deficiency_plan": ref.deficiency_plan(
                pure_top, THETA, float(DELTA), s["terms"], s["emit_cap"]),
            "pure_ui_plan": ref.ui_plan(pure_top, float(DELTA), s["terms"], s["emit_cap"]),
        }
    if workload == "measure-gap":
        out = {}
        for p in (2, 3):
            masses = {n: ref.log_power_masses(p, n) for n in range(1, s["exact"] + 1)}
            top_sum = _sorted_prefix({n: np.sort(m)[::-1] for n, m in masses.items()})
            out[p] = {
                "masses": masses,
                "gaps": {n: ref.entropy_bits(masses[n]) - n
                         for n in range(2, min(s["exact"], s["gap"]) + 1)},
                "moduli": ref.ui_moduli(top_sum, inp.deltas, s["measure"]),
                "ui_plan": ref.ui_plan(top_sum, float(DELTA), s["terms"], s["measure"]),
            }
        return out
    raise ValueError(f"{workload} has no in-process expectations")


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the result agrees


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _check_profile(profile, expected) -> list[str]:
    got = [h for _, h, _ in profile.entries]
    if len(got) != len(expected):
        return [f"profile has {len(got)} rows, expected {len(expected)}"]
    bad = [n for n, (g, e) in enumerate(zip(got, expected), 1)
           if not _close(g, e, ENTROPY_TOL * max(1, n))]
    return [f"entropy differs at depths {bad[:5]}"] if bad else []


def _check_built(outcome, plan, terms: int, weight_of, certificate) -> list[str]:
    """Emitted terms and exhausted orders follow the plan; certificates hold in integers."""
    problems = []
    want_terms = [(m, f[0], f[1]) for m, f in plan if f]
    want_exhausted = tuple(m for m, f in plan if not f)
    got_terms = [(t.m, t.qubits, ref.projector_rank(t.projector)) for t in outcome.test.seq.terms]
    if got_terms != want_terms:
        problems.append(f"terms {got_terms} != plan {want_terms}")
    if tuple(outcome.exhausted) != want_exhausted:
        problems.append(f"exhausted {outcome.exhausted} != plan {want_exhausted}")
    if outcome.requested_terms != terms:
        problems.append("requested_terms not echoed")
    for t in outcome.test.seq.terms:
        rank = ref.projector_rank(t.projector)
        if not certificate(t.m, t.qubits, rank):
            problems.append(f"certificate fails for order {t.m}")
        if weight_of is not None and not weight_of(t.qubits, t.projector) > float(DELTA):
            problems.append(f"order {t.m} weight is not above delta")
    return problems


def _deficiency_cert(m, n, rank):
    return (rank << m) < (1 << n)


def _ui_cert(m, j, rank):
    return (rank << m) == (1 << j)


def _s_cert(m, n, rank):
    expo = n * S_EXP.numerator - m * S_EXP.denominator
    return expo > 0 and rank**S_EXP.denominator < (1 << expo)


def _check_moduli(profile, moduli) -> list[str]:
    got = [e.modulus for e in profile.entries]
    return [] if got == list(moduli) else [f"ui moduli {got} != {list(moduli)}"]


def _check_coherence(report, depth) -> list[str]:
    if len(report.deviations) != depth - 1:
        return [f"coherence checked {len(report.deviations)} levels, expected {depth - 1}"]
    return [] if report.passed else [f"coherence fails first at {report.first_failure}"]


def _check_exhausted(outcome, terms) -> list[str]:
    if outcome.test.seq.terms or tuple(outcome.exhausted) != tuple(range(1, terms + 1)):
        return [f"tracial builder emitted {len(outcome.test.seq.terms)} terms"]
    return []


def check_pass(workload: str, inp: Inputs, expect: dict, results: dict) -> dict[str, list[str]]:
    """Map each task to its problems; a task with problems is a failed operation."""
    s = inp.size
    checks: dict = {}
    if workload == "dense-spectral":
        for key in ("power", "ginibre"):
            e = expect[key]
            mats = e["matrices"]
            weight = lambda n, g, mats=mats: ref.dense_weight(mats[n], g)  # noqa: E731
            checks[f"{key}.profile"] = lambda r, e=e: _check_profile(r, e["entropies"])
            checks[f"{key}.step_family"] = lambda r: (
                [] if r.depths == tuple(range(1, s["depth"] + 1)) else ["step family depths"])
            checks[f"{key}.ui_profile"] = lambda r, e=e: _check_moduli(r, e["moduli"])
            checks[f"{key}.ui_test"] = lambda r, e=e, w=weight: _check_built(
                r, e["ui_plan"], s["terms"], w, _ui_cert)
            checks[f"{key}.deficiency_test"] = lambda r, e=e, w=weight: _check_built(
                r, e["deficiency_plan"], s["terms"], w, _deficiency_cert)

            def evaluated(r, key=key, mats=mats):
                test = results[f"{key}.deficiency_test"].test
                want = [ref.dense_weight(mats[t.qubits], t.projector) for t in test.seq.terms]
                if list(r.ms) != [t.m for t in test.seq.terms]:
                    return ["evaluated orders differ from the built test"]
                bad = [m for m, g, w in zip(r.ms, r.weights, want) if not _close(g, w, 1e-9)]
                return [f"weights differ at orders {bad}"] if bad else []

            checks[f"{key}.evaluate"] = evaluated
    elif workload == "factored-deep":
        n = s["profile"]
        checks["tracial.profile"] = lambda r: _check_profile(r, [float(i) for i in range(1, n + 1)])
        checks["pure.profile"] = lambda r: _check_profile(r, [0.0] * n)
        checks["power.profile"] = lambda r: _check_profile(
            r, [i * expect["h_power"] for i in range(1, n + 1)])

        def block_profile(r):
            hs = [h for _, h, _ in r.entries]
            problems = []
            if len(hs) != s["block"]:
                return [f"block profile has {len(hs)} rows"]
            steps = [b - a for a, b in zip([0.0] + hs, hs)]
            if any(min(abs(x), abs(x - 1.0)) > ENTROPY_TOL for x in steps):
                problems.append("block entropy steps are not 0 or 1")
            m = 1
            while ref.block_checkpoint(m) <= s["block"]:
                c = ref.block_checkpoint(m)
                if not _close(hs[c - 1], c - m, ENTROPY_TOL * c):
                    problems.append(f"H at checkpoint {c} is {hs[c - 1]}, expected {c - m}")
                m += 1
            return problems

        checks["block.profile"] = block_profile
        checks["power.coherence"] = lambda r: _check_coherence(r, s["coh_power"])
        checks["block.coherence"] = lambda r: _check_coherence(r, s["coh_block"])

        def block_eval(r):
            k = s["block_terms"]
            if list(r.ms) != list(range(1, k + 1)):
                return [f"block test orders {r.ms}"]
            bad = [m for m, w in zip(r.ms, r.weights) if not _close(w, 1.0, 1e-12)]
            return [f"block weight is not 1 at orders {bad}"] if bad else []

        checks["block.evaluate"] = block_eval
        checks["tracial.deficiency_test"] = lambda r: _check_exhausted(r, s["terms"])
        checks["tracial.ui_test"] = lambda r: _check_exhausted(r, s["terms"])
        pure_index = lambda n: int(inp.bits[:n], 2)  # noqa: E731
        pure_weight = lambda n, g: 1.0 if pure_index(n) in set(  # noqa: E731
            int(i) for i in g.basis_indices) else 0.0
        checks["pure.deficiency_test"] = lambda r: _check_built(
            r, expect["pure_deficiency_plan"], s["terms"], pure_weight, _deficiency_cert)
        checks["pure.ui_test"] = lambda r: _check_built(
            r, expect["pure_ui_plan"], s["terms"], pure_weight, _ui_cert)
        checks["power.s_test"] = lambda r: _check_built(
            r, expect["s_plan"], s["terms"], None, _s_cert)

        def typical(r):
            if list(r.ranks) != expect["typical_ranks"]:
                return ["typical-subspace ranks differ from floor(2^(n r))"]
            bad = [n for n, g, w in zip(r.ns, r.values, expect["typical_values"])
                   if not _close(g, w, 1e-12 + 1e-9 * w)]
            return [f"typical-subspace values differ at {bad[:5]}"] if bad else []

        checks["power.typical_decay"] = typical
    elif workload == "measure-gap":
        for p in (2, 3):
            e = expect[p]

            def gap_curve(r, e=e, p=p):
                gaps = dict(r)
                problems = []
                if sorted(gaps) != list(range(2, s["gap"] + 1)):
                    return ["gap curve depths"]
                bad = [n for n, g in e["gaps"].items() if not _close(gaps[n], g, 1e-8)]
                if bad:
                    problems.append(f"gap differs from the cylinder-mass oracle at {bad[:5]}")
                seq = [gaps[n] for n in sorted(gaps)]
                if not all(b < a for a, b in zip(seq, seq[1:])):
                    problems.append("gaps do not decrease")
                if p == 3 and not seq[-1] > ref.log_power_entropy_limit(3):
                    problems.append("p=3 gap fell below its limit")
                return problems

            masses = e["masses"]
            checks[f"p{p}.gap_curve"] = gap_curve
            checks[f"p{p}.step_family"] = lambda r: (
                [] if r.depths == tuple(range(1, s["measure"] + 1)) else ["step family depths"])
            checks[f"p{p}.ui_profile"] = lambda r, e=e: _check_moduli(r, e["moduli"])
            checks[f"p{p}.ui_test"] = lambda r, e=e, masses=masses: _check_built(
                r, e["ui_plan"], s["terms"],
                lambda n, g: ref.diag_weight(masses[n], g), _ui_cert)
            checks[f"p{p}.coherence"] = lambda r: _check_coherence(r, s["coherence"])
    problems: dict[str, list[str]] = {}
    for name, result in results.items():
        if isinstance(result, Exception):
            problems[name] = [f"{type(result).__name__}: {result}"]
            continue
        try:
            problems[name] = checks[name](result)
        except Exception as exc:  # a malformed result is a failed operation
            problems[name] = [f"check raised {type(exc).__name__}: {exc}"]
    missing = set(checks) - set(results)
    for name in missing:
        problems[name] = ["task did not run"]
    return problems


# ---------------------------------------------------------------------------
# reach rungs: one fresh call at depth n


def rung(workload: str, inp: Inputs, n: int, scratch: str) -> None:
    import qubitlab as q

    if workload == "dense-spectral":
        q.tensor_power_state(inp.factor, n).entropy(n)
    elif workload == "factored-deep":
        q.typical_subspace_decay(inp.base, TYPICAL_RATE, n)
        q.build_entropy_deficiency_test(q.tracial_state(n), THETA, DELTA, 6, n)
    elif workload == "measure-gap":
        q.entropy_gap(q.log_power_density(2), n)
    else:
        from qubitlab import cli

        args = cli.build_parser().parse_args([
            "ui-profile", "--state", f"builtin:measure(density=logpow3,n={n})",
            "--depth", str(n), "--out", f"{scratch}/rung.csv",
        ])
        args.func(args)


def rungs():
    """Depths 1..32, then at most 1.1x apart, so a one-rung change stays within a tenth."""
    n = 1
    while True:
        yield n
        n = n + 1 if n < 32 else max(n + 1, math.floor(n * 1.1))
