"""Span tracer that times qubitlab's layers from outside the package.

`Tracer.install()` wraps every public function of the layer modules and
rebinds the wrapper in every qubitlab module namespace that binds the
original, since callers bind by name through `from .linalg import ...`.
It also wraps the `StateSequence` and `DensitySpec` methods.  Each call
records a span (name, start, end, parent) in flat in-memory lists; counts
that the per-layer metrics need are taken in the same wrappers.
`take_pass()` folds the spans of one pass into raw sums and starts a new
pass; `derive()` turns raw sums into the named per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "states", "rtests", "infotheory", "serialize", "cli")
METHODS = {
    "StateSequence": ("density", "entropy", "spectrum", "diag_factors"),
    "DensitySpec": ("cylinder_masses",),
}
BUILDERS = ("build_entropy_deficiency_test", "build_ui_test", "build_s_test")

#: functions whose calls, self time and total time are emitted by name
TIMED = {
    "linalg": (
        "eigendecompose",
        "shannon_entropy",
        "von_neumann_entropy",
        "top_k_sum",
        "top_k_projector",
    ),
    "states": (
        "StateSequence.density",
        "StateSequence.entropy",
        "StateSequence.spectrum",
        "DensitySpec.cylinder_masses",
        "entropy_profile",
        "check_coherence",
    ),
    "rtests": BUILDERS + ("state_weight", "evaluate_failure", "typical_subspace_decay"),
    "infotheory": (
        "step_family",
        "ui_profile",
        "prefix_integral",
        "entropy_gap",
        "entropy_gap_curve",
    ),
    "serialize": ("write_csv", "dump_json"),
    "cli": (),
}
CLI_COMMANDS = ("reproduce", "entropy-profile", "build-test", "evaluate", "ui-profile")
SETUP_METRICS = ("import_qubitlab_s", "import_scipy_integrate_s", "import_numpy_s", "inputs_s")

COUNTERS = (
    "eig_calls",
    "eig_dense_calls",
    "eigh_flops",
    "bytes_returned",
    "level_misses",
    "level_hits",
    "factored_entropy_calls",
    "scan_mass_tests",
    "terms_emitted",
    "orders_exhausted",
    "orders_requested",
    "state_weight_fallbacks",
    "write_csv_bytes",
    "dump_json_bytes",
)


def _payload_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    fields = getattr(obj, "__dataclass_fields__", None)
    if not fields:
        return 0
    return sum(v.nbytes for v in (getattr(obj, f) for f in fields) if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.max_qubits = 0
        self._operators: dict[int, object] = {}
        self._builder_ids: set[int] = set()
        self._state_weight_id = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._index[name]

    def _under(self, ids) -> bool:
        names = self.span_name
        return any(names[s] in ids for s in self.stack)

    def _wrap(self, fn, layer: str, qualname: str):
        idx = self._intern(f"{layer}.{qualname}", layer)
        pre, post = self._hooks(layer, qualname)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            sid = len(tr.span_name)
            tr.span_name.append(idx)
            tr.span_parent.append(tr.stack[-1] if tr.stack else -1)
            tr.span_end.append(0.0)
            tr.stack.append(sid)
            start = perf_counter()
            tr.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.span_end[sid] = perf_counter()
                tr.stack.pop()
            if post is not None:
                post(args, result)
            return result

        traced.__traced_original__ = fn
        if qualname in BUILDERS:
            self._builder_ids.add(idx)
        if qualname == "state_weight":
            self._state_weight_id = idx
        return traced

    def _hooks(self, layer: str, qualname: str):
        c = self.counters
        pre = post = None
        if layer == "linalg":

            def post(args, result):
                c["bytes_returned"] += _payload_bytes(result)

        if qualname == "eigendecompose":

            def pre(args):
                d = args[0]
                c["eig_calls"] += 1
                self._operators.setdefault(id(d), d)
                if not d.is_diagonal:
                    c["eig_dense_calls"] += 1
                    c["eigh_flops"] += d.dim**3

        elif qualname == "top_k_sum":

            def pre(args):
                if self._under(self._builder_ids):
                    c["scan_mass_tests"] += 1

        elif qualname == "StateSequence.density":

            def pre(args):
                seq, n = args[0], args[1]
                if n in seq._cache:
                    c["level_hits"] += 1
                else:
                    c["level_misses"] += 1
                    self.max_qubits = max(self.max_qubits, n)
                if seq.has_factors and self._under((self._state_weight_id,)):
                    c["state_weight_fallbacks"] += 1

        elif qualname == "StateSequence.entropy":

            def pre(args):
                if args[0].has_factors:
                    c["factored_entropy_calls"] += 1

        elif qualname == "DensitySpec.cylinder_masses":

            def pre(args):
                self.max_qubits = max(self.max_qubits, args[1])

        elif qualname in BUILDERS:

            def post(args, outcome):
                c["terms_emitted"] += len(outcome.test.seq.terms)
                c["orders_exhausted"] += len(outcome.exhausted)
                c["orders_requested"] += outcome.requested_terms

        elif qualname in ("write_csv", "dump_json"):

            def post(args, result):
                c[f"{qualname}_bytes"] += os.path.getsize(args[0])

        return pre, post

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import qubitlab  # noqa: F401  (loads every layer module)
        import qubitlab.cli  # noqa: F401
        import qubitlab.serialize  # noqa: F401

        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"qubitlab.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrapped[id(obj)] = self._wrap(obj, layer, name)
        states = sys.modules["qubitlab.states"]
        for cls_name, methods in METHODS.items():
            cls = getattr(states, cls_name)
            for m in methods:
                self._patch(cls, m, self._wrap(getattr(cls, m), "states", f"{cls_name}.{m}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qubitlab" and not mod_name.startswith("qubitlab."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, name, wrapped[id(obj)])

    def _patch(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    # -- per-pass summaries ----------------------------------------------

    def take_pass(self) -> dict:
        """Raw sums for the spans recorded since the last call; keeps the spans."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        fn: dict[str, list[float]] = {}
        layer: dict[str, list[float]] = {}
        edges: Counter = Counter()
        for i in range(n):
            name = self.names[names[i]]
            lay = self.layer_of[names[i]]
            own_outer = lay_outer = True
            p = parents[i]
            if p >= 0:
                edges[f"{self.layer_of[names[p]]}->{lay}"] += 1
            while p >= 0:
                if names[p] == names[i]:
                    own_outer = False
                if self.layer_of[names[p]] == lay:
                    lay_outer = False
                p = parents[p]
            s = fn.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += dur[i] - child[i]
            s[2] += dur[i] if own_outer else 0.0
            t = layer.setdefault(lay, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += dur[i] - child[i]
            t[2] += dur[i] if lay_outer else 0.0
        raw = {
            "fn": fn,
            "layer": layer,
            "counters": {k: self.counters[k] for k in COUNTERS},
            "distinct_operators": len(self._operators),
            "max_qubits": self.max_qubits,
            "spans": n,
            "edges": dict(edges),
        }
        self.last_spans = {
            "names": list(self.names),
            "name": names,
            "parent": parents,
            "start": self.span_start,
            "end": self.span_end,
        }
        self.span_name, self.span_parent, self.span_start, self.span_end = [], [], [], []
        self.counters.clear()
        self.max_qubits = 0
        self._operators.clear()
        return raw


def merge(raws: list[dict]) -> dict:
    """Sum raw pass records, e.g. those of the CLI commands of one pass."""
    out = {"fn": {}, "layer": {}, "counters": Counter(), "distinct_operators": 0,
           "max_qubits": 0, "spans": 0, "edges": Counter()}
    for r in raws:
        for key in ("fn", "layer"):
            for name, (calls, self_s, total_s) in r[key].items():
                s = out[key].setdefault(name, [0, 0.0, 0.0])
                s[0] += calls
                s[1] += self_s
                s[2] += total_s
        out["counters"].update(r["counters"])
        out["edges"].update(r["edges"])
        out["distinct_operators"] += r["distinct_operators"]
        out["max_qubits"] = max(out["max_qubits"], r["max_qubits"])
        out["spans"] += r["spans"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(raw: dict) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics (value, unit) from one pass's raw sums."""
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        calls, self_s, total_s = raw["layer"].get(layer, (0, 0.0, 0.0))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.total_s"] = (total_s, "s")
        for f in TIMED[layer]:
            calls, self_s, total_s = raw["fn"].get(f"{layer}.{f}", (0, 0.0, 0.0))
            out[f"{layer}.{f}.calls"] = (calls, "count")
            out[f"{layer}.{f}.self_s"] = (self_s, "s")
            out[f"{layer}.{f}.total_s"] = (total_s, "s")
    c = raw["counters"]
    out["linalg.eigendecompose.dense_calls"] = (c["eig_dense_calls"], "count")
    out["linalg.eigendecompose.repeat_ratio"] = (
        _ratio(c["eig_calls"], raw["distinct_operators"]),
        "ratio",
    )
    out["linalg.eigh_flops_computed"] = (c["eigh_flops"], "flop")
    out["linalg.bytes_returned_computed"] = (c["bytes_returned"], "B")
    out["states.levels_generated"] = (c["level_misses"], "count")
    out["states.level_hit_ratio"] = (
        _ratio(c["level_hits"], c["level_hits"] + c["level_misses"]),
        "ratio",
    )
    out["states.max_qubits_materialised"] = (raw["max_qubits"], "qubit")
    out["states.entropy.factored_calls"] = (c["factored_entropy_calls"], "count")
    out["rtests.scan_mass_tests"] = (c["scan_mass_tests"], "count")
    out["rtests.terms_emitted"] = (c["terms_emitted"], "count")
    out["rtests.orders_exhausted"] = (c["orders_exhausted"], "count")
    out["rtests.term_yield"] = (_ratio(c["terms_emitted"], c["orders_requested"]), "ratio")
    out["rtests.state_weight.fallbacks"] = (c["state_weight_fallbacks"], "count")
    out["serialize.write_csv.bytes"] = (c["write_csv_bytes"], "B")
    out["serialize.dump_json.bytes"] = (c["dump_json_bytes"], "B")
    return out


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in emission order."""
    empty = {"fn": {}, "layer": {}, "counters": Counter(), "distinct_operators": 0,
             "max_qubits": 0}
    units = {name: unit for name, (_, unit) in derive(empty).items()}
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.wall_s"] = "s"
        units[f"cli.{cmd}.peak_rss_mb"] = "MB"
    for name in SETUP_METRICS:
        units[f"setup.{name}"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units
