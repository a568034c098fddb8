"""Spans around calls into geocycle's layers, recorded from outside.

Tracer.install replaces each traced function with a wrapper in every
geocycle module namespace that binds it (grassmann, cli, verify and others
import names directly, so patching the defining module alone would miss
their calls). A span is (name, start_ns, end_ns, parent span, op id,
outermost call of its function or not); spans stay in memory and are
written out when the run ends. A layer is a module;
its self time is the time in its spans not covered by child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# layer -> the public functions timed in it
TRACED = {
    "cli": ("main",),
    "arrangement": ("search_parameters", "build_family", "intersection_matrix"),
    "grassmann": ("intersect_flat_hyperplane", "translate", "flat_new",
                  "general_position", "stabilizer_sign_patterns"),
    "linalg": ("intersect", "rref", "restricted_definiteness", "mat_mul", "diagonalize_symmetric"),
    "lattices": ("eval_form",),
    "isometries": ("cartan_dieudonne", "isometry_from_matrix", "spinor_norm", "compose",
                   "reflection"),
    "obstructions": ("enumerate_roots",),
    "signs": ("pi_k_matrix",),
    "verify": ("check_sign_claim", "check_arrangement_pattern", "check_inequality_implies_empty",
               "check_stabilizer_claim", "check_spinor_norm", "check_root_enumeration",
               "check_lattice_classification", "check_exact_linear_algebra"),
}

# Functions whose returned values feed linalg.max_numerator_bits, and how
# to reach the Fractions in what they return.
_RESULT_ROWS = {
    "linalg.rref": lambda result: result[0],
    "linalg.intersect": lambda result: result.basis,
    "linalg.mat_mul": lambda result: result,
}


def _metric_table():
    """(metric, unit, how it is computed from one op's spans)."""
    rows = [("cli.self_ms", "ms", ("layer_self", "cli"))]

    def incl(layer, fn, metric=None):
        rows.append((metric or f"{layer}.{fn}_ms", "ms", ("incl", f"{layer}.{fn}")))

    def calls(layer, fn):
        rows.append((f"{layer}.{fn}_calls", "count", ("calls", f"{layer}.{fn}")))

    def layer_self(layer):
        rows.append((f"{layer}.self_ms", "ms", ("layer_self", layer)))

    incl("arrangement", "search_parameters")
    incl("arrangement", "build_family")
    rows.append(("arrangement.intersection_matrix_self_ms", "ms",
                 ("fn_self", "arrangement.intersection_matrix")))
    layer_self("arrangement")
    calls("grassmann", "intersect_flat_hyperplane")
    for fn in ("intersect_flat_hyperplane", "translate", "flat_new", "general_position",
               "stabilizer_sign_patterns"):
        incl("grassmann", fn)
    layer_self("grassmann")
    for fn in ("intersect", "rref", "restricted_definiteness", "mat_mul"):
        calls("linalg", fn)
        incl("linalg", fn)
    incl("linalg", "diagonalize_symmetric")
    rows.append(("linalg.max_numerator_bits", "bits", ("max_bits", None)))
    layer_self("linalg")
    calls("lattices", "eval_form")
    incl("lattices", "eval_form")
    layer_self("lattices")
    calls("isometries", "cartan_dieudonne")
    incl("isometries", "cartan_dieudonne")
    rows.append(("isometries.reflection_vectors", "count",
                 ("vectors", "isometries.cartan_dieudonne")))
    for fn in ("isometry_from_matrix", "spinor_norm", "compose", "reflection"):
        incl("isometries", fn)
    layer_self("isometries")
    calls("obstructions", "enumerate_roots")
    incl("obstructions", "enumerate_roots")
    layer_self("obstructions")
    incl("signs", "pi_k_matrix")
    layer_self("signs")
    for fn in TRACED["verify"]:
        incl("verify", fn, f"verify.{fn[len('check_'):]}_ms")
    rows.append(("trace.overhead_pct", "%", ("overhead", None)))
    return rows


METRICS = _metric_table()


class Tracer:
    def __init__(self, clock_ns=time.perf_counter_ns):
        self.clock_ns = clock_ns
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, op, outermost)
        self.hidden_ns: dict[int, int] = defaultdict(int)  # tracer work inside a span
        self.vectors: dict[int, int] = defaultdict(int)  # op -> reflection vectors
        self.bits: dict[int, int] = defaultdict(int)  # op -> largest numerator bits
        self.op = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- patching

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "geocycle" or k.startswith("geocycle.")]
        for layer, fns in TRACED.items():
            home = sys.modules[f"geocycle.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        rows_of = _RESULT_ROWS.get(name)
        inspect = rows_of is not None or name == "isometries.cartan_dieudonne"
        clock = self.clock_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            outermost = depth[name] == 0
            spans.append(None)
            stack.append(index)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op, outermost)
            if inspect:
                tracer._inspect(result, rows_of, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def _inspect(self, result, rows_of, parent) -> None:
        """Counters read from a returned value; their cost is charged to
        no layer."""
        start = self.clock_ns()
        if rows_of is None:
            self.vectors[self.op] += len(result)
        else:
            bits = max((abs(x.numerator).bit_length() for row in rows_of(result) for x in row
                        if isinstance(x, Fraction)), default=0)
            if bits > self.bits[self.op]:
                self.bits[self.op] = bits
        if parent >= 0:
            self.hidden_ns[parent] += self.clock_ns() - start

    # ------------------------------------------------------------ results

    def ops(self) -> dict[int, list[int]]:
        """op id -> indices of its spans, in the order they opened."""
        by_op: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span is not None:
                by_op[span[4]].append(i)
        return by_op

    def op_metrics(self, op: int, indices: list[int], factor: float) -> dict[str, float]:
        """Per-layer figures of one op, in normalised ms (wall ns times the
        op's normalisation factor) or in counts. A function's _ms counts its
        outermost calls only, so a recursive call is not counted twice."""
        ms = factor / 1e6
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        child_ns: dict[int, int] = defaultdict(int)
        for i in indices:
            name, start, end, parent, _, outermost = self.spans[i]
            calls[name] += 1
            if outermost:
                incl[name] += (end - start) * ms
            if parent >= 0:
                child_ns[parent] += end - start
        fn_self: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for i in indices:
            name, start, end = self.spans[i][:3]
            own = (end - start - child_ns[i] - self.hidden_ns[i]) * ms
            fn_self[name] += own
            layer_self[name.split(".", 1)[0]] += own
        out = {}
        for metric, _, (kind, key) in METRICS:
            if kind == "layer_self":
                out[metric] = layer_self[key]
            elif kind == "incl":
                out[metric] = incl[key]
            elif kind == "fn_self":
                out[metric] = fn_self[key]
            elif kind == "calls":
                out[metric] = calls[key]
            elif kind == "vectors":
                out[metric] = self.vectors[op]
            elif kind == "max_bits":
                out[metric] = self.bits[op]
        return out

    def write(self, path, op_labels: dict[int, str]) -> None:
        """One JSON line per op ({"op", "label"}), then one per span of it
        ({"span", "parent", "name", "start_ns", "end_ns"}, times on the
        clock that stops while reference samples run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for op, indices in sorted(self.ops().items()):
                fh.write(json.dumps({"op": op, "label": op_labels.get(op)}) + "\n")
                for i in indices:
                    name, start, end, parent, _, _ = self.spans[i]
                    fh.write(json.dumps({"span": i, "parent": parent, "name": name,
                                         "start_ns": start, "end_ns": end}) + "\n")
