"""Layer tracing from outside the program.

`Tracer.install()` rebinds every reference to a traced keplersym function
that a keplersym module holds (module attributes, and functions stored in
module-level lists and dicts such as the verify suite tables) to a wrapper
that records a span.  A call from inside a layer into the same layer opens
no span (a nesting guard), so recursion such as `diff` calling `diff`, or
`flow` calling `vf_plane`, is charged to the outer span.  Spans are kept in
memory and aggregated, or written out, once at the end.

Self time of a span is its duration minus the durations of its child
spans; because of the nesting guard every child belongs to another layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict

MODULES = (
    "keplersym",
    "keplersym.expr",
    "keplersym.invariants",
    "keplersym.orbit",
    "keplersym.symmetry",
    "keplersym.kmaps",
    "keplersym.minkowski",
    "keplersym.theorems",
    "keplersym.verify",
    "keplersym.cli",
)

SUITES = ("symmetry", "duality", "invariants", "theorems", "maps")

CASES = (
    "vf_plane_closed_forms", "vf_dual_closed_forms", "commuting_square", "bracket_closure",
    "one_param_subgroup", "fixed_energy_quadric",
    "dual_curve_agreement", "parabolic_point_planes", "ellipse_pencil_counts",
    "fixed_e_i2_closed_form", "fixed_e_i1_zero", "fixed_m_flat", "fixed_e_elimination_gate",
    "type_ii_witness", "wunschmann_scan", "fixed_m_scan", "zero_energy_scan",
    "zero_energy_kepler_flat",
    "lambert_random", "lambert_exact_case", "four_vertices_fig12", "tait_kneser_fig12",
    "envelope_minor_axis", "envelope_energy", "envelope_energy_focus", "envelope_hooke",
    "newton_membership", "newton_conservation", "curved_quadric",
    "square_lines_flat", "square_zero_energy_flat", "flatten_m_collinear", "hill_embedding",
    "parabola_chart_law",
)

# (module, function) -> (layer, metric group).  Two functions may share a
# group: `evaluate_tracked` is reported under `evaluate`, `is_zero` under
# `max_residual`.
FUNCTIONS = {
    ("expr", "parse"): ("expr", "expr.parse"),
    ("expr", "diff"): ("expr", "expr.diff"),
    ("expr", "total_derivative"): ("expr", "expr.total_derivative"),
    ("expr", "evaluate"): ("expr", "expr.evaluate"),
    ("expr", "evaluate_tracked"): ("expr", "expr.evaluate"),
    ("expr", "max_residual"): ("expr", "expr.max_residual"),
    ("expr", "is_zero"): ("expr", "expr.max_residual"),
    **{("invariants", f): ("invariants", f"invariants.{f}") for f in (
        "i1", "i2", "wunschmann_residual", "fixed_m_ode", "fixed_e_ode",
        "central_3rd_order", "flatness_residual", "power_law_scan")},
    **{("orbit", f): ("orbit", f"orbit.{f}") for f in ("from_abc", "sample", "fit", "newton_flow")},
    **{("symmetry", f): ("symmetry", f"symmetry.{f}") for f in (
        "exp_map", "act_plane", "act_dual", "vf_plane", "vf_dual", "flow", "flow_dual")},
    **{("kmaps", f): ("kmaps", "kmaps.maps") for f in (
        "square", "flatten_m", "hill_embed", "repel_embed", "parabola_chart")},
    **{("kmaps", f): ("kmaps", "kmaps.duals") for f in (
        "square_line_image", "flatten_m_dual", "hill_dual", "reflect_dual_signed",
        "parabola_chart_dual")},
}
# every public function of these modules counts towards one layer-wide group
WHOLE_LAYERS = ("minkowski", "theorems")
# the vector-field calls that flow / flow_dual make, four per RK4 step
STEP_COUNTERS = {"flow": "rk4.vf_plane", "flow_dual": "rk4.vf_dual"}

GROUPS = list(dict.fromkeys(group for _, group in FUNCTIONS.values())) + list(WHOLE_LAYERS)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for group in GROUPS:
        out.append((f"{group}.calls", "count", "lower"))
        out.append((f"{group}.self_s", "s", "lower"))
        if group == "expr.max_residual":
            out += [("expr.tree_nodes", "count", "lower"), ("expr.dag_nodes", "count", "lower"),
                    ("expr.dag_share", "ratio", "lower")]
        elif group == "orbit.sample":
            out.append(("orbit.sample.points", "count", "lower"))
        elif group == "orbit.fit":
            out.append(("orbit.fit.points", "count", "lower"))
        elif group == "orbit.newton_flow":
            out += [("orbit.newton_flow.steps", "count", "lower"),
                    ("orbit.newton_flow.steps_per_s", "1/s", "higher")]
        elif group == "symmetry.act_plane":
            out.append(("symmetry.act_plane.chart_exits", "count", "lower"))
        elif group == "symmetry.flow":
            out.append(("symmetry.flow.steps", "count", "lower"))
        elif group == "symmetry.flow_dual":
            out += [("symmetry.flow_dual.steps", "count", "lower"),
                    ("symmetry.rk4_steps_per_s", "1/s", "higher")]
        elif group == "kmaps.duals":
            out.append(("kmaps.singular_rows", "count", "lower"))
    out += [(f"verify.suite.{s}.s", "s", "lower") for s in SUITES]
    out += [(f"verify.case.{c}.s", "s", "lower") for c in CASES]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


def expr_sizes(e) -> tuple[int, int]:
    """(tree nodes, structurally distinct nodes) of an expression.

    Walks the objects once, memoized by identity, and assigns each node a
    canonical id from its type, payload and children's canonical ids.
    """
    size: dict[int, int] = {}
    canon: dict[int, int] = {}
    keys: dict[tuple, int] = {}
    stack = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        nid = id(node)
        if nid in size:
            continue
        kids = _children(node)
        if kids and not expanded:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in size)
            continue
        key = (type(node).__name__, _payload(node), tuple(canon[id(k)] for k in kids))
        canon[nid] = keys.setdefault(key, len(keys))
        size[nid] = 1 + sum(size[id(k)] for k in kids)
    return size[id(e)], len(keys)


def _children(node) -> tuple:
    for attr in ("terms", "factors"):
        if hasattr(node, attr):
            return tuple(getattr(node, attr))
    if hasattr(node, "num"):
        return (node.num, node.den)
    if hasattr(node, "base"):
        return (node.base,)
    if hasattr(node, "arg"):
        return (node.arg,)
    return ()


def _payload(node):
    for attr in ("value", "exponent"):
        if hasattr(node, attr):
            v = getattr(node, attr)
            return (type(v).__name__, str(v))
    return getattr(node, "name", None)


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, group, label, start, end)
        self.stack: list[tuple[int, str]] = []  # open (span id, layer)
        self.op = 0  # id shared by the spans of one benchmark op
        self.paused = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self._installed: list[tuple] = []

    def now(self) -> float:
        """Clock that excludes the tracer's own bookkeeping pauses."""
        return time.perf_counter() - self.paused

    # ---------------------------------------------------------------- install
    def install(self) -> None:
        mods = {name: importlib.import_module(name) for name in MODULES}
        targets: dict[int, object] = {}
        for (short, fname), (layer, group) in FUNCTIONS.items():
            fn = getattr(mods[f"keplersym.{short}"], fname)
            targets[id(fn)] = self._wrap(fn, layer, group, fname)
        for short in WHOLE_LAYERS:
            mod = mods[f"keplersym.{short}"]
            for fname, fn in vars(mod).items():
                if (not fname.startswith("_") and callable(fn)
                        and getattr(fn, "__module__", None) == mod.__name__
                        and type(fn).__name__ == "function"):
                    targets[id(fn)] = self._wrap(fn, short, short, fname)
        verify = mods["keplersym.verify"]
        targets[id(verify.run_suite)] = self._wrap(verify.run_suite, "verify.suite", "verify.suite",
                                                   "run_suite", label_arg=True)
        for fname, fn in vars(verify).items():
            if fname.startswith("case_") and callable(fn):
                targets[id(fn)] = self._wrap(fn, "verify.case", "verify.case",
                                             fname.removeprefix("case_"))
        for mod in mods.values():
            self._rebind(vars(mod), targets)

    def _rebind(self, space: dict, targets: dict) -> None:
        for key, value in list(space.items()):
            if id(value) in targets:
                self._installed.append((space, key, value))
                space[key] = targets[id(value)]
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in targets:
                        self._installed.append((value, k, v))
                        value[k] = targets[id(v)]
                    elif isinstance(v, list):
                        self._rebind_list(v, targets)
            elif isinstance(value, list):
                self._rebind_list(value, targets)

    def _rebind_list(self, items: list, targets: dict) -> None:
        for i, v in enumerate(items):
            if id(v) in targets:
                self._installed.append((items, i, v))
                items[i] = targets[id(v)]

    def uninstall(self) -> None:
        for space, key, original in reversed(self._installed):
            space[key] = original
        self._installed.clear()

    # ------------------------------------------------------------------ spans
    def _wrap(self, fn, layer: str, group: str, fname: str, label_arg: bool = False):
        tracer = self
        step_counter = STEP_COUNTERS.get(fname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == layer:  # nested inside its own layer: no span
                if fname in ("vf_plane", "vf_dual"):
                    tracer.counts[f"rk4.{fname}"] += 1
                result = fn(*args, **kwargs)
                if fname in ("i1", "i2", "wunschmann_residual"):
                    tracer._sizes(result)
                return result
            sid = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            label = (args[0] if args else kwargs["suite"]) if label_arg else fname
            before = tracer.counts[step_counter] if step_counter else 0.0
            tracer.spans.append(None)
            stack.append((sid, layer))
            start = tracer.now()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer._on_error(fname, err)
                raise
            finally:
                end = tracer.now()
                stack.pop()
                tracer.spans[sid] = (sid, parent, tracer.op, group, label, start, end)
            if step_counter:
                # RK4 evaluates the field four times per step
                tracer.counts[f"symmetry.{fname}.steps"] += (tracer.counts[step_counter] - before) / 4
            tracer._on_result(fname, args, kwargs, result)
            return result

        return wrapper

    def _on_error(self, fname: str, err: Exception) -> None:
        if fname == "act_plane":
            self.counts["symmetry.act_plane.chart_exits"] += 1
        elif type(err).__name__ == "SingularRadiusError":
            self.counts["kmaps.singular_rows"] += 1

    def _on_result(self, fname, args, kwargs, result) -> None:
        if fname == "sample":
            self.counts["orbit.sample.points"] += len(result)
        elif fname == "fit":
            pts = args[0] if args else kwargs["points"]
            self.counts["orbit.fit.points"] += len(pts)
        elif fname == "newton_flow":
            self.counts["orbit.newton_flow.steps"] += len(result.t) - 1
        elif fname in ("i1", "i2", "wunschmann_residual"):
            self._sizes(result)

    def _sizes(self, e) -> None:
        t0 = time.perf_counter()
        tree, dag = expr_sizes(e)
        self.counts["expr.tree_nodes"] += tree
        self.counts["expr.dag_nodes"] += dag
        self.paused += time.perf_counter() - t0

    # ------------------------------------------------------------- aggregate
    def metrics(self, overhead_s: float) -> dict[str, float]:
        spans = [s for s in self.spans if s is not None]
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for sid, _, _, group, label, start, end in spans:
            if group.startswith("verify."):
                total[f"{group}.{label}.s"] += end - start
                continue
            calls[group] += 1
            self_s[group] += end - start - child_time[sid]
        out: dict[str, float] = {}
        c = self.counts
        for name, _, _ in per_layer_metrics():
            if name.endswith(".calls"):
                out[name] = calls[name.removesuffix(".calls")]
            elif name.endswith(".self_s"):
                out[name] = self_s[name.removesuffix(".self_s")]
            elif name.startswith("verify."):
                out[name] = total[name]
            elif name == "expr.dag_share":
                out[name] = c["expr.dag_nodes"] / c["expr.tree_nodes"] if c["expr.tree_nodes"] else 0.0
            elif name == "orbit.newton_flow.steps_per_s":
                busy = self_s["orbit.newton_flow"]
                out[name] = c["orbit.newton_flow.steps"] / busy if busy else 0.0
            elif name == "symmetry.rk4_steps_per_s":
                busy = self_s["symmetry.flow"] + self_s["symmetry.flow_dual"]
                steps = c["symmetry.flow.steps"] + c["symmetry.flow_dual.steps"]
                out[name] = steps / busy if busy else 0.0
            elif name == "trace.overhead_s":
                out[name] = overhead_s
            else:
                out[name] = c[name]
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                if s is not None:
                    sid, parent, op, group, label, start, end = s
                    fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": group,
                                         "label": label, "start": start, "end": end}) + "\n")
