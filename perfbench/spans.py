"""Spans around calls into groupflow's public functions, and their reduction
to per-layer metrics.

The wrappers are installed from outside the library: every module attribute
that is bound to a traced function is rebound to a wrapper for the length of
one pass, so calls between modules (``groupleak`` calling
``groups.abelian_basis``) and within one (``euler_planar_check`` calling
``faces``) are both seen.  A span is ``[name, start, end, parent, op, tag]``;
``tag`` carries a fact about the result where a metric needs one.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, function) -> how to tag its result; the span name is "<module>.<function>"
TRACED = {
    ("groups", "standard_group"): None,
    ("groups", "maximal_abelian_subgroups"): len,
    ("groups", "abelian_basis"): None,
    ("groupleak", "build_delta"): None,
    ("groupleak", "is_leakproof_group"): None,
    ("groupleak", "phi"): None,
    ("groupleak", "witness_flow_from_kernel"): None,
    ("planar", "test_planarity"): lambda r: type(r).__name__ == "RotationSystem",
    ("planar", "extra_planar"): None,
    ("planar", "euler_planar_check"): None,
    ("planar", "faces"): None,
    ("graphs", "verify_minor"): None,
    ("graphs", "find_minor"): None,
    ("flows", "synthesize_leaking_flow"): None,
    ("flows", "detect_leak"): None,
    **{("jsonio", f): None for f in (
        "graph_from_json", "graph_from_text", "rotation_from_json", "witness_from_json",
        "flow_from_json", "graph_to_json", "rotation_to_json", "witness_to_json",
        "flow_to_json", "leak_verdict_to_json", "dumps")},
}

PARSE = {f"jsonio.{f}" for f in ("graph_from_json", "graph_from_text", "rotation_from_json",
                                 "witness_from_json", "flow_from_json")}
EMIT = {f"jsonio.{f}" for f in ("graph_to_json", "rotation_to_json", "witness_to_json",
                                "flow_to_json", "leak_verdict_to_json", "dumps")}

# metric -> span name; the metric is the summed duration of the outermost such spans
INCLUSIVE = {
    "groups.table_build_s": "groups.standard_group",
    "groups.max_abelian_s": "groups.maximal_abelian_subgroups",
    "groups.abelian_basis_s": "groups.abelian_basis",
    "groupleak.build_delta_s": "groupleak.build_delta",
    "groupleak.phi_scan_s": "groupleak.is_leakproof_group",
    "groupleak.witness_s": "groupleak.witness_flow_from_kernel",
    "howell.invariant_factors_s": "howell.invariant_factors",
    "planar.extra_planar_s": "planar.extra_planar",
    "planar.euler_check_s": "planar.euler_planar_check",
    "planar.faces_s": "planar.faces",
    "graphs.verify_minor_s": "graphs.verify_minor",
    "graphs.find_minor_s": "graphs.find_minor",
    "flows.synthesize_s": "flows.synthesize_leaking_flow",
    "flows.detect_leak_s": "flows.detect_leak",
}

# counts the ops report from the benchmark's own code, summed per pass
# (groupleak.delta_bytes is a peak, so it takes the pass maximum)
OP_COUNTS = ("groupleak.relation_rows", "groupleak.delta_bytes", "howell.pivots",
             "jsonio.bytes_out")


class Tracer:
    """Collects spans in memory; ``op`` is the id of the op being run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def call(self, name: str, fn, *args, tag=None, **kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if tag is not None:
            span[5] = tag(result)
        return result

    def wrap(self, name: str, fn, tag=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:          # outside an op: the worker's own bookkeeping
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, tag=tag, **kwargs)
        return traced


def untraced_call(name: str, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced function in every loaded groupflow module."""
    modules = [m for name, m in sys.modules.items()
               if name == "groupflow" or name.startswith("groupflow.")]
    undo = []
    for (mod, fn_name), tag in TRACED.items():
        original = getattr(sys.modules[f"groupflow.{mod}"], fn_name)
        wrapper = tracer.wrap(f"{mod}.{fn_name}", original, tag)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    undo.append((m, attr, original))
    try:
        yield tracer
    finally:
        for m, attr, original in reversed(undo):
            setattr(m, attr, original)


# -- reduction --------------------------------------------------------------------


def _has_ancestor(spans, span, name) -> bool:
    parent = span[3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def reduce_pass(spans: list[list], op_seconds: float) -> dict:
    """Per-layer metrics of one traced pass whose ops took ``op_seconds``."""
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child_time[s[3]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child_time)]

    out = {metric: 0.0 for metric in INCLUSIVE}
    by_name = {name: metric for metric, name in INCLUSIVE.items()}
    for i, s in enumerate(spans):
        metric = by_name.get(s[0])
        if metric and not _has_ancestor(spans, s, s[0]):
            out[metric] += dur[i]

    def spans_named(name):
        return [s for s in spans if s[0] == name]

    extra = spans_named("planar.extra_planar")
    lr_in_extra = sum(1 for s in spans_named("planar.test_planarity")
                      if s[3] is not None and spans[s[3]][0] == "planar.extra_planar")
    top_lr = [(s, dur[i]) for i, s in enumerate(spans)
              if s[0] == "planar.test_planarity" and s[3] is None]
    out.update({
        "groups.max_abelian_count": sum(s[5] for s in
                                        spans_named("groups.maximal_abelian_subgroups")),
        "groupleak.elements_scanned": len(spans_named("groupleak.phi")),
        "howell.absorb_s": (out["groupleak.build_delta_s"] - out["groups.max_abelian_s"]
                            - out["groups.abelian_basis_s"]),
        "planar.extra_pairs_tested": lr_in_extra - len(extra),
        "planar.extra_planar_share": out["planar.extra_planar_s"] / op_seconds,
        "planar.certify_planar_s": sum(d for s, d in top_lr if s[5]),
        "planar.certify_nonplanar_s": sum(d for s, d in top_lr if not s[5]),
        "jsonio.parse_s": sum(t for s, t in zip(spans, self_time) if s[0] in PARSE),
        "jsonio.emit_s": sum(t for s, t in zip(spans, self_time) if s[0] in EMIT),
        "root_spans_s": sum(d for s, d in zip(spans, dur) if s[3] is None),
    })
    layer_self: dict[str, float] = {}
    for s, t in zip(spans, self_time):
        layer = s[0].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t
    out["layer_self_s"] = layer_self
    return out
