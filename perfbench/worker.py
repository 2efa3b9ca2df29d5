"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py WORK_DIR PASS_DIR TRACE

Runs every op listed in WORK_DIR/inputs.json, one after another, timing
each with ``time.perf_counter``.  Before each op the library's in-process
caches are emptied, so no op inherits a group table from an earlier one.
A short fixed probe is timed before each op and after the last, so that
run.py can tell how fast the machine ran around each op.  Outputs that the
checker needs are gathered after the clock stops.  With TRACE=1 the calls
into groupflow's public functions are wrapped in spans.
Writes PASS_DIR/result.json.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import groupflow  # noqa: E402
from groupflow import cli, flows, groupleak, groups  # noqa: E402

import spans  # noqa: E402


def _cache_clearers() -> list:
    """cache_clear of every functools cache in the library."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "groupflow" or name.startswith("groupflow."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value.cache_clear
    return list(found.values())


def _group_op(spec: str, call):
    """The calls of `groupflow group-leakproof SPEC`, plus the leak witness."""
    G = groups.standard_group(spec)
    delta = groupleak.build_delta(G)
    verdict = groupleak.is_leakproof_group(G, delta=delta)
    factors = call("howell.invariant_factors", delta.invariant_factors)
    flow = None
    if not verdict.leakproof:
        _, flow = groupleak.witness_flow_from_kernel(delta, verdict.witness)
    return G, delta, verdict, factors, flow


def _group_outputs(G, delta, verdict, factors, flow) -> tuple[dict, dict]:
    """The checker's view of a group op, and its layer counts."""
    arrays = [getattr(delta, f.name) for f in dataclasses.fields(delta)]
    counts = {
        "groupleak.relation_rows": delta.ncols + len(delta.pair_rows),
        "groupleak.delta_bytes": sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)),
        "howell.pivots": len(delta.canonical.pivot_matrix()),
    }
    out = {
        "order": G.order,
        "leakproof": verdict.leakproof,
        "witness": None if verdict.leakproof else G.name(verdict.witness),
        "factors": [int(f) for f in factors],
        "flow_check": None,
    }
    if flow is not None:
        # re-certified here, not after a JSON round trip: flow_from_json cannot
        # read back element names of product groups such as "(x1*x2,1)"
        check = flows.detect_leak(flow)
        out["flow_check"] = [check.kind, None if check.value is None else G.name(check.value)]
    return out, counts


def _cli_argv(op: dict, work: Path, out_dir: Path) -> list[str]:
    graph = str(work / f"{op['graph']}.json")
    out = str(out_dir / f"{op['id']}.json")
    if op["cmd"] == "check-flow":
        # reads the flow that the preceding leak-witness op wrote
        return ["check-flow", str(out_dir / f"{op['id'] - 1}.json"), "--output", out]
    if op["cmd"] == "minor":
        return ["minor", graph, "--model", "k33minus", "--output", out]
    return [op["cmd"], graph, "--output", out]


def _probe() -> float:
    """Seconds taken by a fixed slice of dict, integer and small-array work,
    the mix the library runs; run.py scales op latencies by it."""
    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i % 7
    a = np.arange(64)
    for _ in range(150):
        a = (a * 3 + 1) % 1009
    return perf_counter() - start


def _run_op(op: dict, work: Path, out_dir: Path, call):
    if op["kind"] == "group":
        return _group_op(op["spec"], call)
    return cli.run(_cli_argv(op, work, out_dir))


def run_pass(work: Path, out_dir: Path, traced: bool) -> dict:
    manifest = json.loads((work / "inputs.json").read_text())
    clearers = _cache_clearers()
    tracer = spans.Tracer()
    call = tracer.call if traced else spans.untraced_call
    results = []
    counts = {name: 0 for name in spans.OP_COUNTS}
    # warm-up: the first op once, untimed, so no timed op pays the interpreter's
    # first-execution costs (the import itself is what setup_s measures); a
    # failure here shows again, and is recorded, when the op runs timed
    try:
        _run_op(manifest["ops"][0], work, out_dir, spans.untraced_call)
    except Exception:
        pass
    with spans.installed(tracer) if traced else nullcontext():
        for op in manifest["ops"]:
            for clear in clearers:
                clear()
            rec = {"id": op["id"], "exit": None, "error": None, "probe": _probe()}
            tracer.op = op["id"] if traced else None
            start = perf_counter()
            try:
                value = _run_op(op, work, out_dir, call)
                if op["kind"] == "cli":
                    rec["exit"] = value
            except Exception:
                value = None
                rec["error"] = traceback.format_exc()
            rec["t"] = perf_counter() - start
            tracer.op = None
            if rec["error"] is None:
                if op["kind"] == "group":
                    rec["out"], op_counts = _group_outputs(*value)
                    value = None         # free the decision before the next op runs
                    for name, n in op_counts.items():
                        peak = name == "groupleak.delta_bytes"
                        counts[name] = max(counts[name], n) if peak else counts[name] + n
                else:
                    out = out_dir / f"{op['id']}.json"
                    counts["jsonio.bytes_out"] += out.stat().st_size if out.exists() else 0
            results.append(rec)
    return {
        "ops": results,
        "final_probe": _probe(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counts": counts,
        "spans": tracer.spans,
    }


def main() -> None:
    work, out_dir, trace = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3] == "1"
    if not Path(groupflow.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        sys.exit(f"groupflow imported from {groupflow.__file__}, not from this checkout")
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_pass(work, out_dir, trace)
    (out_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
