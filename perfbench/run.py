"""groupflow benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Generates the workload's inputs from the
seed, times the import set-up in fresh interpreters, then runs passes of
the workload's fixed op set, each in a fresh worker process, until S
seconds have gone by.  With --trace 1 the passes alternate between
untraced and traced.  Outputs are checked after the last pass.  The last
line of standard output is the result object; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import gen
import spans

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, 'src'); "
                "import numpy, networkx, groupflow; print(time.perf_counter() - t)")
# The probe's median time on the machine BASELINE.json was measured on.  The
# latency of a CLI op is scaled by PROBE_REF_S / (median probe time of the
# 2 * PROBE_WINDOW + 2 probes around the op): a shared machine's speed drifts
# by +-20% over seconds, which moved raw wall_s by up to 1.8x between runs.
# A group decision of several seconds has probes only at its two ends, which
# say little about its middle, so group latencies stay raw.
PROBE_REF_S = 0.0012
PROBE_WINDOW = 10
BUDGET_S = 170          # every run ends within 180 s, build included
CHECK_RESERVE_S = 25    # kept back for checking the outputs


def _median(values):
    return statistics.median(values) if values else 0.0


def setup_seconds() -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Pass:
    def __init__(self, index: int, traced: bool, out_dir: Path):
        self.index, self.traced, self.out_dir = index, traced, out_dir
        self.result = None        # the worker's result.json
        self.error = None         # why the worker gave no result
        self.digests: dict[int, str] = {}

    @property
    def op_seconds(self) -> float:
        return sum(op["t"] for op in self.result["ops"])


def run_pass(work: Path, p: Pass, timeout: float, calibrate: bool) -> None:
    argv = [sys.executable, str(HERE / "worker.py"), str(work), str(p.out_dir),
            "1" if p.traced else "0"]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        p.error = f"worker timed out after {timeout:.0f} s"
        return
    result_file = p.out_dir / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        p.error = f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return
    p.result = json.loads(result_file.read_text())
    probes = [op["probe"] for op in p.result["ops"]] + [p.result["final_probe"]]
    for i, op in enumerate(p.result["ops"]):
        around = probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 2]
        op["t_cal"] = op["t"] * PROBE_REF_S / statistics.median(around) if calibrate else op["t"]
    for op in p.result["ops"]:
        h = hashlib.sha256(json.dumps([op["exit"], op.get("out")], sort_keys=True).encode())
        out = p.out_dir / f"{op['id']}.json"
        if out.exists():
            h.update(out.read_bytes())
        p.digests[op["id"]] = h.hexdigest()


def check_first(manifest: dict, work: Path, p: Pass) -> dict[int, str]:
    """Full check of one pass: op id -> reason, for every op that failed."""
    import check  # imports groupflow, so only once src/ is on the path

    failures = {}
    for op, rec in zip(manifest["ops"], p.result["ops"]):
        if rec["error"]:
            failures[op["id"]] = "exception: " + rec["error"].strip().splitlines()[-1]
            continue
        try:
            if op["kind"] == "group":
                reason = check.check_group_op(op, rec["out"])
            else:
                reason = check.check_cli_op(op, rec["exit"], work, p.out_dir)
        except Exception:
            reason = "checker: " + traceback.format_exc().strip().splitlines()[-1]
        if reason:
            failures[op["id"]] = reason
    return failures


def op_medians(passes: list[Pass], key: str = "t") -> list[float]:
    """Each op's latency (raw "t" or calibrated "t_cal") as its median over the
    passes; this drops the bursts of a shared machine that hit one pass only."""
    if not passes:
        return []
    return [statistics.median(p.result["ops"][i][key] for p in passes)
            for i in range(len(passes[0].result["ops"]))]


def quantile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def weighted_quantile_ms(values: list[float], q: int) -> float:
    """The smallest value v such that values <= v hold q% of the sum."""
    target, total = sum(values) * q / 100, 0.0
    for v in sorted(values):
        total += v
        if total >= target:
            return v * 1e3
    return max(values) * 1e3


def end_to_end(ops: list[dict], untraced: list[Pass], setup: list[float]) -> dict:
    per_op = op_medians(untraced, "t_cal")
    if ops[0]["kind"] == "cli":
        # a request is the CLI calls made for one graph, one after another
        requests: dict[str, float] = {}
        for op, t in zip(ops, per_op):
            requests[op["graph"]] = requests.get(op["graph"], 0.0) + t
        samples, quantile = list(requests.values()), quantile_ms
    else:
        # A group workload's 5 or 7 decisions differ in cost by three orders
        # of magnitude; its median decision is a short one, seen at two or
        # three moments of a run, too few for a steady figure on a shared
        # machine.  So each decision is weighted by its latency, and both
        # percentiles land in the decision that holds that share of the time.
        samples, quantile = per_op, weighted_quantile_ms
    probes = [op["probe"] for p in untraced for op in p.result["ops"]]
    print(f"latency samples: {len(samples)}, each the median of {len(untraced)} passes; "
          f"setup runs: {len(setup)}; uncalibrated wall_s {sum(op_medians(untraced)):.4f}; "
          f"median probe {_median(probes) * 1e3:.4f} ms (reference {PROBE_REF_S * 1e3} ms)")
    return {
        "wall_s": sum(per_op),
        "op_p50_ms": quantile(samples, 50) if samples else 0.0,
        "op_p95_ms": quantile(samples, 95) if samples else 0.0,
        "peak_rss_mb": _median([p.result["maxrss_kb"] / 1024 for p in untraced]),
        "setup_s": _median(setup),
    }


def per_layer(names: list[str], untraced: list[Pass], traced: list[Pass], work: Path) -> dict:
    reduced = [spans.reduce_pass(p.result["spans"], p.op_seconds) | p.result["counts"]
               for p in traced]
    wall = sum(op_medians(untraced))
    derived = {
        # within each traced pass, so the drift between passes stays out
        "cli.overhead_s": _median([p.op_seconds - r["root_spans_s"]
                                   for p, r in zip(traced, reduced)]),
        "trace.overhead_pct": 100.0 * (sum(op_medians(traced)) - wall) / wall if wall else 0.0,
    }
    metrics = {name: derived[name] if name in derived else _median([r[name] for r in reduced])
               for name in names}
    layer_self = {}
    for r in reduced:
        for layer, t in r["layer_self_s"].items():
            layer_self.setdefault(layer, []).append(t)
    print("self time per layer (s, median of traced passes):",
          json.dumps({k: round(_median(v), 4) for k, v in sorted(layer_self.items())}))
    (work / "spans.json").write_text(json.dumps([p.result["spans"] for p in traced]))
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_begin = perf_counter()

    if not (ROOT / "src" / "groupflow" / "__init__.py").is_file():
        print("perfbench: run from the root of a groupflow checkout (no src/groupflow here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in gen.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(gen.WORKLOADS)}",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = ROOT / ".perfbench-work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    manifest = gen.generate(args.workload, args.seed, work / "inputs")
    print("inputs:", json.dumps(manifest["properties"]))

    setup = [] if args.trace else setup_seconds()

    passes: list[Pass] = []
    t0 = perf_counter()
    while True:
        n_untraced = sum(not p.traced for p in passes)
        traced = bool(args.trace) and n_untraced > len(passes) - n_untraced
        p = Pass(len(passes), traced, work / f"pass{len(passes)}")
        remaining = BUDGET_S - CHECK_RESERVE_S - (perf_counter() - t_begin)
        run_pass(work / "inputs", p, timeout=max(remaining, 10.0),
                 calibrate=manifest["ops"][0]["kind"] == "cli")
        passes.append(p)
        if p.index > 0:           # pass 0 is checked in full below; the rest by digest
            shutil.rmtree(p.out_dir, ignore_errors=True)
        if p.error:
            break
        have_all = any(not q.traced for q in passes) and (
            not args.trace or any(q.traced for q in passes))
        next_end = perf_counter() - t_begin + (perf_counter() - t0) / len(passes)
        if have_all and (perf_counter() - t0 >= args.seconds
                         or next_end > BUDGET_S - CHECK_RESERVE_S):
            break

    # -- correctness, outside every timed region -------------------------------
    ops = manifest["ops"]
    failures: dict[tuple[int, int], str] = {}
    good = [p for p in passes if p.result]
    first = next((p for p in good if not p.traced), None)
    reference = {}
    if first:
        reasons = check_first(manifest, work / "inputs", first)
        reference = {op_id: d for op_id, d in first.digests.items() if op_id not in reasons}
        failures.update({(first.index, i): r for i, r in reasons.items()})
    for p in passes:
        if p is first:
            continue
        for op in ops:
            if p.error:
                failures[(p.index, op["id"])] = p.error
            elif p.digests.get(op["id"]) != reference.get(op["id"]):
                failures[(p.index, op["id"])] = "output differs from the checked pass"
    attempted = len(ops) * len(passes)

    # -- metrics -----------------------------------------------------------------
    untraced = [p for p in good if not p.traced]
    traced = [p for p in good if p.traced]
    if args.trace:
        metrics = per_layer(list(units), untraced, traced, work)
    else:
        metrics = end_to_end(ops, untraced, setup)
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; ops per pass: {len(ops)}")
    print(f"fail_rate: {len(failures) / attempted:.4f} ({len(failures)} of {attempted} ops)")
    for (pass_index, op_id), reason in sorted(failures.items())[:10]:
        print(f"FAILED pass {pass_index} op {op_id} {json.dumps(ops[op_id])}: {reason}")
    shutil.rmtree(passes[0].out_dir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
