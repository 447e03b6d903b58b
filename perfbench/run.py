"""pocfvs benchmark: run one workload (or all) and print its metrics.

Usage:
  python3 perfbench/run.py --workload explore-n8|verify-all|queries|all
                           --seed N --seconds S --trace 0|1 [--size smoke]

Every pass runs in fresh interpreters (worker.py), two replicas at once,
with POCFVS_LIMIT removed from their environment. Passes repeat until
``--seconds`` have elapsed, at least one; explore-n8 and verify-all are
longer than that, so they run once. ``setup_s`` is the median over several
set-up-only interpreters. With ``--trace 1`` one more pass runs under the
tracer and the result carries the per-layer metrics instead of the
end-to-end ones.

The full record (metadata, every metric with unit and sample count) is
printed before the last line and written to ``perfbench/out/``. The last
line is the JSON result: ``correct``, ``attempted``, ``failed`` and
``metrics``. Exits 1 when any answer is wrong, 2 when the benchmark cannot
run (no pocfvs sources, a crashed pass).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("explore-n8", "verify-all", "queries")
SETUP_PROBES = 9
OP_UNIT = {"explore-n8": "graphs", "verify-all": "criteria", "queries": "queries"}
TIMEOUT_S = 170
# Each pass runs as this many simultaneous replicas, one per core, and every
# operation keeps its fastest time. On a shared host the cores slow down
# independently (on a 2-vCPU Xeon VM, explore-n8 replicas side by side took
# 28.5 s and 24.8 s, then 30.6 s and 22.7 s), so the faster replica is the
# one that was not disturbed.
REPLICAS = max(1, min(2, os.cpu_count() or 1))


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "POCFVS_LIMIT"}
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders in every pass
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def worker(args: list[str]) -> dict:
    return replicas(args, 1)[0]


def replicas(args: list[str], count: int = REPLICAS) -> list[dict]:
    """Run ``count`` copies of one pass at once, each in its own interpreter."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    procs = [subprocess.Popen([*cmd, *(["--replica", str(k)] if count > 1 else [])], env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for k in range(count)]
    deadline = time.monotonic() + TIMEOUT_S
    try:
        out = []
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {stderr.strip()[-2000:]}")
            out.append(json.loads(stdout.strip().splitlines()[-1]))
        return out
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def metadata(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {"nproc": os.cpu_count(), "replicas": REPLICAS, "python": platform.python_version(), "cpu_model": cpu,
            "git_commit": commit or "unknown (not a git checkout)", "seed": seed}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    probes = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        probe = worker(base + ["--setup-only"])
        probes.append(time.perf_counter() - t)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes += replicas(base)
    if probe["query_digest"] != passes[0]["query_digest"]:
        raise RuntimeError("the same seed generated two different query lists")
    # An operation's latency is its fastest time over the passes and their
    # replicas: the work is deterministic and noise on a shared machine only
    # ever adds time (the rationale of timeit). wall_s is the sum of those
    # times, i.e. one pass without the noise.
    per_op_ms = [min(col) * 1e3 for col in zip(*(p["latencies"] for p in passes))]
    wall = sum(per_op_ms) / 1e3
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    e2e = {
        "wall_s": (wall, "s", len(passes)),
        "ops_per_s": (passes[0]["ops"] / wall, "1/s", passes[0]["ops"] * len(passes)),
        "op_p50_ms": (percentile(per_op_ms, 0.5), "ms", len(per_op_ms)),
        "op_p90_ms": (percentile(per_op_ms, 0.9), "ms", len(per_op_ms)),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB", len(passes)),
        "setup_s": (statistics.median(probes), "s", len(probes)),
    }
    record = {"workload": workload, "meta": {**metadata(seed), "query_digest": probe["query_digest"]},
              "op": OP_UNIT[workload], "pass_walls_s": [p["wall_s"] for p in passes],
              "latencies_s": [p["latencies"] for p in passes],
              "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
              "failures": failures[:20]}
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
        traced = min(replicas(base + ["--trace", "--spans", str(spans)]), key=lambda r: r["wall_s"])
        attempted += traced["attempted"]
        failures += traced["failures"]
        untraced = min(p["wall_s"] for p in passes)
        layers = traced["layers"]
        layers["trace_overhead_frac"] = traced["wall_s"] / untraced - 1
        layers["trace_root_coverage"] = traced["roots_s"] / untraced
        record["per_layer"] = layers
        record["trace"] = {"spans": traced["spans"], "spans_file": traced["spans_file"],
                           "traced_wall_s": traced["wall_s"], "roots_s": traced["roots_s"],
                           "absent": traced["absent"]}
        # the root spans must cover the traced pass, or time escapes the layers
        if traced["roots_s"] < 0.95 * traced["wall_s"]:
            raise RuntimeError(f"root spans cover {traced['roots_s']:.3f} s of a {traced['wall_s']:.3f} s pass")
    record.update(attempted=attempted, failed=len(failures), failed_frac=len(failures) / attempted)
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in record["end_to_end"].items()}
    record["result"] = {"correct": not failures, "attempted": attempted, "failed": len(failures),
                        "metrics": metrics}
    return record


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_ms"):
        return "ms"
    if last.endswith(("_ratio", "_frac", "coverage")):
        return "ratio"
    return "count"


def print_named(record: dict) -> None:
    """Each end-to-end metric under the name it has for this workload."""
    w, e2e = record["workload"], record["end_to_end"]
    names = {"explore-n8": {"ops_per_s": "graphs_per_s"}, "queries": {
        "ops_per_s": "queries_per_s", "op_p50_ms": "query_p50_ms", "op_p90_ms": "query_p90_ms"}}
    rows = [(names.get(w, {}).get(k, k), m) for k, m in e2e.items()]
    rows.append(("measured_wall_s", {"value": statistics.median(record["pass_walls_s"]), "unit": "s",
                                      "samples": len(record["pass_walls_s"])}))
    rows.append(("failed_frac", {"value": record["failed_frac"], "unit": "ratio", "samples": record["attempted"]}))
    for name, m in rows:
        print(f"{w:<11} {name:<14} {m['value']:>14.6f} {m['unit']:<6} samples={m['samples']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="smoke: tiny inputs for the benchmark's own test")
    args = ap.parse_args()
    if not (ROOT / "src" / "pocfvs" / "__init__.py").is_file():
        print(f"pocfvs sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    records = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.size)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"{workload}: benchmark error: {exc}", file=sys.stderr)
            return 2
        OUT.mkdir(exist_ok=True)
        (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        print_named(record)
        for failure in record["failures"]:
            print(f"{workload} WRONG: {failure}", file=sys.stderr)
        records.append(record)
    print(json.dumps({"record": records}))
    if args.workload == "all":
        last = {r["workload"]: r["result"] for r in records}
    else:
        last = records[0]["result"]
    print(json.dumps(last))
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
