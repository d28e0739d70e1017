"""The cfpdesign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere inside a checkout; the package is imported from its `src/`.
Each measurement runs in a fresh worker process (perfbench/worker.py) with
the BLAS and OpenMP thread counts set. With `--trace 0` the run measures
the end-to-end metrics: set-up time over several fresh interpreters, then
one untraced process that warms up and runs the workload's passes. With
`--trace 1` it runs the same passes twice, untraced and traced, and reports
the per-layer metrics and the tracing overhead. Every output is checked.
The last line of stdout is the result as one JSON object; the lines before
it repeat the metrics under the names the workload docs use, with the run's
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import GROUPS
from workloads import BLAS_THREADS, THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cfpdesign"

SETUP_PROBES = 6  # fresh interpreters besides the measuring one
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


class BenchError(RuntimeError):
    pass


def _worker(argv: list[str], deadline: float) -> dict:
    env = dict(os.environ, **{name: str(BLAS_THREADS) for name in THREAD_VARS})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(workload, seconds: int) -> int:
    """Passes that take about `seconds` at the reference speed, enough for a tail."""
    per_pass = len(workload.pass_ops(0))
    return max(math.ceil((TAIL_BEYOND + 1) / per_pass), round(seconds / workload.nominal_pass_s))


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(latencies)
    j = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (j + 1) / len(ordered), ordered[j]


def _class_medians(classes: list[str], latencies: list[float], passes: int) -> dict:
    """For each call class: its median latency over the run, and its calls per pass.

    A class is a (method, degree) cell; each pass makes the same calls, so
    medians over passes set aside the seconds-long slow spells of a shared
    machine that a plain mean would absorb.
    """
    by_class: dict[str, list[float]] = {}
    for name, seconds in zip(classes, latencies):
        by_class.setdefault(name, []).append(seconds)
    return {k: (statistics.median(v), len(v) // passes) for k, v in by_class.items()}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(seed: int, worker_env: dict) -> dict:
    sources = [path.read_bytes() for path in sorted(PACKAGE.glob("*.py"))]
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": hashlib.sha256(b"".join(sources)).hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **worker_env,
        "source_lines": sum(text.count(b"\n") for text in sources),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _worker_args(name: str, seed: int, seconds: int) -> list[str]:
    passes = _passes(WORKLOADS[name], seconds)
    return ["--workload", name, "--seed", str(seed), "--passes", str(passes)]


def _end_to_end(name: str, seed: int, seconds: int, deadline: float):
    common = _worker_args(name, seed, seconds)
    setups = [_worker(common + ["--mode", "setup"], deadline) for _ in range(SETUP_PROBES)]
    run = _worker(common + ["--mode", "measure"], deadline)
    latencies = run["latencies"]
    typical = _class_medians(run["classes"], latencies, run["passes"])
    percentile, tail = _tail(latencies)
    setup_samples = [s["setup_s"] for s in setups] + [run["setup_s"]]
    failed = run["failed"] + sum(not s["ok"] for s in setups)
    typical_pass_s = sum(median * count for median, count in typical.values())
    calls_per_pass = sum(count for _, count in typical.values())
    metrics = {
        "trials_per_s": _metric(calls_per_pass / typical_pass_s, "1/s"),
        "call_p50_s": _metric(statistics.median(m for m, _ in typical.values()), "s"),
        "call_tail_s": _metric(tail, "s"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
        "cfp_quality": _metric(run["quality"], "1"),
    }
    info = {
        "calls": len(latencies),
        "passes": run["passes"],
        "measured_s": run["wall_s"],
        "measured_calls_per_s": len(latencies) / run["wall_s"],
        "tail_percentile": percentile,
        "setup_samples": setup_samples,
        "fail_frac": failed / (run["attempted"] + len(setups)),
        "reference_checked": run["reference_checked"],
        **run["info"],
    }
    return metrics, run["attempted"] + len(setups), failed, info, run["env"]


def _per_layer(name: str, seed: int, seconds: int, deadline: float):
    common = _worker_args(name, seed, seconds)
    plain = _worker(common + ["--mode", "measure"], deadline)
    traced = _worker(common + ["--mode", "trace"], deadline)
    trace = traced["trace"]
    metrics = {}
    for group in GROUPS:
        g = trace["groups"].get(group, {"s": 0.0, "calls": 0, "self_s": 0.0})
        metrics[f"{group}.s"] = _metric(g["s"], "s")
        metrics[f"{group}.calls"] = _metric(g["calls"], "count")
        metrics[f"{group}.self_s"] = _metric(g["self_s"], "s")
        metrics[f"{group}.fp_warnings"] = _metric(trace["fp_warnings"].get(group, 0), "count")

    def count(group: str, key: str) -> int:
        return trace["groups"].get(group, {}).get("counts", {}).get(key, 0)

    metrics["design.select.pivot_row_ops"] = _metric(trace["pivot_row_ops"], "ops.computed")
    metrics["basis.eval_rows.rows"] = _metric(count("basis.eval_rows", "rows"), "rows.computed")
    metrics["elliptic.solve.points"] = _metric(count("elliptic.solve", "points"), "points.computed")
    metrics["lsq.solve.rows"] = _metric(count("lsq.solve", "rows"), "rows.computed")
    metrics["trace.wall_s"] = _metric(traced["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = _metric(plain["wall_s"], "s")
    metrics["trace.overhead_s"] = _metric(traced["wall_s"] - plain["wall_s"], "s")
    self_total = sum(g["self_s"] for g in trace["groups"].values())
    info = {
        "calls": len(traced["latencies"]),
        "self_time_sum_s": self_total,
        "self_time_coverage": self_total / traced["wall_s"],
        "other_groups": {
            k: v for k, v in trace["groups"].items() if k not in GROUPS
        },
        "fp_warnings_outside_spans": trace["fp_warnings"].get("outside", 0),
        "trace_file": traced["trace_file"],
    }
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    info["fail_frac"] = failed / attempted
    return metrics, attempted, failed, info, traced["env"]


def _report(name: str, args, metrics: dict, info: dict, env: dict) -> None:
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']!r} {m['unit']}")
    if name == "design_latency" and not args.trace:
        print(f"  design_p50_s = {metrics['call_p50_s']['value']!r} s")
        print(
            f"  design_tail_s = {metrics['call_tail_s']['value']!r} s "
            f"(p{info['tail_percentile']:.1f} of {info['calls']} requests)"
        )
    print("  info " + json.dumps(info, sort_keys=True))
    print("  env " + json.dumps(_provenance(args.seed, env), sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (PACKAGE / "cli.py").is_file():
        print(f"perfbench: no cfpdesign sources at {PACKAGE}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    measure = _per_layer if args.trace else _end_to_end
    try:
        metrics, attempted, failed, info, env = measure(
            args.workload, args.seed, args.seconds, deadline
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _report(args.workload, args, metrics, info, env)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
