"""One workload process: import cfpdesign, warm up, run passes, check outputs.

run.py starts this script once per measurement, with the BLAS and OpenMP
thread counts already set in its environment, and reads the JSON object it
prints as its last line. Modes:

    setup    import cfpdesign and make the workload's first call, then stop
    measure  also warm up, run the passes untraced and check every output
    trace    the same passes with every layer's public functions wrapped
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import THREAD_VARS, WORKLOADS, Result, pass_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench"


def _environment(cfpdesign, np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_info = "unknown"
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "all_size": len(cfpdesign.__all__),
    }


def call(cli, op, tracer=None, index: int = -1):
    """One in-process command-line call; returns a Result holding its stdout."""
    if tracer is not None:
        tracer.op = index
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
    except Exception:  # a crash is a failed operation; the run goes on
        seconds = perf_counter() - start
        return Result(op, seconds, False, error=traceback.format_exc(limit=3))
    seconds = perf_counter() - start
    if code != 0:
        return Result(op, seconds, False, error=f"exit code {code}")
    return Result(op, seconds, True, parsed=out.getvalue())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy

    import cfpdesign
    import cfpdesign.cli as cli

    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    warmup = workload.pass_ops(pass_seed(0, 0))
    first = call(cli, warmup[0])
    setup_s = perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "ok": first.ok}))
        return 0

    warm = [first] + [call(cli, op) for op in warmup[1:]]
    values = workload.value_records(cfpdesign)
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install(cfpdesign)
    ops = [op for p in range(args.passes) for op in workload.pass_ops(pass_seed(args.seed, p))]
    start = perf_counter()
    measured = [call(cli, op, tracer, i) for i, op in enumerate(ops)]
    wall_s = perf_counter() - start

    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    for r in warm + measured:
        if not r.ok:
            continue
        try:
            r.parsed = workload.check(r.op, r.parsed, reference.get(r.op.key))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            r.ok, r.error = False, f"{type(exc).__name__}: {exc}"
    summary = workload.finish(measured)
    failed = [r for r in warm + measured if not r.ok]
    for r in failed[:5]:
        print(f"failed: {r.op.key}: {r.error}", file=sys.stderr)
    value_failures = 0
    for key, got in values.items():
        try:
            workload.compare_values(got, reference[key])
        except ValueError as exc:
            value_failures += 1
            print(f"failed: {key}: {exc}", file=sys.stderr)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies": [r.seconds for r in measured],
        "classes": [f"{op.method}:{op.degree}" for op in ops],
        "passes": args.passes,
        "attempted": len(warm) + len(measured) + len(values),
        "failed": len(failed) + value_failures,
        "reference_checked": sum(r.op.key in reference for r in warm + measured) + len(values),
        "quality": summary["cfp_quality"],
        "info": summary["info"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(cfpdesign, np, scipy),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace_{workload.name}_seed{args.seed}.json"
        tracer.write(path, [list(op.argv) for op in ops])
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
