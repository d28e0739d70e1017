"""Record the outputs of pass 0 at seed 0 of every workload in reference.json.

    python3 perfbench/capture_reference.py

The benchmark compares every call it makes at seed 0 with these records, so
capture them only at a commit whose outputs are known to be right.
"""

import json
import os
import sys

from workloads import BLAS_THREADS, THREAD_VARS, WORKLOADS, pass_seed

for name in THREAD_VARS:
    os.environ[name] = str(BLAS_THREADS)

from worker import HERE, ROOT, call  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import cfpdesign
    import cfpdesign.cli as cli

    records = {}
    for name, workload in WORKLOADS.items():
        records[name] = {}
        for op in workload.pass_ops(pass_seed(0, 0)):
            result = call(cli, op)
            if not result.ok:
                raise SystemExit(f"{op.key}: {result.error}")
            records[name][op.key] = workload.reference_record(result.parsed)
        records[name].update(workload.value_records(cfpdesign))
    path = HERE / "reference.json"
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, records.values()))} records to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
