"""Set-up probe: one fresh interpreter doing a workload's set-up, so that
set-up time includes the import every user call pays.

Usage, from the repository root: python3 perfbench/probe.py WORKLOAD SEED
Prints one JSON line with the import time and the construction time.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    inputs = workloads.make_inputs(workload, seed)
    golden = oracle.load_golden()
    t0 = time.perf_counter()
    import gausslab.cli  # noqa: F401
    t1 = time.perf_counter()
    workloads.build(workload, inputs, os.getcwd(), golden)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


if __name__ == "__main__":
    main()
