#!/usr/bin/env python3
"""Record the reference outputs the oracle compares against.

Run once at the commit that defines the benchmark, from the repository
root: ``python3 perfbench/record.py``. It rewrites perfbench/golden.json.
Exact outputs are stored as SHA-256 digests, floating ones as full text.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

FLOATING = ("verify", "verify-link", "check cone-r4")


def main():
    golden = {}
    commands = workloads.README_COMMANDS + workloads.CATALOG_REPORTS + workloads.CATALOG_SOLVES
    for argv in commands:
        key = " ".join(argv)
        code, stdout = workloads.cli_in_process(argv)
        if code != 0:
            sys.exit(f"{key}: exit code {code}")
        if key.startswith(FLOATING):
            golden[key] = {"stdout": stdout}
        else:
            golden[key] = {"sha256": oracle.sha256(stdout), "bytes": len(stdout)}

    from gausslab.biharmonic import r4_obstruction
    from gausslab.cli import build_chart, load_config

    _, cfg = load_config(os.path.join("configs", "torus_link.json"))
    obstruction = r4_obstruction(build_chart(cfg))
    golden[oracle.R4_KEYS[1]] = {"stdout": json.dumps(obstruction.as_dict())}
    with open(oracle.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} outputs in {os.path.relpath(oracle.GOLDEN_PATH)}")


if __name__ == "__main__":
    main()
