#!/usr/bin/env python3
"""Records the artifact digests the benchmark checks outputs against.

    python3 perfbench/record_digests.py

Every workload publishes from one fixed synthetic universe whatever its
seed (the seed orders input rows, draws the serve key stream and schedule,
or names the run's directories), so each workload has one digest. This
runs every workload once for one second and writes the digest each run
prints into perfbench/digests.json. Re-record only for a change that is
meant to alter the published lists or .sibdb bytes.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["campaign", "publish-scale", "serve-reload"]


def digest(workload):
    done = subprocess.run(["python3", str(HERE / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True)
    found = re.search(r"^digest \S+ seed=\d+ ([0-9a-f]{16})$", done.stdout, re.M)
    if not found:
        sys.exit(f"{workload}: no digest\n{done.stdout}{done.stderr}")
    return found.group(1)


def main():
    digests = {workload: digest(workload) for workload in WORKLOADS}
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
