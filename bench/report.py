"""Run every workload once and print all end-to-end metrics in one table.

    python3 bench/report.py [--seed N] [--seconds S]

Each workload runs in its own process through run.py with tracing off.
`failed_ops_frac` is printed with its count; BENCHMARK.json carries its
complement `ok_ops_frac`, which is never 0.
"""

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)
    code = 0
    print("%-14s %-16s %14s %s" % ("workload", "metric", "value", "unit"))
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%-14s failed with exit code %d: %s"
                  % (workload, proc.returncode, proc.stderr.strip()[-500:]))
            code = 1
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            print("%-14s %-16s %14.6g %s" % (workload, name, metric["value"], metric["unit"]))
        print("%-14s %-16s %14.6g ratio (%d of %d ops)"
              % (workload, "failed_ops_frac", result["failed"] / result["attempted"],
                 result["failed"], result["attempted"]))
        if not result["correct"]:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
