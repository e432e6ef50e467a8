#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload desk --seeds 1 2 3 4 5 [--json out.json]

For every metric of the last JSON line it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median: the run-to-run spread that each
end-to-end bound in BENCHMARK.json must stay well above.  Extra
arguments after ``--`` go to ``run.py`` unchanged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark spread over seeds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", type=Path, help="also write the summary here")
    parser.add_argument("extra", nargs="*", help="arguments passed on to run.py")
    args = parser.parse_args(argv)

    values, failures = {}, []
    for seed in args.seeds:
        cmd = [
            sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace, *args.extra,
        ]
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            failures.append(seed)
            print(proc.stderr, file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "failed_seeds": failures, "metrics": {}}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread, "values": vals}
        print(f"{name:<44} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  iqr/median {spread:.4f}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
