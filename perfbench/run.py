#!/usr/bin/env python3
"""emstack benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload desk --seed 42 --seconds 40 --trace 0

Run from the root of a checkout.  Each repetition is a fresh process
(``worker.py``) that imports emstack from ``src``, runs the workload's
pipeline once from config load to the last output written, and checks
its outputs outside the timed region.  Repetitions continue until the
next one would overrun ``--seconds``, with at least three, and the
metrics are their medians.  Load is one process and a closed loop of
one client: the next repetition starts when the previous one has ended.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics: self time and calls of each wrapped layer, exact
counts, which must repeat across the traced repetitions, and the
tracing overhead.  Every metric is printed by name with its unit, then
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every output
was correct.

BLAS threads are pinned, to 1 by default, in every repetition's
environment before numpy loads.  On a shared 2-core machine one thread
is the steady choice: a desk forward pass over 64 samples takes 0.27 ms
at one thread but has 5-48 ms bursts at two, where the second thread
waits for a core.  ``--threads`` exists for the one-off comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # the command must end within 180 s
# counts that must read the same in every traced repetition of one seed
EXACT = (
    "simnet.forward.rows",
    "baselines.steering_rows.rows",
    "trainer.adam_step.calls",
    "simnet.propagation_mb",
    "cli.io.bytes",
)
UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "ml_estimates_per_s": "estimates/s",
    "peak_rss_mb": "MB",
    "test_rmse_m": "m",
    "ml_rmse_m": "m",
    "error_rate": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="emstack benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42, help="dataset seed (experiment.seed)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1, help="BLAS threads per repetition")
    return parser.parse_args(argv)


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_rep(args, env, rep: int, traced: bool, work: Path, timeout: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--out", str(work / f"rep{rep}"),
        # the dense-reference and gradient checks run once per command
        "--full-check", str(int(rep == 0)),
    ]
    if traced:
        traces = BENCH / ".out" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(traces / f"{args.workload}-seed{args.seed}-rep{rep}.jsonl")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition {rep} exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"repetition {rep} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["traced"] = traced
    return result


def run_reps(args, work: Path) -> list:
    """Traced runs alternate traced and untraced repetitions, starting
    traced, so both sides see the same drift of the machine."""
    env = worker_env(args.threads)
    reps = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        rep = len(reps)
        if rep and (elapsed + elapsed / rep > RUN_LIMIT_S
                    or (rep >= MIN_REPS and elapsed + elapsed / rep > args.seconds)):
            return reps
        traced = bool(args.trace) and rep % 2 == 0
        result = run_rep(args, env, rep, traced, work, max(1.0, RUN_LIMIT_S - elapsed))
        reps.append(result)
        if "error" in result:
            return reps


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list) -> dict:
    ml = [r for r in reps if r["estimates"]]
    return {
        "wall_s": median([r["wall_s"] for r in reps]),
        "setup_s": median([r["setup_s"] for r in reps]),
        "train_samples_per_s": median([r["train_samples"] / r["train_s"] for r in reps]),
        "ml_estimates_per_s": median([r["estimates"] / r["ml_s"] for r in ml]) if ml else None,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "test_rmse_m": statistics.fmean(reps[0]["test_rmse_m"]),
        "ml_rmse_m": reps[0]["ml_rmse_m"],
    }


def per_layer(traced: list, untraced: list, names: list) -> dict:
    """Per-layer metrics from the traced repetitions: medians of self
    time, call and row counts from the first, the overhead of tracing."""
    out = {}
    first = traced[0]
    for name in names:
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = median([r["layers"].get(layer, {}).get("self_s", 0.0) for r in traced])
        elif kind == "calls":
            out[name] = first["layers"].get(layer, {}).get("calls", 0)
        else:
            out[name] = first["counts"].get(name, 0)
    rows = first["counts"].get("baselines.steering_rows.rows", 0)
    out["baselines.steering_rows_per_estimate"] = rows / first["estimates"] if first["estimates"] else 0.0
    out["trace_overhead_frac"] = (
        median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in untraced]) - 1.0
    )
    return out


def exact_count_mismatches(traced: list) -> list:
    problems = []
    for name in EXACT:
        layer, _, kind = name.rpartition(".")
        values = [
            r["layers"].get(layer, {}).get("calls", 0) if kind == "calls" else r["counts"].get(name, 0)
            for r in traced
        ]
        if len(set(values)) > 1:
            problems.append(f"{name} differs between traced repetitions: {values}")
    return problems


def determinism_mismatches(reps: list) -> list:
    accuracy = {json.dumps([r["test_rmse_m"], r["ml_rmse_m"]]) for r in reps}
    if len(accuracy) > 1:
        return [f"repetitions of one seed disagree on accuracy: {sorted(accuracy)}"]
    return []


def mapping_lines(traced: list) -> list:
    """Shares behind the predicted mapping of layers to end-to-end
    metrics; informational, they do not gate the result."""

    def layer(name, key):
        return median([r["layers"].get(name, {}).get(key, 0.0) for r in traced])

    wall = median([r["wall_s"] for r in traced])
    setup = median([r["setup_s"] for r in traced])
    train = layer("trainer.train", "incl_s")
    fwd_bwd = median([r["forward_backward_in_train_s"] for r in traced])
    return [
        f"baselines.steering_rows share of wall_s: {layer('baselines.steering_rows', 'self_s') / wall:.3f}",
        f"simnet.forward+backward share of trainer.train: {fwd_bwd / train if train else 0.0:.3f}",
        f"nonlin.diode_activation share of setup_s: {layer('nonlin.diode_activation', 'incl_s') / setup:.3f}",
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "emstack" / "__init__.py").is_file():
        print(f"perfbench: no emstack sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = BENCH / ".out" / f"work-{os.getpid()}"
    try:
        reps = run_reps(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [r["error"] for r in reps if "error" in r]
    good = [r for r in reps if "error" not in r]
    for r in good:
        problems += r["failures"]
    attempted = sum(r["attempted"] for r in good) or 1
    failed = min(attempted, sum(r["failed"] for r in good) + (len(reps) - len(good)))

    metrics = {}
    if good:
        env = good[0]["env"]
        print(
            f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} reps={len(good)} "
            + " ".join(f"{k}={v}" for k, v in env.items())
        )
        problems += determinism_mismatches(good)
        traced = [r for r in good if r["traced"]]
        untraced = [r for r in good if not r["traced"]] or good
        e2e = end_to_end(untraced)
        e2e["error_rate"] = failed / attempted
        for name, value in e2e.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<44} {shown} {UNITS[name]}")
        print("  wall_s of each repetition (* traced): "
              + " ".join(f"{r['wall_s']:.3f}{'*' if r['traced'] else ''}" for r in good))
        metrics = e2e
        if args.trace:
            if len(traced) >= 2:
                problems += exact_count_mismatches(traced)
            else:
                problems.append("a traced run needs two traced repetitions")
            if traced:
                metrics = per_layer(traced, untraced, [m["name"] for m in wanted])
                units = {m["name"]: m["unit"] for m in wanted}
                for name, value in metrics.items():
                    print(f"  {name:<44} {value:.6g} {units[name]}")
                for line in mapping_lines(traced):
                    print(f"  {line}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)

    correct = not problems and bool(good)
    out = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in wanted
        if metrics.get(m["name"]) is not None
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
