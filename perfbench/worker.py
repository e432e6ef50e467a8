"""One repetition of a benchmark workload, in a fresh process.

Runs the workload's pipeline through the public functions of
``emfield``, ``nonlin``, ``simnet``, ``trainer``, ``baselines`` and
``cli``, timing it from config load to the last output written, then
checks the outputs outside the timed region.  Prints one JSON object as
the last line of standard output.  ``run.py`` starts this script with
the BLAS thread count pinned in its environment and ``src`` on
``PYTHONPATH``; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from emstack import baselines, cli, emfield, simnet, trainer

from tracing import Recorder
from workloads import WORKLOADS

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Relative tolerance of the default-seed accuracy reference.  Runs are
# bit-identical on one machine; this leaves room for last-bit
# differences in BLAS kernels across CPUs, amplified by training.
REFERENCE_RTOL = 1e-4
DENSE_FORWARD_RTOL = 1e-9
GRADIENT_CHECK_MAX = 1e-4
PROBE_BATCH = 8


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def train_config(cfg, seed: int) -> trainer.TrainConfig:
    t = cfg["training"]
    return trainer.TrainConfig(
        learning_rate=t["learning_rate"],
        bias_learning_rate=t["bias_learning_rate"],
        beta1=t["beta1"],
        beta2=t["beta2"],
        epsilon=t["epsilon"],
        batch_size=t["batch_size"],
        epochs=t["epochs"],
        patience=t["patience"],
        seed=seed,
    )


def propagation_mb(propagation) -> float:
    """Unique ndarray bytes held by a propagation object, in MB."""
    seen, pending = {}, [propagation]
    while pending:
        item = pending.pop()
        if isinstance(item, np.ndarray):
            seen[(item.__array_interface__["data"][0], item.nbytes)] = item.nbytes
        elif isinstance(item, (tuple, list)):
            pending.extend(item)
        elif hasattr(item, "__dict__"):
            pending.extend(vars(item).values())
    return sum(seen.values()) / 1e6


def run_pipeline(spec: dict, seed: int, out_dir: Path, rec: Recorder) -> dict:
    """The timed region: config load to the last output written."""
    start = perf_counter()
    cfg = cli.load_config(
        cli.load_preset(spec["preset"]), {**spec["overrides"], "experiment.seed": seed}
    )
    with rec.phase("setup"):
        geometry = cli.build_geometry(cfg)
        propagation = simnet.compute_propagation(geometry)
        dataset = cli.build_dataset(cfg, geometry)
    trainings = []
    for train_seed in cfg["training"]["seeds"]:
        with rec.phase("setup"):
            model = cli.build_model(cfg, geometry, propagation, dataset, train_seed)
        with rec.phase("train"):
            result = trainer.train(model, dataset, train_config(cfg, train_seed))
        test = trainer.evaluate(result.best_model, dataset, dataset.split.test)
        with rec.phase("io"):
            simnet.save_checkpoint(
                out_dir / f"model-{train_seed}.json",
                result.best_model,
                extra={"test_rmse_m": test.rmse, "seed": train_seed},
            )
            cli.write_records_csv(out_dir / f"records-{train_seed}.csv", cfg, test.records)
            history = result.history
            cli.svg_plot(
                out_dir / f"history-{train_seed}.svg",
                [("validation RMSE", [h.epoch for h in history], [h.val_rmse for h in history])],
                "epoch",
                "RMSE [m]",
            )
        trainings.append((result, test))

    ml = None
    if spec["matched_filter_samples"]:
        sc, ex = cfg["scenario"], cfg["experiment"]
        bounds = (sc["r_min_m"], sc["r_max_m"])
        theta_max = np.deg2rad(sc["theta_max_deg"])

        def estimator(field):
            return baselines.ml_estimate_two_stage(
                field, geometry, bounds, theta_max, ex["ml_coarse"], ex["ml_refine"]
            )

        with rec.phase("ml"):
            ml = baselines.evaluate_ml(dataset, geometry, ml_indices(spec, dataset), estimator)
        with rec.phase("io"):
            cli.write_records_csv(out_dir / "ml_records.csv", cfg, ml.records)

    wall = perf_counter() - start
    return {
        "propagation": propagation,
        "dataset": dataset,
        "trainings": trainings,
        "ml": ml,
        "wall_s": wall,
    }


def dense_reference_output(model: simnet.SimModel, fields) -> np.ndarray:
    """Forward pass with the coupling built directly from the
    Rayleigh-Sommerfeld matrices, one plain matrix product per plane."""
    g = model.geometry
    x = np.asarray(fields, dtype=complex)
    for i, layer in enumerate(model.layers):
        if i:
            x = x @ emfield.rayleigh_sommerfeld_matrix(g, i, i + 1).entries.T
        if isinstance(layer, simnet.LinearLayer):
            x = np.exp(1j * layer.phases) * x
        else:
            x = layer.activation.apply(x, layer.biases)
    return x @ emfield.rayleigh_sommerfeld_matrix(g, g.num_layers, emfield.OUTPUT_ARRAY).entries.T


def ml_indices(spec: dict, dataset) -> np.ndarray:
    return dataset.split.test[: spec["matched_filter_samples"]]


def centroid_rmse(dataset, indices) -> float:
    truth = dataset.position_matrix(indices)
    return trainer.position_rmse(np.broadcast_to(truth.mean(axis=0), truth.shape), truth)


def gradient_error(model: simnet.SimModel, fields, loss, seed: int) -> float:
    """Worst finite-difference error over the phases and the biases.

    Each group is checked on its own with a step suited to its scale:
    biases at paper scale are a few microvolts, below the 1e-6 phase
    step.  A knee of the relu-fit activation inside the difference
    interval spoils one step size but not a ten times smaller one, while
    a wrong gradient fails at both, so a group's error is the smaller
    of the two."""
    worst = 0.0
    for group in (simnet.LinearLayer, simnet.NonlinearLayer):
        probe = model.clone()
        for layer in probe.layers:
            layer.trainable = layer.trainable and isinstance(layer, group)
        biases = [
            np.abs(layer.biases)
            for layer in probe.layers
            if isinstance(layer, simnet.NonlinearLayer) and layer.trainable
        ]
        scale = float(np.median(np.concatenate(biases))) if biases else 0.0
        step = 1e-4 * scale if scale > 0 else 1e-6
        error = min(
            simnet.finite_difference_check(
                probe, fields, loss, step=h, rng=np.random.default_rng(seed)
            )
            for h in (step, step / 10)
        )
        worst = max(worst, error)
    return worst


def check_outputs(workload: str, seed: int, run: dict, full: bool) -> dict:
    """Correctness checks, outside the timed region.  Operations are
    trainings, evaluations and estimates; each failed check counts as
    one failed operation, each non-finite estimate as one."""
    spec = WORKLOADS[workload]
    dataset = run["dataset"]
    test_idx = dataset.split.test
    centroid = centroid_rmse(dataset, test_idx)
    reference = json.loads(REFERENCE.read_text())
    expected = reference["workloads"][workload] if seed == reference["seed"] else None
    failures = []

    def close(value, ref):
        return np.isclose(value, ref, rtol=REFERENCE_RTOL, atol=0)

    rmses = []
    for k, (result, test) in enumerate(run["trainings"]):
        rmses.append(test.rmse)
        if result.diverged:
            failures.append(f"training {k} diverged")
        if not np.isfinite(test.rmse):
            failures.append(f"evaluation {k}: non-finite test RMSE {test.rmse}")
        if spec["accuracy_guard"] == "progress" and result.best_epoch < 1:
            failures.append(f"training {k} did not improve on the initial validation RMSE")
        if expected and not close(test.rmse, expected["test_rmse_m"][k]):
            failures.append(f"evaluation {k}: test RMSE {test.rmse!r} != reference {expected['test_rmse_m'][k]!r}")
    attempted = 2 * len(rmses)
    if spec["accuracy_guard"] == "centroid" and not np.mean(rmses) < centroid:
        failures.append(f"test RMSE {np.mean(rmses):.4f} m not below centroid {centroid:.4f} m")

    ml = run["ml"]
    bad_estimates = 0
    if ml is not None:
        attempted += len(ml.records)
        bad_estimates = int(np.sum(~np.isfinite(ml.records["r_hat"]) | ~np.isfinite(ml.records["theta_hat"])))
        if bad_estimates:
            failures.append(f"{bad_estimates} non-finite matched-filter estimates")
        elif not ml.rmse < centroid_rmse(dataset, ml_indices(spec, dataset)):
            failures.append(f"matched-filter RMSE {ml.rmse:.4f} m not below the centroid predictor")
        if expected and not close(ml.rmse, expected["ml_rmse_m"]):
            failures.append(f"matched-filter RMSE {ml.rmse!r} != reference {expected['ml_rmse_m']!r}")

    if full:
        model = run["trainings"][0][0].best_model
        probe = test_idx[:PROBE_BATCH]
        fields = dataset.field_matrix(probe)
        fast = simnet.forward(model, fields).output_field
        dense = dense_reference_output(model, fields)
        err = float(np.max(np.abs(fast - dense)) / np.max(np.abs(dense)))
        if not err <= DENSE_FORWARD_RTOL:
            failures.append(f"forward differs from the dense reference by {err:.2e}")
        if spec["gradient_check"]:
            positions = dataset.position_matrix(probe)
            bounds = (dataset.scenario.r_min_m, dataset.scenario.r_max_m)

            def loss(y):
                return trainer.position_loss_and_cotangent(y, positions, model.readout_scale, bounds)

            fd = gradient_error(model, fields, loss, seed)
            if not fd < GRADIENT_CHECK_MAX:
                failures.append(f"finite-difference gradient error {fd:.2e}")
    failed = min(attempted, len(failures) + max(0, bad_estimates - 1))
    return {"attempted": attempted, "failed": failed, "failures": failures}


def measure(workload: str, seed: int, trace: bool, out_dir: Path, full_check: bool) -> dict:
    spec = WORKLOADS[workload]
    rec = Recorder(trace)
    if trace:
        rec.install()
    run = run_pipeline(spec, seed, out_dir, rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    rec.active = False

    trainings = run["trainings"]
    train_samples = sum(
        run["dataset"].split.train.size * len(result.history) for result, _ in trainings
    )
    out = {
        "wall_s": run["wall_s"],
        "setup_s": rec.totals["setup"],
        "train_s": rec.totals["train"],
        "train_samples": train_samples,
        "ml_s": rec.totals["ml"],
        "estimates": 0 if run["ml"] is None else len(run["ml"].records),
        "peak_rss_mb": peak_rss_mb,
        "test_rmse_m": [test.rmse for _, test in trainings],
        "ml_rmse_m": None if run["ml"] is None else run["ml"].rmse,
        "env": environment(),
    }
    if trace:
        out["layers"] = rec.layers()
        out["counts"] = dict(rec.counts)
        out["counts"]["simnet.propagation_mb"] = propagation_mb(run["propagation"])
        out["forward_backward_in_train_s"] = rec.self_time_under(
            {"simnet.forward", "simnet.backward"}, "trainer.train"
        )
        out["spans"] = rec.spans
    out.update(check_outputs(workload, seed, run, full_check))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="directory for the run's outputs")
    parser.add_argument("--spans", type=Path, help="file the traced run's spans are written to")
    parser.add_argument("--full-check", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, bool(args.trace), args.out, bool(args.full_check))
    except Exception:  # one failed repetition is reported, not raised
        result = {"error": traceback.format_exc()}
    spans = result.pop("spans", None)
    if spans is not None and args.spans is not None:
        run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
        with open(args.spans, "w", encoding="utf-8") as fh:
            for name, start, end, parent in spans:
                fh.write(json.dumps({"run": run_id, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
