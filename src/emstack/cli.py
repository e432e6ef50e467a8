"""Experiment runner for the stacked-surface localization study.

Verbs:

``run``
    Train and evaluate per a plain-text config: a single model, a sweep
    over the nonlinear layer position, or a sweep over stack depth with
    trainable / static-random / all-linear variants.  Each sweep kind is
    one ordered list of points (:func:`sweep_points`) run by one loop.
``curves``
    Export envelope nonlinearity curves for a list of diode
    coefficients plus their fitted piecewise-linear surrogates.
``check``
    Fast self-test of the physics invariants and gradients.
``ml-baseline``
    Standalone matched-filter grid-search evaluation.

Outputs are CSV (authoritative) plus small SVG plots, written under a
directory named by a hash of the effective config so distinct
configurations never collide.  Every file is written whole by
:func:`simnet.atomic_write`.  ``run`` trains one job per (point, seed)
and writes ``results.csv`` once every job is done; a job's checkpoint
marks it done, so a rerun resumes.  Exit codes: 0 success, 1 config
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import dataclasses
import hashlib
import itertools
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import numpy.random  # numpy loads it on first use; every run draws from it

from . import baselines, emfield, nonlin, simnet, trainer


class ConfigError(Exception):
    """Invalid or unknown configuration input; exit code 1."""


class NumericalFailure(Exception):
    """Training or evaluation produced non-finite results; exit code 2."""


# ---------------------------------------------------------------------------
# Configuration schema
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _list_of(cast, what: str):
    """Parser of a nonempty comma- or space-separated list of ``what``."""

    def parse(text: str):
        try:
            values = [cast(tok) for tok in text.replace(",", " ").split()]
        except ValueError as exc:
            raise ConfigError(f"expected a list of {what}, got {text!r}") from exc
        if not values:
            raise ConfigError(f"empty list of {what}")
        if len(set(values)) != len(values):
            # a repeated seed or depth would retrain a point and overwrite
            # its files; a repeated alpha would repeat a curves.csv column
            raise ConfigError(f"repeated value in list {text!r}")
        return values

    return parse


def _choice(options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {tuple(options)}")
        return text

    return parse


_NL_MODES = ("trainable", "static-random", "linear")

# experiment.sweep kind -> (records.csv of the last seed, a matched-filter
# row after each depth, results.svg x label and title or None)
_SWEEP_OUTPUTS = {
    "none": (True, True, None),
    "nl-layer-index": (False, False, ("nonlinear layer position", "placement sweep")),
    "depth-L": (False, True, ("number of layers", "depth sweep")),
}

# section -> key -> (parser, default as text)
_SCHEMA = {
    "scenario": {
        "carrier_frequency_hz": (_finite_float, "28e9"),
        "cells_per_side": (int, "8"),
        "num_layers": (int, "4"),
        "layer_spacing_wavelengths": (_finite_float, "3.0"),
        "output_distance_wavelengths": (_finite_float, "3.0"),
        "r_min_m": (_finite_float, "1.0"),
        "r_max_m": (_finite_float, "3.0"),
        "theta_max_deg": (_finite_float, "70.0"),
        "rician_factor_db": (_finite_float, "20.0"),
        "transmit_power_dbm": (_finite_float, "30.0"),
        "noise_power_dbm": (_finite_float, "-110.0"),
    },
    "model": {
        "nl_mode": (_choice(_NL_MODES), "trainable"),
        "nl_layer_index": (str, "last"),
        "activation": (_choice(("relu-fit", "smooth", "diode-table")), "relu-fit"),
        "activation_gain": (_finite_float, "0.5"),
        "bias_scale_factor": (_finite_float, "3.0"),
        "alpha_min": (_finite_float, "55.0"),
        "alpha_max": (_finite_float, "57.0"),
        "table_points": (int, "2048"),
    },
    "training": {
        "num_samples": (int, "2000"),
        "learning_rate": (_finite_float, "1e-2"),
        "bias_learning_rate": (_finite_float, "1e-9"),
        "beta1": (_finite_float, "0.9"),
        "beta2": (_finite_float, "0.999"),
        "epsilon": (_finite_float, "1e-8"),
        "batch_size": (int, "64"),
        "epochs": (int, "50"),
        "patience": (int, "0"),
        "seeds": (_list_of(int, "integers"), "101, 202, 303"),
    },
    "experiment": {
        "sweep": (_choice(_SWEEP_OUTPUTS), "none"),
        "depth_values": (_list_of(int, "integers"), "2, 4, 6"),
        "ml_coarse": (int, "100"),
        "ml_refine": (int, "21"),
        "seed": (int, "42"),
    },
    "curves": {
        "alphas": (_list_of(_finite_float, "finite numbers"), "18, 33, 56"),
        "bias_shift_volts": (_finite_float, "0.4"),
        "v_max": (_finite_float, "1.0"),
        "samples": (int, "200"),
    },
}


@dataclasses.dataclass
class ExperimentConfig:
    """Parsed and validated settings; ``values[section][key]`` holds the
    typed entries, ``hash_id`` names the output directory."""

    values: dict
    hash_id: str
    text: str

    def __getitem__(self, section):
        return self.values[section]


def _read_config_text(text: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    values = {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in _SCHEMA.items()
    }
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[section][key] = raw
    return values


def load_config(text: str = "", overrides: dict | None = None) -> ExperimentConfig:
    """Parse config text over the documented defaults, apply overrides
    (mapping "section.key" -> raw text), validate, and hash."""
    raw = _read_config_text(text)
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override {dotted!r}")
        raw[section][key] = str(value)

    typed = {}
    for section, keys in _SCHEMA.items():
        typed[section] = {}
        for key, (cast, _) in keys.items():
            try:
                typed[section][key] = cast(raw[section][key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw[section][key]!r} ({exc})"
                ) from exc

    _validate(typed)
    canonical = canonical_text(typed)
    hash_id = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    return ExperimentConfig(values=typed, hash_id=hash_id, text=canonical)


def canonical_text(values: dict) -> str:
    lines = []
    for section in sorted(values):
        lines.append(f"[{section}]")
        for key in sorted(values[section]):
            v = values[section][key]
            if isinstance(v, list):
                v = ", ".join(str(x) for x in v)
            lines.append(f"{key} = {v}")
        lines.append("")
    return "\n".join(lines)


def _validate(cfg: dict) -> None:
    """The rules the CLI owns; every other range is checked by building
    the geometry, scenario, search grids and training settings."""
    sc, mo, tr, ex, cu = (cfg[k] for k in ("scenario", "model", "training", "experiment", "curves"))
    if ex["sweep"] == "nl-layer-index" and mo["nl_mode"] == "linear":
        raise ConfigError("sweep = nl-layer-index needs a nonlinear layer; nl_mode is linear")
    if mo["alpha_min"] > mo["alpha_max"] or mo["alpha_min"] <= 0:
        raise ConfigError("need 0 < alpha_min <= alpha_max")
    if mo["bias_scale_factor"] < 0 or mo["activation_gain"] <= 0:
        raise ConfigError("bias_scale_factor must be >= 0 and activation_gain > 0")
    if tr["num_samples"] < 10:
        raise ConfigError("num_samples must be >= 10")
    if min(tr["seeds"]) < 0 or ex["seed"] < 0:
        raise ConfigError("seeds must be non-negative integers")
    if cu["v_max"] <= 0 or cu["samples"] < 2:
        raise ConfigError("curves need v_max > 0 and samples >= 2")
    if mo["table_points"] < 512:
        raise ConfigError("table_points must be >= 512")
    try:
        for depth in (sc["num_layers"], *ex["depth_values"]):
            geometry = build_geometry(cfg, depth)
        scenario = build_scenario(cfg)
        # the loss grows with range, so the farthest draw bounds it
        emfield.path_loss(geometry, emfield.UePosition(scenario.r_max_m, 0.0))
        # every coupling entry is largest on axis at the shortest gap
        for gap in (geometry.layer_spacing_m, geometry.output_distance_m):
            emfield.diffraction_kernel(gap, 1.0, geometry.wavelength_m, geometry.cell_area_m2)
        for alpha in cu["alphas"]:  # the knee shift is a non-positive diode bias
            nonlin.DiodeCircuitParams(alpha_per_volt=alpha, bias_volts=-cu["bias_shift_volts"])
        for n in (ex["ml_coarse"], ex["ml_refine"]):
            baselines.make_search_grid(
                (scenario.r_min_m, scenario.r_max_m), scenario.theta_max_rad, n, n
            )
        _train_config(cfg)
    except OverflowError as exc:  # a dB or dBm level beyond float range
        raise ConfigError(f"power level out of range: {exc.args[-1]}") from exc
    except (ValueError, FloatingPointError) as exc:
        raise ConfigError(str(exc)) from exc
    # the config's own model (build_model's default) and every model of the sweep
    for point in (_config_point(cfg, sc["num_layers"]), *sweep_points(cfg)):
        if point.variant == "trainable" and mo["activation"] == "diode-table":
            raise ConfigError(
                "diode-table curves have a frozen operating point; use a bias-capable activation,"
                " or nl_mode = static-random without sweep = depth-L (which trains every nl_mode)"
            )


def _train_config(cfg: dict, seed: int = 0) -> trainer.TrainConfig:
    names = {f.name for f in dataclasses.fields(trainer.TrainConfig)}
    settings = {k: v for k, v in cfg["training"].items() if k in names}
    return trainer.TrainConfig(**settings, seed=seed)


def load_preset(name: str) -> str:
    path = resources.files("emstack").joinpath(f"presets/{name}.ini")
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        available = sorted(
            p.name[:-4]
            for p in resources.files("emstack").joinpath("presets").iterdir()
            if p.name.endswith(".ini")
        )
        raise ConfigError(f"unknown preset {name!r}; available: {available}") from exc


# ---------------------------------------------------------------------------
# Experiment assembly
# ---------------------------------------------------------------------------


def build_geometry(cfg: ExperimentConfig, num_layers: int | None = None) -> emfield.SimGeometry:
    sc = cfg["scenario"]
    wavelength = emfield.SPEED_OF_LIGHT / sc["carrier_frequency_hz"]
    return emfield.build_geometry(
        carrier_frequency_hz=sc["carrier_frequency_hz"],
        cells_per_side=sc["cells_per_side"],
        num_layers=num_layers if num_layers is not None else sc["num_layers"],
        layer_spacing_m=sc["layer_spacing_wavelengths"] * wavelength,
        output_distance_m=sc["output_distance_wavelengths"] * wavelength,
    )


def build_scenario(cfg: ExperimentConfig) -> emfield.Scenario:
    sc = cfg["scenario"]
    return emfield.Scenario(
        r_min_m=sc["r_min_m"],
        r_max_m=sc["r_max_m"],
        theta_max_rad=np.deg2rad(sc["theta_max_deg"]),
        rician_factor=emfield.db_to_linear(sc["rician_factor_db"]),
        transmit_power_w=emfield.dbm_to_watts(sc["transmit_power_dbm"]),
        noise_power_w=emfield.dbm_to_watts(sc["noise_power_dbm"]),
    )


def build_dataset(cfg: ExperimentConfig, geometry: emfield.SimGeometry) -> trainer.Dataset:
    return trainer.generate_dataset(
        geometry,
        build_scenario(cfg),
        cfg["training"]["num_samples"],
        np.random.default_rng(cfg["experiment"]["seed"]),
    )


def _make_activation(cfg: ExperimentConfig, num_cells: int, rng: np.random.Generator):
    mo = cfg["model"]
    kind = mo["activation"]
    if kind == "relu-fit":
        return nonlin.FittedRelu(gain=mo["activation_gain"])
    if kind == "smooth":
        return nonlin.ShiftedReluLowpass(gain=mo["activation_gain"])
    # per-cell physical diode curves sampled at fabrication
    alphas = nonlin.sample_static_alphas(
        num_cells, (mo["alpha_min"], mo["alpha_max"]), rng
    )
    # only each cell's curve: its one-row table and knot locator would add
    # about 0.1 MB per cell to the peak while the other cells tabulate
    values = [
        nonlin.diode_activation(
            nonlin.DiodeCircuitParams(alpha_per_volt=a),
            v_max=1.0,
            n_points=mo["table_points"],
        ).values
        for a in alphas
    ]
    grid = nonlin.tabulation_grid(1.0, mo["table_points"])  # diode_activation's grid
    return nonlin.TabulatedActivationSet(grid, np.concatenate(values))


# One model a run trains: ``value`` fills results.csv's ``point`` column, ``nl_position``
# is the nonlinear layer's 1-based place among ``depth`` layers, ``variant`` its nl_mode.
SweepPoint = collections.namedtuple("SweepPoint", "value depth nl_position variant")


def _config_point(cfg: ExperimentConfig, depth: int) -> SweepPoint:
    """The config's own model in a ``depth``-layer stack: the one place
    ``nl_layer_index`` is read."""
    raw = cfg["model"]["nl_layer_index"]
    try:
        position = depth if raw == "last" else int(raw)
    except ValueError as exc:
        raise ConfigError("nl_layer_index must be an integer or 'last'") from exc
    if not 1 <= position <= depth:
        raise ConfigError(f"nl_layer_index = {raw} outside 1..{depth}")
    return SweepPoint("single", depth, position, cfg["model"]["nl_mode"])


def sweep_points(cfg: ExperimentConfig) -> list:
    """Every model the run trains, in output order, consecutive in depth:
    the config's own model, one per nonlinear position of a placement
    sweep, or each of ``_NL_MODES`` at every depth of a depth sweep."""
    depth, nl_mode = cfg["scenario"]["num_layers"], cfg["model"]["nl_mode"]
    sweep = cfg["experiment"]["sweep"]
    if sweep == "none":
        return [_config_point(cfg, depth)]
    if sweep == "nl-layer-index":
        return [SweepPoint(p, depth, p, nl_mode) for p in range(1, depth + 1)]
    depths = cfg["experiment"]["depth_values"]
    return [SweepPoint(d, d, d, variant) for d in depths for variant in _NL_MODES]


def build_model(
    cfg: ExperimentConfig,
    geometry: emfield.SimGeometry,
    propagation: simnet.Propagation,
    dataset: trainer.Dataset,
    seed: int,
    point: SweepPoint | None = None,
) -> simnet.SimModel:
    """The model of ``point``, by default the config's own in ``geometry``'s
    stack; a linear point draws the phases of :func:`baselines.linear_sim_model`.

    Knee magnitudes are drawn half-normal at ``bias_scale_factor`` times
    the median pre-activation amplitude at the nonlinear position under
    the freshly initialized phases.  Trainable and static-random differ
    only in whether the biases update afterwards.
    """
    if point is None:
        point = _config_point(cfg, geometry.num_layers)
    rng = np.random.default_rng(seed)
    m = geometry.num_cells
    nl_position = None if point.variant == "linear" else point.nl_position
    layers = [
        simnet.NonlinearLayer(
            _make_activation(cfg, m, rng), np.zeros(m), trainable=point.variant == "trainable"
        )
        if l == nl_position
        else simnet.uniform_phase_layer(m, rng)
        for l in range(1, geometry.num_layers + 1)
    ]
    model = simnet.assemble_model(geometry, layers, propagation)

    if nl_position is not None and model.layers[nl_position - 1].activation.supports_bias:
        amp = simnet.amplitudes(model, dataset.fields, dataset.split.train, nl_position)
        median_amp = float(np.median(amp, overwrite_input=True))
        scale = cfg["model"]["bias_scale_factor"] * median_amp
        model.layers[nl_position - 1].biases = nonlin.sample_trainable_bias_init(m, rng, scale)
    return model


def _matched_filter(cfg: ExperimentConfig, geometry, dataset) -> trainer.EvalResult:
    """Two-stage matched-filter grid search over the test split."""
    ex, sc = cfg["experiment"], dataset.scenario
    estimator = lambda field: baselines.ml_estimate_two_stage(
        field, geometry, (sc.r_min_m, sc.r_max_m), sc.theta_max_rad,
        ex["ml_coarse"], ex["ml_refine"],
    )
    result = baselines.evaluate_ml(dataset, geometry, dataset.split.test, estimator)
    # the two-stage coarse steering matrix (128 MB at 40x40 cells) is not used again
    baselines._coarse_steering.cache_clear()
    if not np.isfinite(result.rmse):
        raise NumericalFailure("non-finite matched-filter RMSE")
    return result


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _header(cfg: ExperimentConfig) -> str:
    return f"# config_hash={cfg.hash_id} seed={cfg['experiment']['seed']}"


def _csv_line(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values) + "\n"


def _write_csv(path: Path, cfg: ExperimentConfig, columns, rows) -> None:
    """A whole CSV file, replaced atomically."""

    def write(fh):
        fh.write(_header(cfg) + "\n" + _csv_line(columns))
        for row in rows:
            fh.write(_csv_line(row))

    simnet.atomic_write(path, write)


def write_records_csv(path: Path, cfg: ExperimentConfig, records: np.ndarray) -> None:
    rows = ([float(rec[name]) for name in records.dtype.names] for rec in records)
    _write_csv(path, cfg, records.dtype.names, rows)


def _svg_polyline(points, color):
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
    )


_PALETTE = ("#1f6fb4", "#d1495b", "#3a7d44", "#8d5a97", "#c77d2e", "#4f6d7a")


def svg_plot(path, series, x_label: str, y_label: str, title: str = "") -> None:
    """Minimal line plot: ``series`` is a list of (label, x, y) with
    numeric arrays.  CSV stays authoritative; this is a quick look."""
    width, height = 640, 420
    left, right, top, bottom = 64, 16, 28, 46
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(v):
        return height - bottom - (v - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
    ]
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<line x1="{sx(xv):.1f}" y1="{height - bottom}" x2="{sx(xv):.1f}" '
            f'y2="{height - bottom + 4}" stroke="black"/>'
            f'<text x="{sx(xv):.1f}" y="{height - bottom + 16}" text-anchor="middle" '
            f'font-size="10">{xv:.3g}</text>'
        )
        parts.append(
            f'<line x1="{left - 4}" y1="{sy(yv):.1f}" x2="{left}" y2="{sy(yv):.1f}" '
            f'stroke="black"/>'
            f'<text x="{left - 6}" y="{sy(yv) + 3:.1f}" text-anchor="end" '
            f'font-size="10">{yv:.3g}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>'
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(left + width - right) / 2:.0f}" y="{height - 8}" '
        f'text-anchor="middle" font-size="11">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{(top + height - bottom) / 2:.0f}" text-anchor="middle" '
        f'font-size="11" transform="rotate(-90 14 {(top + height - bottom) / 2:.0f})">'
        f"{y_label}</text>"
    )
    for i, (label, x, y) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [(sx(float(a)), sy(float(b))) for a, b in zip(x, y)]
        parts.append(_svg_polyline(pts, color))
        parts.append(
            f'<text x="{width - right - 8}" y="{top + 14 + 14 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    simnet.atomic_write(path, lambda fh: fh.write("\n".join(parts)))


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def _output_dir(cfg: ExperimentConfig, out_root) -> Path:
    """``<out_root>/<config hash>/``, created, holding ``config.ini``."""
    out_dir = Path(out_root) / cfg.hash_id
    out_dir.mkdir(parents=True, exist_ok=True)
    simnet.atomic_write(out_dir / "config.ini", lambda fh: fh.write(cfg.text))
    return out_dir


def _run_job(cfg, point, seed, geometry, propagation, dataset, out_dir) -> trainer.EvalResult:
    """Train and test ``point`` at ``seed``; its history, then its
    checkpoint, which marks the job done.  A saved checkpoint that loads is
    tested again and kept if its RMSE is the stored one bit for bit; any
    other came from other code, so the job retrains.  Returns the test result."""
    name = f"{point.value}-{point.variant}-{seed}"
    ckpt = out_dir / "models" / f"{name}.json"
    if ckpt.exists():
        try:
            model, extra = simnet.load_checkpoint(ckpt, propagation)
        except (KeyError, TypeError, ValueError):  # another format or geometry, or not JSON
            pass
        else:
            test = trainer.evaluate(model, dataset, dataset.split.test)
            if test.rmse == extra.get("test_rmse_m"):
                return test
    model = build_model(cfg, geometry, propagation, dataset, seed, point)
    try:
        trainer.calibrate_readout_scale(model, dataset)
    except ValueError as exc:  # a dead model: every training output is zero
        raise NumericalFailure(str(exc)) from exc
    result = trainer.train(model, dataset, _train_config(cfg.values, seed))
    if result.diverged:
        raise NumericalFailure(f"training diverged (seed {seed})")
    test = trainer.evaluate(result.best_model, dataset, dataset.split.test)
    if not np.isfinite(test.rmse):
        raise NumericalFailure(f"non-finite test RMSE (seed {seed})")
    columns = [f.name for f in dataclasses.fields(trainer.EpochRecord)]
    history = map(dataclasses.astuple, result.history)
    _write_csv(out_dir / f"history-{name}.csv", cfg, columns, history)
    simnet.save_checkpoint(ckpt, result.best_model, extra={"test_rmse_m": test.rmse, "seed": seed})
    return test


def run_experiment(cfg: ExperimentConfig, out_root) -> Path:
    """Run one job per (point, seed) of :func:`sweep_points` in order;
    returns the output directory.

    Each depth builds its geometry and coupling once.  The dataset is
    drawn once per run (a draw reads only the first layer, so every
    depth sees the same one), and so is the matched filter.
    ``results.csv``, one row per seed and a mean row per point, is
    written once every job is done; a rerun into the same directory
    skips finished jobs.  ``_SWEEP_OUTPUTS`` adds per-kind files and rows.
    """
    out_dir = _output_dir(cfg, out_root)
    (out_dir / "models").mkdir(exist_ok=True)
    sweep = cfg["experiment"]["sweep"]
    write_records, ml_rows, plot = _SWEEP_OUTPUTS[sweep]
    geometry = build_geometry(cfg)
    dataset = build_dataset(cfg, geometry)
    ml_rmse = _matched_filter(cfg, geometry, dataset).rmse if ml_rows else None
    rows, curves = [], {}  # curves: variant -> (point values, mean RMSEs)
    for depth, group in itertools.groupby(sweep_points(cfg), lambda p: p.depth):
        depth_geometry = build_geometry(cfg, num_layers=depth)
        propagation = simnet.compute_propagation(depth_geometry)
        for point in group:
            rmses = []
            for seed in cfg["training"]["seeds"]:
                test = _run_job(cfg, point, seed, depth_geometry, propagation, dataset, out_dir)
                rmses.append(test.rmse)
                rows.append((sweep, point.value, point.variant, seed, test.rmse))
            rows.append((sweep, point.value, point.variant, "mean", float(np.mean(rmses))))
            xs, ys = curves.setdefault(point.variant, ([], []))
            xs.append(point.value)
            ys.append(rows[-1][-1])
        if ml_rows:
            rows.append((sweep, point.value, "ml", "-", ml_rmse))
    columns = ("sweep", "point", "variant", "seed", "test_rmse_m")
    _write_csv(out_dir / "results.csv", cfg, columns, rows)
    if write_records:
        write_records_csv(out_dir / "records.csv", cfg, test.records)
    if plot:
        series = [(variant, xs, ys) for variant, (xs, ys) in curves.items()]
        svg_plot(out_dir / "results.svg", series, plot[0], "test RMSE [m]", plot[1])
    return out_dir


def export_curves(cfg: ExperimentConfig, out_root) -> Path:
    """Envelope curves for each diode coefficient at a common knee
    shift, plus fitted piecewise-linear surrogate parameters."""
    cu = cfg["curves"]
    alphas = cu["alphas"]
    bias = -cu["bias_shift_volts"]
    out_dir = _output_dir(cfg, out_root)

    amplitudes = np.linspace(0.0, cu["v_max"], cu["samples"])
    columns, fits = [], []
    for alpha in alphas:
        params = nonlin.DiodeCircuitParams(alpha_per_volt=alpha, bias_volts=bias)
        table = nonlin.diode_activation(params, v_max=cu["v_max"])
        columns.append(table.value(amplitudes))
        # least-squares sums that overflow show up as a non-finite fit
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                fit = nonlin.fit_relu_approximation(table, (0.0, cu["v_max"]))
        except ValueError as exc:  # an identically zero envelope
            raise NumericalFailure(f"{exc} at alpha {alpha:g}") from exc
        if not np.all(np.isfinite([fit.gain, fit.knee, fit.residual_rms])):
            raise NumericalFailure(f"non-finite ReLU fit at alpha {alpha:g}")
        fits.append((alpha, fit))

    rows = ([float(v), *(float(col[i]) for col in columns)] for i, v in enumerate(amplitudes))
    header = ["amplitude"] + [f"C_alpha_{a:g}" for a in alphas]
    _write_csv(out_dir / "curves.csv", cfg, header, rows)
    fit_rows = ([float(alpha), fit.gain, fit.knee, fit.residual_rms] for alpha, fit in fits)
    _write_csv(out_dir / "relu_fits.csv", cfg, ["alpha", "gain", "knee", "residual_rms"], fit_rows)

    series = [
        (f"alpha {a:g}", amplitudes, col) for a, col in zip(alphas, columns)
    ]
    series += [
        (
            f"fit {a:g}",
            amplitudes,
            fit.activation().value(amplitudes),
        )
        for a, fit in fits
    ]
    svg_plot(
        out_dir / "curves.svg",
        series,
        "input amplitude [V]",
        "envelope amplitude C[v]",
        f"diode envelope curves, knee shift {cu['bias_shift_volts']:g} V",
    )
    return out_dir


def self_check(seed: int = 0, stream=None) -> bool:
    """Fast invariant and gradient battery; prints one line per check."""
    stream = stream or sys.stdout
    rng = np.random.default_rng(seed)
    checks = []

    geom = emfield.build_geometry(28e9, 4, 2, 0.032, 0.032, 2)
    pos = [
        emfield.UePosition(rng.uniform(1.0, 3.0), rng.uniform(-1.2, 1.2))
        for _ in range(50)
    ]
    norm_err = max(
        abs(np.linalg.norm(emfield.array_response(geom, p)) - 1.0) for p in pos
    )
    checks.append(("steering unit norm", norm_err < 1e-12, f"max err {norm_err:.2e}"))

    prop = simnet.compute_propagation(geom)
    lin = baselines.linear_sim_model(geom, rng, prop)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    c = 1.3 - 0.4j
    hom = np.max(
        np.abs(
            simnet.forward(lin, c * x).output_field
            - c * simnet.forward(lin, x).output_field
        )
    )
    checks.append(("linear homogeneity", hom < 1e-12, f"max err {hom:.2e}"))

    nl_model = simnet.assemble_model(
        geom,
        [
            simnet.uniform_phase_layer(16, rng),
            simnet.NonlinearLayer(
                nonlin.FittedRelu(gain=0.5),
                -np.abs(rng.standard_normal(16)) * 0.3,
                trainable=True,
            ),
        ],
        prop,
    )
    rot = np.exp(1j * 0.91)
    eq = np.max(
        np.abs(
            simnet.forward(nl_model, rot * x).output_field
            - rot * simnet.forward(nl_model, x).output_field
        )
    )
    checks.append(("phase equivariance", eq < 1e-12, f"max err {eq:.2e}"))

    def loss(y):
        d = y - (0.1 + 0.2j)
        return float(np.sum(np.abs(d) ** 2)), 2.0 * d

    fd = max(
        simnet.finite_difference_check(model, 3.0 * x, loss, rng=rng)
        for model in (lin, nl_model)
    )
    checks.append(("gradient finite differences", fd < 1e-4, f"max rel err {fd:.2e}"))

    worst = 0.0
    for _ in range(100):
        params = nonlin.DiodeCircuitParams(alpha_per_volt=rng.uniform(18.0, 57.0))
        s = rng.uniform(-2.0, 2.0)
        u = nonlin.diode_bandpass_response(params, s)
        ri = params.antenna_resistance_ohm * params.saturation_current_a
        resid = abs(u - ri * np.expm1(2.0 * params.alpha_per_volt * (s - u)))
        worst = max(worst, resid)
    checks.append(("diode residual", worst <= 1e-12, f"max residual {worst:.2e}"))

    relu_err = 0.0
    lp = nonlin.closed_form_lowpass(nonlin.Relu())
    for v in rng.uniform(0.0, 3.0, 20):
        num = nonlin.lowpass_from_bandpass(nonlin.Relu(), float(v))
        relu_err = max(relu_err, abs(num - lp.value(float(v))))
    checks.append(
        ("envelope quadrature vs closed form", relu_err < 1e-7, f"max err {relu_err:.2e}")
    )

    # the fast coupling path against the dense matrix at 29 and 40 cells per
    # side (both fold parities; 40 is the paper's grid), on 37 rows: a prime,
    # so the batch spans more than one block and ends in a partial one; the
    # backward pass steps through W by ``apply``, so W must equal W.T exactly
    trig_err, symmetric = 0.0, True
    for n in (29, 40):
        trig_geom = emfield.build_geometry(28e9, n, 2, 0.032, 0.032, 2)
        trig = simnet.TrigCoupling.build(trig_geom)
        dense = emfield.rayleigh_sommerfeld_matrix(trig_geom, 1, 2).entries
        symmetric = symmetric and np.array_equal(dense, dense.T)
        v = rng.standard_normal((37, n * n)) + 1j * rng.standard_normal((37, n * n))
        want = v @ dense.T
        trig_err = max(trig_err, np.max(np.abs(trig.apply(v) - want)) / np.max(np.abs(want)))
    detail = f"max rel err {trig_err:.2e} at 29 and 40 cells" + ("" if symmetric else ", W != W.T")
    checks.append(("trig coupling vs dense", trig_err < 1e-12 and symmetric, detail))

    # the table's knot locator against a binary search: every knot, the
    # floats either side of it, both zeros and amplitudes past the grid
    misses = 0
    for grid in (nonlin.tabulation_grid(1.0, 512), nonlin.tabulation_grid(1.0, 2048),
                 np.linspace(0.0, 2.0, 300)):
        v = np.concatenate([grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                            [0.0, -0.0, 1.5 * grid[-1], np.inf]])
        want = np.maximum(np.searchsorted(grid, v, side="right") - 1, 0)
        got = nonlin.TabulatedActivationSet(grid, np.zeros((1, grid.size)))._locate(v)
        misses += int(np.count_nonzero(got != want))
    checks.append(("table knot locator vs search", misses == 0, f"{misses} misses on 3 grids"))

    all_ok = True
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})", file=stream)
        all_ok = all_ok and ok
    return all_ok


def run_ml_baseline(cfg: ExperimentConfig, out_root) -> Path:
    """Matched-filter evaluation on a fresh dataset's test split."""
    out_dir = _output_dir(cfg, out_root)
    geometry = build_geometry(cfg)
    result = _matched_filter(cfg, geometry, build_dataset(cfg, geometry))
    write_records_csv(out_dir / "ml_records.csv", cfg, result.records)
    summary = [["two-stage", result.rmse]]
    _write_csv(out_dir / "ml_summary.csv", cfg, ["estimator", "test_rmse_m"], summary)
    return out_dir


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _load_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    elif args.preset is not None:
        text = load_preset(args.preset)
    else:
        text = ""
    overrides = {}
    if args.seed is not None:
        overrides["experiment.seed"] = args.seed
    return load_config(text, overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="emstack",
        description="Stacked-surface localization experiments",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "curves", "check", "ml-baseline"):
        p = sub.add_parser(verb)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--preset", help="name of a shipped preset config")
        p.add_argument("--seed", type=int, help="dataset seed override")
        p.add_argument("--out", default="results", help="output root directory")

    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.verb == "check":
            return 0 if self_check(args.seed if args.seed is not None else 0) else 2
        cfg = _load_from_args(args)
        # an overflow, invalid operation or division by zero in the numeric
        # work is a numerical failure, not a warning behind an exit code of 0
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.verb == "run":
                out = run_experiment(cfg, args.out)
            elif args.verb == "curves":
                out = export_curves(cfg, args.out)
            else:
                out = run_ml_baseline(cfg, args.out)
        print(f"results written to {out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (
        NumericalFailure,
        nonlin.QuadratureError,
        FloatingPointError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
