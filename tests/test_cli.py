"""Config parsing, experiment runner outputs, and exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emstack
from emstack import baselines, cli, nonlin, simnet, trainer


TINY = """
[scenario]
cells_per_side = 4
num_layers = 2

[training]
num_samples = 100
epochs = 0
seeds = 7

[model]
nl_mode = linear

[experiment]
ml_coarse = 30
ml_refine = 5
"""


# Adam's bias step overflows in the second epoch
ADAM_OVERFLOW = (
    "[scenario]\ncells_per_side = 1\nnum_layers = 2\ncarrier_frequency_hz = 1e15\n"
    "noise_power_dbm = 200\n"
    "[model]\nnl_mode = trainable\nactivation = relu-fit\n"
    "[training]\nnum_samples = 20\nepochs = 2\nseeds = 1\n"
    "bias_learning_rate = 1e300\nbeta2 = 0\nepsilon = 1e-300\n"
)

# the first diode's envelope is identically zero on [0, v_max]: no ReLU fits it
ZERO_ENVELOPE = (
    "[curves]\nalphas = 6.93418e+40, 33\nbias_shift_volts = 0\n"
    "v_max = 1.90395e-256\nsamples = 13\n"
)


def _fresh_interpreter_env():
    """Environment for a child interpreter that imports this emstack."""
    paths = [str(Path(emstack.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


class TestConfig:
    def test_defaults_load(self):
        cfg = cli.load_config("")
        assert cfg["scenario"]["cells_per_side"] == 8
        assert cfg["model"]["nl_mode"] == "trainable"
        assert cfg["training"]["seeds"] == [101, 202, 303]
        assert len(cfg.hash_id) == 12

    def test_hash_stable_and_sensitive(self):
        a = cli.load_config("")
        b = cli.load_config("[scenario]\ncells_per_side = 8\n")
        c = cli.load_config("[scenario]\ncells_per_side = 6\n")
        d = cli.load_config("", overrides={"experiment.seed": 9})
        assert a.hash_id == b.hash_id
        assert a.hash_id != c.hash_id
        assert a.hash_id != d.hash_id

    def test_unknown_section_rejected(self):
        with pytest.raises(cli.ConfigError, match="section"):
            cli.load_config("[rocket]\nthrust = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.load_config("[model]\nbogus = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(cli.ConfigError, match="cells_per_side"):
            cli.load_config("[scenario]\ncells_per_side = eight\n")

    def test_unknown_override_rejected(self):
        with pytest.raises(cli.ConfigError, match="override"):
            cli.load_config("", overrides={"model.nope": 1})

    def test_semantic_validation(self):
        bad = [
            "[model]\nnl_mode = quantum\n",
            "[model]\nnl_layer_index = 9\n",
            "[scenario]\nr_min_m = 5\n",
            "[model]\nactivation = diode-table\n",  # trainable default clashes
            # a depth sweep trains every nl_mode, so it has a trainable diode-table point
            "[model]\nnl_mode = static-random\nactivation = diode-table\n"
            "[experiment]\nsweep = depth-L\n",
            "[model]\ntable_points = 100\n",
            "[curves]\nbias_shift_volts = -0.1\n",
            "[experiment]\nsweep = sideways\n",
            # removed keys: the readout maps two amplitudes, and the
            # matched filter is always the two-stage search
            "[scenario]\nnum_output_antennas = 2\n",
            "[experiment]\nml_mode = two-stage\n",
            "[experiment]\nml_exhaustive_points = 1000\n",
            # a linear stack has no nonlinear layer to place: every point would be one model
            "[model]\nnl_mode = linear\n[experiment]\nsweep = nl-layer-index\n",
            # non-finite numbers, and dB levels beyond float range
            "[scenario]\ntransmit_power_dbm = -inf\n",
            "[scenario]\nr_max_m = inf\n",
            "[scenario]\ncarrier_frequency_hz = inf\n",
            "[scenario]\ntransmit_power_dbm = 1e6\n",
            "[scenario]\nnoise_power_dbm = 4000\n",
            "[scenario]\nnoise_power_dbm = nan\n",
            "[training]\nlearning_rate = nan\n",
            "[scenario]\nlayer_spacing_wavelengths = nan\n",
            "[model]\nactivation_gain = inf\n",
            "[curves]\nalphas = 18, nan\n",
            # ranges owned by the geometry, the scenario, the search grid and TrainConfig
            "[experiment]\ndepth_values = 2, 0\n",
            "[scenario]\ntheta_max_deg = 80\n",
            "[experiment]\nml_refine = 1\n",
            "[training]\nbeta2 = 1\n",
            # finite numbers whose squared lengths or path loss leave float range
            "[scenario]\ncarrier_frequency_hz = 1e300\n",
            "[scenario]\nlayer_spacing_wavelengths = 1e-300\n",
            "[scenario]\ncarrier_frequency_hz = 1e162\n",
            # an output distance below the last bit of the stack depth
            "[scenario]\noutput_distance_wavelengths = 1e-20\n",
            # a coupling coefficient A / (2 pi d^2) beyond float range
            "[scenario]\ncarrier_frequency_hz = 1e-100\nlayer_spacing_wavelengths = 1e-160\n",
            # a repeated seed or depth would retrain one point and overwrite its files
            "[training]\nseeds = 7, 7\n",
            "[experiment]\ndepth_values = 2, 3, 2\n",
            # a repeated alpha would write one curves.csv column twice
            "[curves]\nalphas = 18, 18\n",
            # numpy generators take non-negative seeds only
            "[training]\nseeds = -1\n",
            "[training]\nseeds = 7, -1\n",
            "[experiment]\nseed = -1\n",
            # every alpha must make a diode at the knee shift
            "[curves]\nalphas = 0\n",
            "[curves]\nalphas = -1, 5\n",
        ]
        for text in bad:
            with pytest.raises(cli.ConfigError):
                cli.load_config(text)
        with pytest.raises(cli.ConfigError):
            cli.load_config("", overrides={"experiment.seed": -3})

    @pytest.mark.parametrize("sweep", ["none", "nl-layer-index", "depth-L"])
    @pytest.mark.parametrize("index", ["9", "x"])
    def test_nl_layer_index_checked_under_every_sweep(self, sweep, index):
        # the sweeps that place the nonlinear layer themselves still reject it
        text = f"[model]\nnl_layer_index = {index}\n[experiment]\nsweep = {sweep}\n"
        with pytest.raises(cli.ConfigError, match="nl_layer_index"):
            cli.load_config(text)

    @pytest.mark.parametrize(
        "text",
        [
            "output_distance_wavelengths = 1e-20\n",
            "carrier_frequency_hz = 1e-100\nlayer_spacing_wavelengths = 1e-160\n",
        ],
        ids=["output-distance-rounds-to-zero", "kernel-overflows"],
    )
    def test_degenerate_coupling_exits_as_config_error(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scenario]\ncells_per_side = 4\n" + text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_presets_parse(self):
        for name in ("desk", "desk-placement", "desk-depth", "paper"):
            cfg = cli.load_config(cli.load_preset(name))
            assert cfg["scenario"]["carrier_frequency_hz"] == 28e9
        with pytest.raises(cli.ConfigError, match="preset"):
            cli.load_preset("missing")

    def test_canonical_text_covers_schema(self):
        cfg = cli.load_config("")
        for section, keys in cli._SCHEMA.items():
            assert f"[{section}]" in cfg.text
            for key in keys:
                assert f"{key} = " in cfg.text


class TestRunVerb:
    def test_zero_epoch_linear_run(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(TINY)
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        cfg = cli.load_config(TINY)
        out = tmp_path / "out" / cfg.hash_id
        header, rows = read_rows(out / "results.csv")
        assert header == ["sweep", "point", "variant", "seed", "test_rmse_m"]
        # one seed row, one mean row, one matched-filter row
        assert [r[2] for r in rows] == ["linear", "linear", "ml"]
        rmse = float(rows[0][4])
        assert np.isfinite(rmse) and rmse > 0
        assert float(rows[1][4]) == rmse  # mean of one seed
        # per-sample records cover the 10-element test split
        _, recs = read_rows(out / "records.csv")
        assert len(recs) == 10
        assert (out / "config.ini").read_text() == cfg.text

    def test_run_loads_no_scipy(self, tmp_path):
        # the diode response, the envelope integral and the ReLU fit are numpy
        # only, so a fresh `run` process, with or without diode-table cells,
        # loads no scipy module at all
        tiny = TINY.replace("epochs = 0", "epochs = 1")
        configs = {
            "relu-fit": tiny.replace("nl_mode = linear", "nl_mode = trainable\nactivation = relu-fit"),
            "diode-table": tiny.replace(
                "nl_mode = linear",
                "nl_mode = static-random\nactivation = diode-table\ntable_points = 512",
            ),
        }
        script = (
            "import json, sys\n"
            "from emstack import cli, nonlin\n"
            "code = cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "fit = nonlin.fit_relu_approximation(nonlin.FittedRelu(0.7, 0.33), (0.0, 1.0))\n"
            "quad = nonlin.lowpass_from_bandpass(nonlin.ShiftedRelu(-0.5), 1.0)\n"
            "print(json.dumps([code, loaded, quad, fit.gain, fit.knee, fit.residual_rms]))\n"
        )
        # the same results as in this process
        want = nonlin.fit_relu_approximation(nonlin.FittedRelu(0.7, 0.33), (0.0, 1.0))
        want_quad = nonlin.lowpass_from_bandpass(nonlin.ShiftedRelu(-0.5), 1.0)
        for name, text in configs.items():
            cfg_path = tmp_path / f"{name}.ini"
            cfg_path.write_text(text)
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-c", script, str(cfg_path),
                 tmp_path / name],
                env=_fresh_interpreter_env(),
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            code, loaded, quad, *fit = json.loads(proc.stdout.splitlines()[-1])
            assert (name, code, loaded) == (name, 0, [])
            assert fit == [want.gain, want.knee, want.residual_rms]
            assert quad == want_quad

    def test_every_verb_runs_without_scipy(self, tmp_path):
        # scipy is a test reference only: with every scipy import failing,
        # `check`, `curves`, a tiny `run` and `ml-baseline` each exit 0
        cfg_path = tmp_path / "tiny.ini"
        cfg_path.write_text(TINY.replace("epochs = 0", "epochs = 1"))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from emstack import cli\n"
            "cfg, out = sys.argv[1:]\n"
            "verbs = (['check'], ['curves', '--out', out], ['run', '--config', cfg, '--out', out],\n"
            "         ['ml-baseline', '--config', cfg, '--out', out])\n"
            "print([cli.main(args) for args in verbs])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", script, str(cfg_path),
             str(tmp_path / "out")],
            env=_fresh_interpreter_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0]", proc.stdout

    def test_history_file_matches_train_result(self, tmp_path, monkeypatch):
        results, real_train = [], trainer.train

        def recording_train(*args):
            results.append(real_train(*args))
            return results[-1]

        monkeypatch.setattr(trainer, "train", recording_train)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(TINY.replace("epochs = 0", "epochs = 3"))
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        out = tmp_path / "out" / cli.load_config(cfg_path.read_text()).hash_id
        header, rows = read_rows(out / "history-single-linear-7.csv")
        assert header == [f.name for f in dataclasses.fields(trainer.EpochRecord)]
        history = [trainer.EpochRecord(int(row[0]), *map(float, row[1:])) for row in rows]
        assert len(results) == 1 and len(history) == 3
        assert history == results[0].history

    def test_checkpoint_reloads(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(TINY)
        cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        cfg = cli.load_config(TINY)
        ckpt = next((tmp_path / "out" / cfg.hash_id / "models").glob("*.json"))
        model, extra = simnet.load_checkpoint(ckpt)
        assert model.num_layers == 2
        assert extra["seed"] == 7
        assert np.isfinite(extra["test_rmse_m"])

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(TINY)
        for sub in ("a", "b"):
            cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / sub)])
        cfg = cli.load_config(TINY)
        for name in ("results.csv", "records.csv"):
            one = (tmp_path / "a" / cfg.hash_id / name).read_bytes()
            two = (tmp_path / "b" / cfg.hash_id / name).read_bytes()
            assert one == two

    def test_seed_override_changes_directory(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(TINY)
        out = tmp_path / "out"
        cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "9"])
        assert len(list(out.iterdir())) == 2

    def test_placement_sweep_rows(self, tmp_path):
        text = TINY.replace("nl_mode = linear", "nl_mode = trainable") + (
            "\nsweep = nl-layer-index\n"
        )
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text)
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        cfg = cli.load_config(text)
        _, rows = read_rows(tmp_path / "out" / cfg.hash_id / "results.csv")
        # 2 positions x (1 seed + 1 mean)
        assert len(rows) == 4
        assert [r[1] for r in rows] == ["1", "1", "2", "2"]
        assert (tmp_path / "out" / cfg.hash_id / "results.svg").exists()

    def test_every_output_file_written_whole(self, tmp_path, monkeypatch):
        written, real_write = [], simnet.atomic_write

        def recording_write(path, write):
            written.append(Path(path).name)
            real_write(path, write)

        monkeypatch.setattr(simnet, "atomic_write", recording_write)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(PLACEMENT)
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        out = tmp_path / "out" / cli.load_config(PLACEMENT).hash_id
        assert {"config.ini", "results.svg"} <= set(written)
        files = {p.name for p in out.rglob("*") if p.is_file()}
        assert files <= set(written)

    def test_depth_sweep_rows(self, tmp_path):
        text = TINY.replace("nl_mode = linear", "nl_mode = trainable") + (
            "\nsweep = depth-L\ndepth_values = 1, 2\n"
        )
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text)
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        cfg = cli.load_config(text)
        _, rows = read_rows(tmp_path / "out" / cfg.hash_id / "results.csv")
        # per depth: 3 variants x (1 seed + 1 mean) + 1 matched-filter row
        assert len(rows) == 2 * (3 * 2 + 1)
        variants = {r[2] for r in rows}
        assert variants == {"trainable", "static-random", "linear", "ml"}
        # the frozen-bias run must differ from the trainable one only
        # through training, so both exist for every depth
        for depth in ("1", "2"):
            assert sum(1 for r in rows if r[1] == depth) == 7


PLACEMENT = TINY.replace("nl_mode = linear", "nl_mode = trainable") + "\nsweep = nl-layer-index\n"
DEPTH = TINY.replace("nl_mode = linear", "nl_mode = trainable") + (
    "\nsweep = depth-L\ndepth_values = 1, 2\n"
)


class TestRunner:
    def test_dataset_is_identical_across_depths(self):
        # the runner draws one dataset per run and uses it at every depth
        cfg = cli.load_config(TINY)
        reference = cli.build_dataset(cfg, cli.build_geometry(cfg, num_layers=1))
        for depth in (2, 4, 6):
            dataset = cli.build_dataset(cfg, cli.build_geometry(cfg, num_layers=depth))
            for name in ("fields", "positions", "r", "theta"):
                assert getattr(dataset, name).tobytes() == getattr(reference, name).tobytes()
            for part in ("train", "validation", "test"):
                np.testing.assert_array_equal(
                    getattr(dataset.split, part), getattr(reference.split, part)
                )

    def test_depth_ml_rows_match_ml_baseline(self, tmp_path):
        cfg = cli.load_config(DEPTH)
        _, rows = read_rows(cli.run_experiment(cfg, tmp_path / "run") / "results.csv")
        _, summary = read_rows(cli.run_ml_baseline(cfg, tmp_path / "ml") / "ml_summary.csv")
        ml = [(r[1], r[4]) for r in rows if r[2] == "ml"]
        assert ml == [("1", summary[0][1]), ("2", summary[0][1])]

    @pytest.mark.parametrize("text", [TINY, PLACEMENT, DEPTH], ids=["none", "placement", "depth"])
    def test_output_files_match_result_rows(self, tmp_path, text):
        cfg = cli.load_config(text.replace("seeds = 7", "seeds = 7, 8"))
        out = cli.run_experiment(cfg, tmp_path)
        _, rows = read_rows(out / "results.csv")
        names = sorted(f"{p}-{v}-{seed}" for _, p, v, seed, _ in rows if seed not in ("mean", "-"))
        assert len(names) == 2 * sum(1 for r in rows if r[3] == "mean")
        histories = sorted(p.stem[len("history-") :] for p in out.glob("history-*.csv"))
        assert histories == names
        assert sorted(p.stem for p in (out / "models").glob("*.json")) == names

    def test_depth_points_build_the_three_variants(self):
        cfg = cli.load_config(DEPTH.replace("cells_per_side = 4", "cells_per_side = 3"))
        geometry = cli.build_geometry(cfg, num_layers=2)
        propagation = simnet.compute_propagation(geometry)
        dataset = cli.build_dataset(cfg, geometry)
        points = [p for p in cli.sweep_points(cfg) if p.depth == 2]
        models = {
            p.variant: cli.build_model(cfg, geometry, propagation, dataset, 7, p) for p in points
        }
        reference = baselines.linear_sim_model(geometry, np.random.default_rng(7), propagation)
        assert models["linear"].nl_layer_set == frozenset()
        for layer, want in zip(models["linear"].layers, reference.layers, strict=True):
            assert layer.phases.tobytes() == want.phases.tobytes()
        trained, frozen = models["trainable"], models["static-random"]
        assert trained.nl_layer_set == frozen.nl_layer_set == {2}
        for a, b in zip(trained.layers, frozen.layers, strict=True):
            assert type(a) is type(b)
            assert a.params.tobytes() == b.params.tobytes()
        assert vars(trained.layers[1].activation) == vars(frozen.layers[1].activation)
        assert [layer.trainable for layer in trained.layers] == [True, True]
        assert [layer.trainable for layer in frozen.layers] == [True, False]

    def test_failed_records_write_keeps_existing_file(self, tmp_path):
        cfg = cli.load_config(TINY)
        path = tmp_path / "records.csv"
        records = np.zeros(3, dtype=trainer.RECORD_DTYPE)
        cli.write_records_csv(path, cfg, records)
        before = path.read_bytes()
        # the third row fails to convert after two rows were written
        bad = records.astype([(name, object) for name in records.dtype.names])
        bad["r"][2] = "not a number"
        with pytest.raises(ValueError):
            cli.write_records_csv(path, cfg, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]


class Interrupted(Exception):
    pass


class CountingTrain:
    """``trainer.train`` that records each job's seed and raises once
    ``limit`` jobs have trained."""

    real = staticmethod(trainer.train)

    def __init__(self, limit=None):
        self.seeds, self.limit = [], limit

    def __call__(self, *args):
        if len(self.seeds) == self.limit:
            raise Interrupted
        self.seeds.append(args[2].seed)
        return self.real(*args)


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestResume:
    """A rerun into the same directory trains only the jobs without a
    valid checkpoint and writes the files of an uninterrupted run."""

    CFG = DEPTH.replace("seeds = 7", "seeds = 7, 8").replace("epochs = 0", "epochs = 2")
    JOBS = 2 * 3 * 2  # depths x variants x seeds

    @pytest.mark.parametrize("done", [0, 5, 11])
    def test_interrupted_run_resumes(self, tmp_path, monkeypatch, done):
        cfg = cli.load_config(self.CFG)
        reference = tree_bytes(cli.run_experiment(cfg, tmp_path / "a"))
        monkeypatch.setattr(trainer, "train", CountingTrain(limit=done))
        with pytest.raises(Interrupted):
            cli.run_experiment(cfg, tmp_path / "b")
        out = tmp_path / "b" / cfg.hash_id
        assert not (out / "results.csv").exists()
        assert len(list((out / "models").glob("*.json"))) == done
        train = CountingTrain()
        monkeypatch.setattr(trainer, "train", train)
        cli.run_experiment(cfg, tmp_path / "b")
        assert len(train.seeds) == self.JOBS - done
        assert tree_bytes(out) == reference

    def test_changed_checkpoint_is_retrained(self, tmp_path, monkeypatch):
        cfg = cli.load_config(self.CFG)
        reference = tree_bytes(cli.run_experiment(cfg, tmp_path / "a"))
        out = cli.run_experiment(cfg, tmp_path / "b")
        ckpt = out / "models" / "2-linear-8.json"
        payload = json.loads(ckpt.read_text())
        payload["layers"][0]["phases"][0] += 1.0
        ckpt.write_text(json.dumps(payload))
        train = CountingTrain()
        monkeypatch.setattr(trainer, "train", train)
        cli.run_experiment(cfg, tmp_path / "b")
        assert train.seeds == [8]
        assert tree_bytes(out) == reference

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text.replace("emstack-checkpoint-1", "emstack-checkpoint-0"),
            lambda text: text[: len(text) // 2],  # not JSON
            lambda text: "[]",  # JSON, but not an object
            lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "layers"}),
            lambda text: json.dumps({**json.loads(text), "layers": 5}),
            lambda text: text.replace('"cells_per_side": 4', '"cells_per_side": 5'),
        ],
        ids=["format", "truncated", "list", "no-layers", "layers-not-a-list", "geometry"],
    )
    def test_checkpoint_that_does_not_load_is_retrained(self, tmp_path, monkeypatch, damage):
        cfg = cli.load_config(self.CFG)
        reference = tree_bytes(cli.run_experiment(cfg, tmp_path / "a"))
        out = cli.run_experiment(cfg, tmp_path / "b")
        ckpt = out / "models" / "2-trainable-7.json"
        text = ckpt.read_text()
        ckpt.write_text(damage(text))
        assert ckpt.read_text() != text
        train = CountingTrain()
        monkeypatch.setattr(trainer, "train", train)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(self.CFG)
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
        assert train.seeds == [7]
        assert tree_bytes(out) == reference


class TestCurvesVerb:
    def test_two_alpha_curve_export(self, tmp_path):
        text = "[curves]\nalphas = 20, 40\nsamples = 50\n"
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text)
        assert cli.main(["curves", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        cfg = cli.load_config(text)
        out = tmp_path / "out" / cfg.hash_id
        header, rows = read_rows(out / "curves.csv")
        assert header == ["amplitude", "C_alpha_20", "C_alpha_40"]
        assert len(rows) == 50
        # monotone nonnegative envelope
        col = np.array([float(r[1]) for r in rows])
        assert col[-1] > 0 and np.all(np.diff(col) >= -1e-12)
        _, fits = read_rows(out / "relu_fits.csv")
        assert [r[0] for r in fits] == ["20.0", "40.0"]
        assert (out / "curves.svg").exists()

    def test_bias_shift_moves_knee(self, tmp_path):
        knees = {}
        for shift in ("0.0", "0.4"):
            text = f"[curves]\nalphas = 33\nbias_shift_volts = {shift}\nsamples = 20\n"
            cfg = cli.load_config(text)
            out = cli.export_curves(cfg, tmp_path / shift)
            _, fits = read_rows(out / "relu_fits.csv")
            knees[shift] = float(fits[0][2])
        assert knees["0.4"] > knees["0.0"] + 0.3

    def test_empty_alpha_list_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[curves]\nalphas =\n")
        code = cli.main(["curves", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 1


class TestCheckVerb:
    def test_all_checks_pass(self):
        buf = io.StringIO()
        assert cli.self_check(seed=0, stream=buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 8
        assert all(line.startswith("PASS") for line in lines)

    def test_exit_code(self):
        assert cli.main(["check"]) == 0

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        assert cli.main(["check", "--seed", "-1"]) == 1
        assert cli.main(["run", "--seed", "-3", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.count("config error:") == 2
        assert not (tmp_path / "out").exists()

    def test_module_run_raises_no_runtime_warning(self):
        # importing the package must not pre-import emstack.cli, or runpy warns
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "emstack.cli", "check"],
            env=_fresh_interpreter_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("PASS") == 8


class TestMlBaselineVerb:
    def test_records_and_summary(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(TINY)
        assert cli.main(
            ["ml-baseline", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        ) == 0
        cfg = cli.load_config(TINY)
        out = tmp_path / "out" / cfg.hash_id
        header, recs = read_rows(out / "ml_records.csv")
        assert header == ["r", "theta", "r_hat", "theta_hat", "error_m"]
        assert len(recs) == 10
        _, summary = read_rows(out / "ml_summary.csv")
        rmse = float(summary[0][1])
        errors = np.array([float(r[4]) for r in recs])
        np.testing.assert_allclose(rmse, np.sqrt(np.mean(errors ** 2)), rtol=1e-12)

    def test_coarse_steering_released(self, tmp_path):
        cli.run_ml_baseline(cli.load_config(TINY), tmp_path)
        assert baselines._coarse_steering.cache_info().currsize == 0


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_unknown_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[model]\nwarp_drive = on\n")
        assert cli.main(["run", "--config", str(cfg_path)]) == 1

    def test_unknown_preset(self):
        assert cli.main(["run", "--preset", "galactic"]) == 1

    def test_bad_number_exits_1_without_traceback(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        for line in ("noise_power_dbm = 4000", "transmit_power_dbm = -inf"):
            cfg_path.write_text(TINY.replace("num_layers = 2", f"num_layers = 2\n{line}"))
            args = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
            assert cli.main(args) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_diode_table_depth_sweep_exits_1_before_any_work(self, tmp_path, capsys):
        # its trainable point has no bias derivative; reject it before the output directory
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            "[scenario]\ncells_per_side = 4\n"
            "[model]\nnl_mode = static-random\nactivation = diode-table\n"
            "[experiment]\nsweep = depth-L\ndepth_values = 2\n"
        )
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_infinite_loss_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            trainer,
            "position_loss_and_cotangent",
            lambda out, positions, scale, bounds: (math.inf, np.zeros_like(out)),
        )
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(TINY.replace("epochs = 0", "epochs = 2"))
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "v_max, details",
        # 2 alpha v leaves float range inside the diode response, which
        # names the cell's alpha and the largest input magnitude; the
        # table is finite, but the ReLU fit's least-squares sums overflow
        [
            ("1e308", ["alpha 33 /V", "largest input magnitude 1e+308 V"]),
            ("1e200", ["alpha 33"]),
        ],
        ids=["diode-response", "relu-fit"],
    )
    def test_curves_overflow_exits_2(self, tmp_path, capsys, v_max, details):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[curves]\nalphas = 33\nsamples = 20\nv_max = {v_max}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["curves", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        for detail in details:
            assert detail in err

    def test_dead_model_exits_2(self, tmp_path, capsys):
        # knees far above every field amplitude: all training outputs are zero
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            TINY.replace("nl_mode = linear", "nl_mode = trainable\nbias_scale_factor = 1e6")
        )
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "all training outputs are zero" in capsys.readouterr().err

    def test_adam_overflow_exits_2(self, tmp_path, capsys):
        # Adam's bias step overflows in the second epoch: a numerical failure,
        # not a warning followed by a checkpoint and exit code 0
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(ADAM_OVERFLOW)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Traceback" not in err
        for path in out.rglob("*"):
            if path.is_file():
                text = path.read_text()
                assert "Infinity" not in text and "NaN" not in text, path.name

    def test_zero_envelope_curves_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(ZERO_ENVELOPE)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["curves", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Traceback" not in err
        assert err.count("\n") == 1 and "alpha 6.93418e+40" in err


@st.composite
def tiny_configs(draw):
    """A `run` or `curves` config the schema accepts: a tiny model (no
    diode tables, whose tabulation would take most of the budget) with
    extreme learning rates, Adam constants, gains, carriers and powers."""

    def pick(*values):
        return draw(st.sampled_from(values))

    if draw(st.booleans()):
        alphas = draw(st.lists(st.sampled_from([1e-300, 18.0, 33.0, 6.93418e40, 1e300]),
                               min_size=1, max_size=2, unique=True))
        return "curves", (
            f"[curves]\nalphas = {', '.join(map(repr, alphas))}\n"
            f"bias_shift_volts = {pick(0.0, 0.4, 1e-300, 1e300)!r}\n"
            f"v_max = {pick(1e-300, 1.90395e-256, 1.0, 1e200, 1e308)!r}\n"
            f"samples = {draw(st.integers(2, 20))}\n"
        )
    return "run", (
        f"[scenario]\ncells_per_side = {draw(st.integers(1, 4))}\n"
        f"num_layers = {draw(st.integers(1, 3))}\n"
        f"carrier_frequency_hz = {pick(1e6, 28e9, 1e15)!r}\n"
        f"transmit_power_dbm = {pick(-300.0, 30.0, 300.0)!r}\n"
        f"noise_power_dbm = {pick(-300.0, -110.0, 200.0, 300.0)!r}\n"
        f"[model]\nnl_mode = {pick('trainable', 'static-random', 'linear')}\n"
        f"activation = {pick('relu-fit', 'smooth')}\n"
        f"activation_gain = {pick(1e-300, 0.5, 1e300)!r}\n"
        f"bias_scale_factor = {pick(0.0, 3.0, 1e300)!r}\n"
        f"[training]\nnum_samples = {draw(st.integers(10, 30))}\n"
        f"epochs = {draw(st.integers(0, 2))}\nseeds = 1\n"
        f"batch_size = {draw(st.integers(1, 64))}\n"
        f"learning_rate = {pick(1e-300, 1e-2, 1e300)!r}\n"
        f"bias_learning_rate = {pick(1e-9, 1e300)!r}\n"
        f"beta2 = {pick(0.0, 0.999)!r}\n"
        f"epsilon = {pick(1e-300, 1e-8, 1e300)!r}\n"
        "[experiment]\nml_coarse = 5\nml_refine = 3\n"
    )


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


class TestExitCodeFuzz:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=tiny_configs())
    @example(case=("run", ADAM_OVERFLOW))
    @example(case=("curves", ZERO_ENVELOPE))
    def test_exit_code_contract(self, case):
        # 0, 1 or 2 with no exception, traceback or warning; an exit-0
        # run writes only finite numbers
        verb, text = case
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            cfg_path = Path(tmp) / "cfg.ini"
            cfg_path.write_text(text)
            out = Path(tmp) / "out"
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([verb, "--config", str(cfg_path), "--out", str(out)])
            assert code in (0, 1, 2)
            assert not caught, [str(w.message) for w in caught]
            err = stderr.getvalue()
            assert "Traceback" not in err and "Warning" not in err, err
            if code == 0:
                for path in [*out.rglob("*.csv"), *out.rglob("*.json")]:
                    assert not _NON_FINITE.search(path.read_text()), path.name
