"""Tests for dataset handling, metrics, Adam, and the training loop."""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from emstack import emfield, simnet, trainer


def make_geometry(cells_per_side=4, num_layers=2, num_output_antennas=2):
    return emfield.build_geometry(
        carrier_frequency_hz=28e9,
        cells_per_side=cells_per_side,
        num_layers=num_layers,
        layer_spacing_m=0.05,
        output_distance_m=0.05,
        num_output_antennas=num_output_antennas,
    )


def noiseless_scenario():
    # effectively pure line of sight, no receiver noise
    return emfield.Scenario(rician_factor=1e12, noise_power_w=0.0)


def linear_model(geom, rng):
    layers = [simnet.uniform_phase_layer(geom.num_cells, rng) for _ in range(geom.num_layers)]
    return simnet.assemble_model(geom, layers)


class TestSplits:
    def test_ratios(self):
        s = trainer.split_indices(10_000, np.random.default_rng(0))
        assert s.train.size == 8000
        assert s.validation.size == 1000
        assert s.test.size == 1000

    def test_disjoint_and_exhaustive(self):
        s = trainer.split_indices(101, np.random.default_rng(1))
        merged = np.concatenate([s.train, s.validation, s.test])
        assert merged.size == 101
        assert np.array_equal(np.sort(merged), np.arange(101))

    def test_same_seed_same_partition(self):
        a = trainer.split_indices(500, np.random.default_rng(7))
        b = trainer.split_indices(500, np.random.default_rng(7))
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.validation, b.validation)
        np.testing.assert_array_equal(a.test, b.test)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            trainer.split_indices(2, np.random.default_rng(0))

    def test_generate_dataset_shapes(self):
        geom = make_geometry(num_layers=1)
        ds = trainer.generate_dataset(
            geom, noiseless_scenario(), 20, np.random.default_rng(3)
        )
        assert ds.fields.shape == (20, geom.num_cells)
        assert ds.r.shape == ds.theta.shape == (20,)
        fields = ds.field_matrix(ds.split.train)
        assert fields.shape == (16, geom.num_cells)
        positions = ds.position_matrix(ds.split.test)
        assert positions.shape == (2, 2)

    def test_dataset_columns_are_read_only(self):
        geom = make_geometry(num_layers=1)
        ds = trainer.generate_dataset(geom, emfield.Scenario(), 10, np.random.default_rng(4))
        for column in (ds.fields, ds.positions, ds.r, ds.theta):
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_columns_match_a_fresh_draw_loop(self):
        geom = make_geometry(num_layers=1)
        scenario = emfield.Scenario()
        ds = trainer.generate_dataset(geom, scenario, 30, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        samples = [emfield.draw_sample(geom, scenario, rng) for _ in range(30)]
        idx = np.array([7, 0, 29, 7, 13])
        np.testing.assert_array_equal(
            ds.field_matrix(idx), np.stack([samples[i].input_field for i in idx])
        )
        positions = [samples[i].position for i in idx]
        np.testing.assert_array_equal(
            ds.position_matrix(idx),
            np.stack([emfield.plane_xy(p.range_m, p.azimuth_rad) for p in positions]),
        )
        np.testing.assert_array_equal(ds.r, [s.position.range_m for s in samples])
        np.testing.assert_array_equal(ds.theta, [s.position.azimuth_rad for s in samples])
        # the split is drawn after the samples, from the same stream
        np.testing.assert_array_equal(
            np.concatenate([ds.split.train, ds.split.validation, ds.split.test]),
            rng.permutation(30),
        )

    def test_block_draw_matches_a_draw_sample_loop(self):
        # two full blocks and a partial one
        count = 2 * emfield._BLOCK_ROWS + 3
        geom = make_geometry(num_layers=1)
        scenario = emfield.Scenario()
        ds = trainer.generate_dataset(geom, scenario, count, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        samples = [emfield.draw_sample(geom, scenario, rng) for _ in range(count)]
        np.testing.assert_array_equal(ds.fields, np.stack([s.input_field for s in samples]))
        positions = [s.position for s in samples]
        np.testing.assert_array_equal(
            ds.positions, np.stack([emfield.plane_xy(p.range_m, p.azimuth_rad) for p in positions])
        )
        np.testing.assert_array_equal(ds.r, [s.position.range_m for s in samples])
        np.testing.assert_array_equal(ds.theta, [s.position.azimuth_rad for s in samples])
        np.testing.assert_array_equal(
            np.concatenate([ds.split.train, ds.split.validation, ds.split.test]),
            rng.permutation(count),
        )

    def test_draw_holds_under_two_blocks_beyond_its_columns(self):
        geom = make_geometry(cells_per_side=8, num_layers=1)
        rng = np.random.default_rng(6)
        tracemalloc.start()
        try:
            ds = trainer.generate_dataset(geom, emfield.Scenario(), 2000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(c.nbytes for c in (ds.fields, ds.positions, ds.r, ds.theta))
        # a block of scratch: the 4 M normals of each of its samples
        block = emfield._BLOCK_ROWS * 4 * geom.num_cells * 8
        assert peak < columns + 2 * block


class TestPositionRmse:
    def test_perfect_is_zero(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert trainer.position_rmse(pts, pts) == 0.0

    def test_three_four_five(self):
        assert trainer.position_rmse([[3.0, 4.0]], [[0.0, 0.0]]) == pytest.approx(5.0)

    def test_two_sample_mean(self):
        est = [[1.0, 0.0], [7.0, 0.0]]
        ref = [[0.0, 0.0], [0.0, 0.0]]
        assert trainer.position_rmse(est, ref) == pytest.approx(5.0)

    def test_centroid_estimator_matches_direct_computation(self):
        rng = np.random.default_rng(5)
        truth = rng.uniform(-2.0, 2.0, (128, 2))
        centroid = truth.mean(axis=0)
        est = np.tile(centroid, (128, 1))
        direct = float(np.sqrt(np.mean(np.sum((truth - centroid) ** 2, axis=1))))
        assert trainer.position_rmse(est, truth) == pytest.approx(direct, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trainer.position_rmse(np.empty((0, 2)), np.empty((0, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            trainer.position_rmse([[0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])


class TestAdam:
    def _model(self, rng=None):
        rng = rng or np.random.default_rng(6)
        geom = make_geometry(cells_per_side=2, num_layers=1)
        return simnet.assemble_model(geom, [simnet.uniform_phase_layer(geom.num_cells, rng)])

    def test_zero_gradient_keeps_parameters(self):
        model = self._model()
        before = model.layers[0].phases.copy()
        state = trainer.AdamState()
        grads = {1: np.zeros(4)}
        state = trainer.adam_step(model, grads, state, trainer.TrainConfig())
        np.testing.assert_array_equal(model.layers[0].phases, before)
        assert state.step == 1

    def test_first_step_magnitude_and_sign(self):
        model = self._model()
        before = model.layers[0].phases.copy()
        g = np.array([1.0, -2.0, 0.5, -0.25])
        cfg = trainer.TrainConfig(learning_rate=1e-3)
        trainer.adam_step(model, {1: g}, trainer.AdamState(), cfg)
        step = model.layers[0].phases - before
        # bias-corrected first step is about -lr * sign(g)
        np.testing.assert_allclose(step, -cfg.learning_rate * np.sign(g), rtol=1e-4)

    def test_phases_wrap(self):
        model = self._model()
        model.layers[0].phases = np.array([1e-4, 0.1, 0.2, 0.3])
        g = np.full(4, 1.0)
        cfg = trainer.TrainConfig(learning_rate=1e-3)
        trainer.adam_step(model, {1: g}, trainer.AdamState(), cfg)
        phases = model.layers[0].phases
        assert np.all((phases >= 0.0) & (phases < 2.0 * np.pi))
        assert phases[0] == pytest.approx(2.0 * np.pi + 1e-4 - 1e-3, rel=1e-6)

    def test_bias_clamped_at_zero(self):
        geom = make_geometry(cells_per_side=2, num_layers=1)
        act = nonlin_relu_half()
        model = simnet.assemble_model(
            geom,
            [simnet.NonlinearLayer(act, np.full(4, -1e-9), trainable=True)],
        )
        # negative gradient pushes biases up through zero
        g = np.full(4, -1.0)
        cfg = trainer.TrainConfig(bias_learning_rate=1e-3)
        trainer.adam_step(model, {1: g}, trainer.AdamState(), cfg)
        np.testing.assert_array_equal(model.layers[0].biases, np.zeros(4))

    def test_zero_learning_rate_freezes_parameters(self):
        model = self._model()
        before = model.layers[0].phases.copy()
        cfg = trainer.TrainConfig(learning_rate=0.0, bias_learning_rate=0.0)
        state = trainer.AdamState()
        rng = np.random.default_rng(8)
        for _ in range(5):
            g = rng.normal(size=4)
            trainer.adam_step(model, {1: g}, state, cfg)
        np.testing.assert_array_equal(model.layers[0].phases, before)

    def test_mixed_stack_matches_reference_bit_for_bit(self):
        # two trainable phase layers around trainable biases: separate rates,
        # the 2 pi wrap, the <= 0 clamp and each layer's own moments
        rng = np.random.default_rng(9)
        geom = make_geometry(cells_per_side=2, num_layers=3)
        layers = [
            simnet.uniform_phase_layer(4, rng),
            simnet.NonlinearLayer(nonlin_relu_half(), -rng.uniform(0.0, 2e-3, 4), trainable=True),
            simnet.uniform_phase_layer(4, rng),
        ]
        model = simnet.assemble_model(geom, layers)
        want = model.clone()
        cfg = trainer.TrainConfig(learning_rate=0.5, bias_learning_rate=1e-3)
        state, ref_state = trainer.AdamState(), {"step": 0, "first": {}, "second": {}}
        wraps = clamps = 0
        for _ in range(8):
            phase = {1: rng.normal(size=4), 3: rng.normal(size=4)}
            bias = {2: rng.normal(-1.0, 1.0, size=4)}
            trainer.adam_step(model, {**phase, **bias}, state, cfg)
            w, c = reference_adam_step(want, phase, bias, ref_state, cfg)
            wraps, clamps = wraps + w, clamps + c
            for got, ref in zip(model.layers, want.layers):
                assert np.array_equal(got.params, ref.params)
        assert wraps > 0 and clamps > 0
        assert set(state.first) == {1, 2, 3}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            trainer.TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(beta1=1.0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(batch_size=0)


def reference_adam_step(model, phase_grads, bias_grads, state, config):
    """:func:`trainer.adam_step` as it was written before each layer class
    had its own ``step``; returns how many phases wrapped and biases clamped."""
    state["step"] += 1
    t = state["step"]
    wraps = clamps = 0
    for kind, table, rate in (
        ("phase", phase_grads, config.learning_rate),
        ("bias", bias_grads, config.bias_learning_rate),
    ):
        for layer_index, grad in table.items():
            key = (kind, layer_index)
            if key not in state["first"]:
                state["first"][key], state["second"][key] = np.zeros_like(grad), np.zeros_like(grad)
            m, v = state["first"][key], state["second"][key]
            m *= config.beta1
            m += (1.0 - config.beta1) * grad
            v *= config.beta2
            v += (1.0 - config.beta2) * grad**2
            m_hat = m / (1.0 - config.beta1**t)
            v_hat = v / (1.0 - config.beta2**t)
            delta = rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
            layer = model.layers[layer_index - 1]
            if kind == "phase":
                moved = layer.phases - delta
                wraps += int(np.sum((moved < 0.0) | (moved >= 2.0 * np.pi)))
                layer.phases = (layer.phases - delta) % (2.0 * np.pi)
            else:
                clamps += int(np.sum(layer.biases - delta > 0.0))
                layer.biases = np.minimum(layer.biases - delta, 0.0)
    return wraps, clamps


def nonlin_relu_half():
    from emstack import nonlin

    return nonlin.closed_form_lowpass(nonlin.Relu())


class TestLossPlumbing:
    def test_calibration_sets_quantile_scale(self):
        geom = make_geometry(num_layers=1)
        rng = np.random.default_rng(9)
        model = linear_model(geom, rng)
        ds = trainer.generate_dataset(geom, noiseless_scenario(), 50, rng)
        scale = trainer.calibrate_readout_scale(model, ds)
        assert scale > 0
        assert model.readout_scale == scale
        out = simnet.forward(model, ds.field_matrix(ds.split.train)).output_field
        peak = np.quantile(np.max(np.abs(out), axis=-1), 0.95)
        assert scale == pytest.approx(1.0 / peak, rel=1e-12)

    def test_calibration_rejects_dead_model(self):
        geom = make_geometry(num_layers=1)
        rng = np.random.default_rng(10)
        model = linear_model(geom, rng)
        ds = trainer.generate_dataset(geom, noiseless_scenario(), 50, rng)
        dead = dataclasses.replace(ds, fields=np.zeros_like(ds.fields))
        with pytest.raises(ValueError):
            trainer.calibrate_readout_scale(model, dead)

    def test_loss_matches_rmse(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        targets = rng.uniform(-1.0, 1.0, (8, 2))
        loss, _ = trainer.position_loss_and_cotangent(y, targets, 0.5, (1.0, 3.0))
        p_hat = emfield.plane_xy(*simnet.polar_estimates(np.abs(y), 0.5, (1.0, 3.0)))
        assert np.sqrt(loss) == pytest.approx(trainer.position_rmse(p_hat, targets))

    def test_cotangent_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        y += 0.5 * np.sign(y.real) + 0.5j * np.sign(y.imag)  # keep |y| away from 0
        targets = rng.uniform(-1.0, 1.0, (4, 2))

        def loss_of(field):
            return trainer.position_loss_and_cotangent(field, targets, 0.4, (1.0, 3.0))[0]

        _, cot = trainer.position_loss_and_cotangent(y, targets, 0.4, (1.0, 3.0))
        h = 1e-7
        for b in range(4):
            for k in range(2):
                bump = np.zeros_like(y)
                bump[b, k] = h
                d_re = (loss_of(y + bump) - loss_of(y - bump)) / (2 * h)
                d_im = (loss_of(y + 1j * bump) - loss_of(y - 1j * bump)) / (2 * h)
                assert d_re == pytest.approx(cot[b, k].real, rel=1e-5, abs=1e-9)
                assert d_im == pytest.approx(cot[b, k].imag, rel=1e-5, abs=1e-9)

    def test_zero_output_gets_zero_cotangent(self):
        y = np.zeros((2, 2), dtype=complex)
        targets = np.ones((2, 2))
        _, cot = trainer.position_loss_and_cotangent(y, targets, 0.5, (1.0, 3.0))
        np.testing.assert_array_equal(cot, np.zeros_like(y))


class TestTrainLoop:
    def _setup(self, seed=13, count=200):
        geom = make_geometry(cells_per_side=4, num_layers=2)
        rng = np.random.default_rng(seed)
        model = linear_model(geom, rng)
        ds = trainer.generate_dataset(geom, noiseless_scenario(), count, rng)
        return geom, model, ds

    def test_zero_epochs_returns_initial_model(self):
        _, model, ds = self._setup()
        before = [layer.phases.copy() for layer in model.layers]
        result = trainer.train(model, ds, trainer.TrainConfig(epochs=0))
        assert result.history == []
        assert result.best_epoch == 0
        for layer, phases in zip(result.best_model.layers, before):
            np.testing.assert_array_equal(layer.phases, phases)

    def test_toy_problem_loss_decreases(self):
        _, model, ds = self._setup()
        cfg = trainer.TrainConfig(learning_rate=1e-2, epochs=5, batch_size=32, seed=1)
        result = trainer.train(model, ds, cfg)
        losses = [rec.train_loss for rec in result.history]
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_same_seed_same_history(self):
        _, model_a, ds = self._setup()
        geom_b, model_b, _ = self._setup()
        cfg = trainer.TrainConfig(learning_rate=1e-2, epochs=3, batch_size=32, seed=2)
        res_a = trainer.train(model_a, ds, cfg)
        res_b = trainer.train(model_b, ds, cfg)
        assert res_a.history == res_b.history

    def test_training_does_not_touch_dataset(self):
        _, model, ds = self._setup(count=100)
        columns = ("fields", "positions", "r", "theta")
        before = {name: getattr(ds, name).copy() for name in columns}
        cfg = trainer.TrainConfig(learning_rate=1e-2, epochs=2, batch_size=32)
        trainer.train(model, ds, cfg)
        for name in columns:
            np.testing.assert_array_equal(getattr(ds, name), before[name])

    def test_best_checkpoint_tracks_validation(self):
        _, model, ds = self._setup()
        cfg = trainer.TrainConfig(learning_rate=1e-2, epochs=4, batch_size=32, seed=3)
        result = trainer.train(model, ds, cfg)
        val = [rec.val_rmse for rec in result.history]
        assert result.best_val_rmse == pytest.approx(min(min(val), result.best_val_rmse))
        assert result.best_model is not model

    def test_nonlinear_bias_training_runs(self):
        geom = make_geometry(cells_per_side=3, num_layers=2)
        rng = np.random.default_rng(14)
        from emstack import nonlin

        layers = [
            simnet.uniform_phase_layer(geom.num_cells, rng),
            simnet.NonlinearLayer(
                nonlin.ShiftedReluLowpass(),
                trainer_bias_init(geom.num_cells, rng),
                trainable=True,
            ),
        ]
        model = simnet.assemble_model(geom, layers)
        ds = trainer.generate_dataset(geom, noiseless_scenario(), 60, rng)
        cfg = trainer.TrainConfig(epochs=2, batch_size=16, bias_learning_rate=1e-7)
        result = trainer.train(model, ds, cfg)
        assert len(result.history) == 2
        assert np.all(model.layers[1].biases <= 0.0)

    @pytest.mark.parametrize("patience, epochs_run", [(3, 3), (0, 10)])
    def test_early_stopping(self, patience, epochs_run):
        # with both learning rates 0 the validation RMSE never improves on the
        # initial model's, so `patience` epochs without a gain end training
        geom = make_geometry(cells_per_side=3, num_layers=2)
        rng = np.random.default_rng(29)
        from emstack import nonlin

        layers = [
            simnet.uniform_phase_layer(geom.num_cells, rng),
            simnet.NonlinearLayer(
                nonlin.FittedRelu(gain=0.5), trainer_bias_init(geom.num_cells, rng), trainable=True
            ),
        ]
        model = simnet.assemble_model(geom, layers)
        ds = trainer.generate_dataset(geom, noiseless_scenario(), 60, rng)
        cfg = trainer.TrainConfig(
            learning_rate=0.0, bias_learning_rate=0.0, epochs=10, patience=patience, batch_size=16
        )
        result = trainer.train(model, ds, cfg)
        assert [rec.epoch for rec in result.history] == list(range(1, epochs_run + 1))
        assert result.best_epoch == 0

    def test_each_trace_is_released_before_the_next_forward(self, monkeypatch):
        _, model, ds = self._setup(count=100)
        real, traces = simnet.forward, []

        def forward(model, input_field):
            assert all(ref() is None for ref in traces), "an earlier trace is still alive"
            trace = real(model, input_field)
            traces.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(simnet, "forward", forward)
        trainer.train(model, ds, trainer.TrainConfig(epochs=2, batch_size=32))
        assert len(traces) == 2 * math.ceil(ds.split.train.size / 32)

    def test_infinite_loss_counts_as_divergence(self, monkeypatch):
        _, model, ds = self._setup(count=100)
        monkeypatch.setattr(
            trainer,
            "position_loss_and_cotangent",
            lambda out, positions, scale, bounds: (math.inf, np.zeros_like(out)),
        )
        result = trainer.train(model, ds, trainer.TrainConfig(epochs=3))
        assert result.diverged
        assert result.history == []
        assert result.best_epoch == 0

    def test_infinite_validation_rmse_counts_as_divergence(self, monkeypatch):
        _, model, ds = self._setup(count=100)
        real_evaluate = trainer.evaluate
        calls = []

        def evaluate(model, dataset, indices):
            result = real_evaluate(model, dataset, indices)
            calls.append(result.rmse)
            # the first call scores the initial model; later ones blow up
            if len(calls) == 1:
                return result
            return trainer.EvalResult(rmse=math.inf, records=result.records)

        monkeypatch.setattr(trainer, "evaluate", evaluate)
        result = trainer.train(model, ds, trainer.TrainConfig(epochs=3))
        assert result.diverged
        assert [rec.val_rmse for rec in result.history] == [math.inf]
        assert result.best_epoch == 0

    def test_evaluate_consistency_and_determinism(self):
        _, model, ds = self._setup(count=100)
        trainer.calibrate_readout_scale(model, ds)
        a = trainer.evaluate(model, ds, ds.split.test)
        b = trainer.evaluate(model, ds, ds.split.test)
        assert a.rmse == b.rmse
        np.testing.assert_array_equal(a.records, b.records)
        # reported RMSE agrees with the per-sample error column
        assert a.rmse == pytest.approx(float(np.sqrt(np.mean(a.records["error_m"] ** 2))))

    def test_evaluate_rejects_empty_split(self):
        _, model, ds = self._setup(count=100)
        trainer.calibrate_readout_scale(model, ds)
        with pytest.raises(ValueError, match="cannot evaluate an empty split"):
            trainer.evaluate(model, ds, np.array([], dtype=int))

    def test_evaluate_requires_calibration(self):
        _, model, ds = self._setup(count=100)
        with pytest.raises(ValueError):
            trainer.evaluate(model, ds, ds.split.test)

    def test_three_antennas_fail_before_any_forward_pass(self, monkeypatch):
        geom = make_geometry(num_layers=1, num_output_antennas=3)
        rng = np.random.default_rng(14)
        model = linear_model(geom, rng)
        ds = trainer.generate_dataset(geom, noiseless_scenario(), 50, rng)
        calls = []
        for name in ("forward", "amplitudes"):
            real = getattr(simnet, name)

            def counted(*args, _real=real, **kwargs):
                calls.append(_real)
                return _real(*args, **kwargs)

            monkeypatch.setattr(simnet, name, counted)
        with pytest.raises(ValueError, match="readout requires exactly 2 output antennas"):
            trainer.train(model, ds, trainer.TrainConfig(epochs=1))
        assert model.readout_scale is None
        model.readout_scale = 1.0
        with pytest.raises(ValueError, match="readout requires exactly 2 output antennas"):
            trainer.evaluate(model, ds, ds.split.test)
        assert calls == []


def trainer_bias_init(count, rng):
    from emstack import nonlin

    return nonlin.sample_trainable_bias_init(count, rng)
