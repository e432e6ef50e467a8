"""Tests for the linear stack baseline and the matched-filter search."""

import itertools

import numpy as np
import pytest

from emstack import baselines, cli, emfield, simnet, trainer


def near_field_geometry(cells_per_side=16, num_layers=1):
    # 28 GHz, half-wavelength pitch; 16x16 keeps r in [1,3] m inside
    # the curvature-sensitive zone while staying cheap
    wavelength = emfield.SPEED_OF_LIGHT / 28e9
    return emfield.build_geometry(
        carrier_frequency_hz=28e9,
        cells_per_side=cells_per_side,
        num_layers=num_layers,
        layer_spacing_m=wavelength,
        output_distance_m=3.0 * wavelength,
        num_output_antennas=2,
    )


def los_field(geometry, r, theta, amplitude=1.0 + 0.0j):
    pos = emfield.UePosition(range_m=r, azimuth_rad=theta)
    return amplitude * emfield.array_response(geometry, pos)


def unfolded_steering_rows(geometry, r, th):
    """The steering formula evaluated on every cell, with no mirror copy:
    the same operations in the same order as ``emfield.steering_rows``."""
    cells = geometry.cell_positions[0]
    shape = (r.size, geometry.num_cells)
    dist = np.broadcast_to(cells[:, 0], shape).copy()
    dist -= (r * np.sin(th))[:, None]
    dz = np.broadcast_to(cells[:, 2], shape).copy()
    dz += (r * np.cos(th))[:, None]
    dist *= dist
    dist += cells[:, 1] * cells[:, 1]
    dist += dz * dz
    out = np.multiply(-1j * geometry.wavenumber, r[:, None] - np.sqrt(dist))
    np.exp(out, out=out)
    out /= np.sqrt(geometry.num_cells)
    return out


def unfolded_estimate(field, geometry, grid):
    """Argmax of |a^H s|^2 scored on full-width steering rows."""
    r = np.repeat(grid.r_points, grid.shape[1])
    th = np.tile(grid.theta_points, grid.shape[0])
    metric = np.abs(unfolded_steering_rows(geometry, r, th).conj() @ field) ** 2
    i_r, i_th = divmod(int(np.argmax(metric)), grid.shape[1])
    return float(grid.r_points[i_r]), float(grid.theta_points[i_th])


def two_stage_reference(
    field, geometry, r_bounds, theta_max, coarse_size, refine_size, estimate=baselines.ml_estimate
):
    """Uncached two-stage search: exhaustive coarse grid, then the
    clipped refinement window, both through ``estimate``."""
    coarse = baselines.make_search_grid(r_bounds, theta_max, coarse_size, coarse_size)
    r0, th0 = estimate(field, geometry, coarse)
    dr = float(coarse.r_points[1] - coarse.r_points[0])
    dth = float(coarse.theta_points[1] - coarse.theta_points[0])
    fine = baselines.SearchGrid(
        r_points=np.linspace(
            max(r0 - dr, float(r_bounds[0])), min(r0 + dr, float(r_bounds[1])), refine_size
        ),
        theta_points=np.linspace(
            max(th0 - dth, -theta_max), min(th0 + dth, theta_max), refine_size
        ),
    )
    return estimate(field, geometry, fine)


class TestLinearSimModel:
    def test_no_nonlinear_layers(self):
        geom = near_field_geometry(cells_per_side=4, num_layers=3)
        model = baselines.linear_sim_model(geom, np.random.default_rng(0))
        assert model.nl_layer_set == frozenset()
        assert all(isinstance(l, simnet.LinearLayer) for l in model.layers)
        assert all(l.trainable for l in model.layers)

    def test_homogeneity(self):
        geom = near_field_geometry(cells_per_side=4, num_layers=2)
        model = baselines.linear_sim_model(geom, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(geom.num_cells) + 1j * rng.standard_normal(geom.num_cells)
        c = 0.7 - 2.1j
        base = simnet.forward(model, x).output_field
        scaled = simnet.forward(model, c * x).output_field
        np.testing.assert_allclose(scaled, c * base, rtol=1e-12)

    def test_shares_geometry_with_nonlinear_variant(self):
        geom = near_field_geometry(cells_per_side=4, num_layers=2)
        shared = simnet.compute_propagation(geom)
        rng = np.random.default_rng(3)
        linear = baselines.linear_sim_model(geom, rng, propagation=shared)
        from emstack import nonlin

        nl = simnet.assemble_model(
            geom,
            [
                simnet.uniform_phase_layer(geom.num_cells, rng),
                simnet.NonlinearLayer(
                    nonlin.ShiftedReluLowpass(), np.zeros(geom.num_cells)
                ),
            ],
            propagation=shared,
        )
        assert linear.geometry.parameters() == nl.geometry.parameters()


class TestSearchGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            baselines.SearchGrid(np.array([1.0]), np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            baselines.SearchGrid(np.array([1.0, 0.5]), np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            baselines.SearchGrid(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))

    def test_make_grid_spans_bounds(self):
        grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 50, 40)
        assert grid.shape == (50, 40)
        assert grid.r_points[0] == 1.0 and grid.r_points[-1] == 3.0
        assert grid.theta_points[0] == pytest.approx(-np.deg2rad(70.0))

    def test_cell_diagonal(self):
        grid = baselines.SearchGrid(
            np.array([1.0, 1.5, 2.0]), np.array([-0.2, 0.0, 0.2])
        )
        # dr = 0.5, arc at r_max: 2.0 * 0.2
        assert baselines.grid_cell_diagonal(grid) == pytest.approx(np.hypot(0.5, 0.4))


class TestSteeringRows:
    def test_matches_scalar_array_response(self):
        geom = near_field_geometry()
        rng = np.random.default_rng(4)
        r = rng.uniform(1.0, 3.0, 20)
        th = rng.uniform(-1.2, 1.2, 20)
        rows = baselines.steering_rows(geom, r, th)
        for i in range(20):
            expected = emfield.array_response(
                geom, emfield.UePosition(range_m=r[i], azimuth_rad=th[i])
            )
            np.testing.assert_allclose(rows[i], expected, rtol=1e-12)

    def test_unit_norm(self):
        geom = near_field_geometry()
        rows = baselines.steering_rows(geom, [1.0, 2.0], [0.3, -0.5])
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_one_formula(self):
        # the matched filter and the channel share emfield's steering
        # function; perfbench traces it under the baselines name
        assert baselines.steering_rows is emfield.steering_rows

    def test_rows_match_hand_computed_definition(self):
        geom = near_field_geometry(cells_per_side=4)
        r, th = np.array([1.3, 2.9]), np.array([-0.7, 0.4])
        rows = baselines.steering_rows(geom, r, th)
        k = 2 * np.pi / geom.wavelength_m
        for i in range(2):
            source = np.array([r[i] * np.sin(th[i]), 0.0, -r[i] * np.cos(th[i])])
            dist = np.linalg.norm(geom.cell_positions[0] - source, axis=1)
            want = np.exp(-1j * k * (r[i] - dist)) / 4.0
            np.testing.assert_allclose(rows[i], want, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 40])
    def test_mirror_copy_keeps_every_bit(self, n):
        geom = near_field_geometry(cells_per_side=n)
        rng = np.random.default_rng(n)
        r, th = rng.uniform(1.0, 3.0, 37), rng.uniform(-1.2, 1.2, 37)
        want = unfolded_steering_rows(geom, r, th).view(float)
        np.testing.assert_array_equal(baselines.steering_rows(geom, r, th).view(float), want)
        # into rows of a larger buffer, as the dataset draw writes them
        buffer = np.full((40, geom.num_cells), np.nan, dtype=complex)
        got = baselines.steering_rows(geom, r, th, out=buffer[2:39])
        assert np.shares_memory(got, buffer)
        np.testing.assert_array_equal(buffer[2:39].view(float), want)
        assert np.isnan(buffer[[0, 1, 39]]).all()
        grid = buffer[2:39].reshape(-1, n, n)
        np.testing.assert_array_equal(grid.view(float), grid[:, ::-1].view(float))


class TestMlEstimate:
    def test_on_grid_target_recovered_exactly(self):
        geom = near_field_geometry()
        grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 21, 21)
        r_true = float(grid.r_points[7])
        th_true = float(grid.theta_points[13])
        field = los_field(geom, r_true, th_true, amplitude=3.0 - 4.0j)
        r_hat, th_hat = baselines.ml_estimate(field, geom, grid)
        assert r_hat == r_true
        assert th_hat == th_true

    def test_zero_input_returns_first_grid_point(self):
        geom = near_field_geometry()
        grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 5, 7)
        r_hat, th_hat = baselines.ml_estimate(
            np.zeros(geom.num_cells, dtype=complex), geom, grid
        )
        assert r_hat == grid.r_points[0]
        assert th_hat == grid.theta_points[0]

    def test_scaling_invariance(self):
        geom = near_field_geometry()
        grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 15, 15)
        rng = np.random.default_rng(5)
        field = rng.standard_normal(geom.num_cells) + 1j * rng.standard_normal(
            geom.num_cells
        )
        base = baselines.ml_estimate(field, geom, grid)
        scaled = baselines.ml_estimate((0.3 - 2.0j) * field, geom, grid)
        assert base == scaled

    def test_metric_map_matches_direct_computation(self, monkeypatch):
        geom = near_field_geometry(cells_per_side=8)
        grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 6, 9)
        rng = np.random.default_rng(6)
        field = rng.standard_normal(geom.num_cells) + 1j * rng.standard_normal(
            geom.num_cells
        )
        monkeypatch.setattr(baselines, "_BLOCK_ROWS", 7)
        metric = baselines.ml_metric_map(field, geom, grid)
        for i, r in enumerate(grid.r_points):
            for j, th in enumerate(grid.theta_points):
                a = emfield.array_response(
                    geom, emfield.UePosition(range_m=r, azimuth_rad=th)
                )
                direct = abs(np.vdot(a, field)) ** 2
                assert metric[i, j] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("n", [7, 8])
    def test_folded_metric_matches_full_width_scoring(self, n):
        # odd and even grids, against |a^H s|^2 on unfolded whole rows
        geom = near_field_geometry(cells_per_side=n)
        grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 12, 13)
        rng = np.random.default_rng(n)
        field = rng.standard_normal(geom.num_cells) + 1j * rng.standard_normal(geom.num_cells)
        r = np.repeat(grid.r_points, grid.shape[1])
        th = np.tile(grid.theta_points, grid.shape[0])
        full = np.abs(unfolded_steering_rows(geom, r, th).conj() @ field) ** 2
        metric = baselines.ml_metric_map(field, geom, grid)
        np.testing.assert_allclose(metric, full.reshape(grid.shape), rtol=1e-12)

    def test_block_size_does_not_change_result(self, monkeypatch):
        geom = near_field_geometry(cells_per_side=8)
        grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 10, 10)
        rng = np.random.default_rng(7)
        field = rng.standard_normal(geom.num_cells) + 1j * rng.standard_normal(
            geom.num_cells
        )
        monkeypatch.setattr(baselines, "_BLOCK_ROWS", 1000)
        full = baselines.ml_metric_map(field, geom, grid)
        monkeypatch.setattr(baselines, "_BLOCK_ROWS", 3)
        tiny = baselines.ml_metric_map(field, geom, grid)
        np.testing.assert_allclose(tiny, full, rtol=1e-12)

    def test_off_grid_target_within_one_cell_diagonal(self):
        # range-azimuth ridge coupling can shift the argmax a range cell
        # or two, but the Cartesian miss stays inside one cell diagonal
        geom = near_field_geometry()
        grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 40, 40)
        budget = baselines.grid_cell_diagonal(grid)
        rng = np.random.default_rng(8)
        for _ in range(8):
            r_true = rng.uniform(1.05, 2.95)
            th_true = rng.uniform(-1.1, 1.1)
            field = los_field(geom, r_true, th_true)
            r_hat, th_hat = baselines.ml_estimate(field, geom, grid)
            miss = np.hypot(
                r_hat * np.cos(th_hat) - r_true * np.cos(th_true),
                r_hat * np.sin(th_hat) - r_true * np.sin(th_true),
            )
            assert miss <= budget, (r_true, th_true, r_hat, th_hat, miss)

    def test_rejects_wrong_field_length(self):
        geom = near_field_geometry(cells_per_side=4)
        grid = baselines.make_search_grid((1.0, 3.0), 1.0, 5, 5)
        with pytest.raises(ValueError):
            baselines.ml_estimate(np.zeros(7, dtype=complex), geom, grid)
        with pytest.raises(ValueError):
            baselines.ml_estimate_two_stage(
                np.zeros(7, dtype=complex), geom, (1.0, 3.0), 1.0, coarse_size=5
            )


class TestTwoStage:
    def test_interior_coarse_point_recovered(self):
        geom = near_field_geometry()
        coarse = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 30, 30)
        r_true = float(coarse.r_points[11])
        th_true = float(coarse.theta_points[17])
        field = los_field(geom, r_true, th_true)
        r_hat, th_hat = baselines.ml_estimate_two_stage(
            field, geom, (1.0, 3.0), np.deg2rad(70.0), coarse_size=30, refine_size=21
        )
        assert r_hat == pytest.approx(r_true, abs=1e-12)
        assert th_hat == pytest.approx(th_true, abs=1e-12)

    def test_refinement_tightens_coarse_estimate(self):
        geom = near_field_geometry()
        rng = np.random.default_rng(9)
        worse = better = 0.0
        for _ in range(4):
            r_true = rng.uniform(1.2, 2.8)
            th_true = rng.uniform(-1.0, 1.0)
            field = los_field(geom, r_true, th_true)
            coarse_grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 25, 25)
            r_c, th_c = baselines.ml_estimate(field, geom, coarse_grid)
            r_f, th_f = baselines.ml_estimate_two_stage(
                field, geom, (1.0, 3.0), np.deg2rad(70.0), coarse_size=25, refine_size=21
            )
            worse += np.hypot(r_c - r_true, th_c - th_true)
            better += np.hypot(r_f - r_true, th_f - th_true)
        assert better <= worse

    def test_boundary_peak_stays_in_bounds(self):
        geom = near_field_geometry()
        field = los_field(geom, 1.0, -np.deg2rad(70.0))
        r_hat, th_hat = baselines.ml_estimate_two_stage(
            field, geom, (1.0, 3.0), np.deg2rad(70.0), coarse_size=15, refine_size=11
        )
        assert 1.0 <= r_hat <= 3.0
        assert -np.deg2rad(70.0) <= th_hat <= np.deg2rad(70.0)

    def test_bad_sizes_rejected(self):
        geom = near_field_geometry(cells_per_side=4)
        with pytest.raises(ValueError):
            baselines.ml_estimate_two_stage(
                np.zeros(16, dtype=complex), geom, (1.0, 3.0), 1.0, coarse_size=1
            )


class TestCoarseSteeringCache:
    def test_desk_test_split_matches_uncached_reference(self):
        cfg = cli.load_config(cli.load_preset("desk"))
        geom = cli.build_geometry(cfg)
        ds = cli.build_dataset(cfg, geom)
        sc, ex = cfg["scenario"], cfg["experiment"]
        bounds = (sc["r_min_m"], sc["r_max_m"])
        theta_max = np.deg2rad(sc["theta_max_deg"])
        sizes = (ex["ml_coarse"], ex["ml_refine"])
        # every fifth test sample keeps the exhaustive reference cheap
        indices = ds.split.test[::5]
        cached = baselines.evaluate_ml(
            ds,
            geom,
            indices,
            lambda f: baselines.ml_estimate_two_stage(f, geom, bounds, theta_max, *sizes),
        )
        reference = baselines.evaluate_ml(
            ds,
            geom,
            indices,
            lambda f: two_stage_reference(f, geom, bounds, theta_max, *sizes),
        )
        np.testing.assert_array_equal(cached.records, reference.records)

    def test_desk_test_split_matches_unfolded_scoring(self):
        cfg = cli.load_config(cli.load_preset("desk"))
        geom = cli.build_geometry(cfg)
        ds = cli.build_dataset(cfg, geom)
        sc, ex = cfg["scenario"], cfg["experiment"]
        args = ((sc["r_min_m"], sc["r_max_m"]), np.deg2rad(sc["theta_max_deg"]))
        sizes = (ex["ml_coarse"], ex["ml_refine"])
        for i in ds.split.test[::2]:
            got = baselines.ml_estimate_two_stage(ds.fields[i], geom, *args, *sizes)
            want = two_stage_reference(ds.fields[i], geom, *args, *sizes, unfolded_estimate)
            assert got == want, i

    def test_alternating_keys_never_serve_a_stale_matrix(self):
        geoms = (near_field_geometry(cells_per_side=4), near_field_geometry(cells_per_side=6))
        theta_max = np.deg2rad(70.0)
        rng = np.random.default_rng(11)
        keys = list(itertools.product(geoms, (12, 17), ((1.0, 3.0), (1.5, 2.5))))
        for geom, coarse_size, bounds in keys + keys[::-1] + keys:
            field = los_field(
                geom, rng.uniform(*bounds), rng.uniform(-1.0, 1.0), amplitude=0.5 + 2.0j
            )
            field = field + 0.05 * (
                rng.standard_normal(geom.num_cells) + 1j * rng.standard_normal(geom.num_cells)
            )
            # bounds as a list: the cache key must not depend on its type
            got = baselines.ml_estimate_two_stage(
                field, geom, list(bounds), theta_max, coarse_size=coarse_size, refine_size=7
            )
            want = two_stage_reference(field, geom, bounds, theta_max, coarse_size, 7)
            assert got == want, (geom.cells_per_side, coarse_size, bounds)

    def test_cached_matrix_is_read_only(self):
        geom = near_field_geometry(cells_per_side=4)
        theta_max = np.deg2rad(70.0)
        baselines.ml_estimate_two_stage(
            los_field(geom, 2.0, 0.3), geom, (1.0, 3.0), theta_max, coarse_size=10
        )
        conj = baselines._coarse_steering(geom, (1.0, 3.0), theta_max, 10)
        # each row holds its unique mirror half: the first ceil(n/2) y rows
        assert conj.shape == (100, 2 * 4)
        assert conj.nbytes == 100 * geom.num_cells * 16 // 2
        assert not conj.flags.writeable
        with pytest.raises(ValueError):
            conj[0, 0] = 0.0


class TestEvaluateMl:
    def _dataset(self, geom, count=12):
        scenario = emfield.Scenario(rician_factor=1e12, noise_power_w=0.0)
        return trainer.generate_dataset(geom, scenario, count, np.random.default_rng(10))

    def test_records_schema_matches_trainer(self):
        geom = near_field_geometry(cells_per_side=8, num_layers=1)
        ds = self._dataset(geom)
        grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 30, 30)
        result = baselines.evaluate_ml(
            ds, geom, ds.split.test, lambda f: baselines.ml_estimate(f, geom, grid)
        )
        assert result.records.dtype == trainer.RECORD_DTYPE
        assert result.records.size == ds.split.test.size
        assert result.rmse >= 0.0

    def test_deterministic(self):
        geom = near_field_geometry(cells_per_side=8, num_layers=1)
        ds = self._dataset(geom)
        grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 20, 20)
        est = lambda f: baselines.ml_estimate(f, geom, grid)
        a = baselines.evaluate_ml(ds, geom, ds.split.test, est)
        b = baselines.evaluate_ml(ds, geom, ds.split.test, est)
        assert a.rmse == b.rmse
        np.testing.assert_array_equal(a.records, b.records)

    def test_rmse_consistent_with_error_column(self):
        geom = near_field_geometry(cells_per_side=8, num_layers=1)
        ds = self._dataset(geom)
        grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 20, 20)
        result = baselines.evaluate_ml(
            ds, geom, ds.split.test, lambda f: baselines.ml_estimate(f, geom, grid)
        )
        assert result.rmse == pytest.approx(
            float(np.sqrt(np.mean(result.records["error_m"] ** 2)))
        )

    def test_empty_split_rejected(self):
        geom = near_field_geometry(cells_per_side=4, num_layers=1)
        ds = self._dataset(geom)
        with pytest.raises(ValueError):
            baselines.evaluate_ml(ds, geom, np.array([], dtype=int), lambda f: (1.0, 0.0))
