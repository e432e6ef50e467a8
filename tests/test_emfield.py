"""Geometry, diffraction kernel, near-field responses, channel draws."""

import numpy as np
import pytest

from emstack import emfield

C0 = emfield.SPEED_OF_LIGHT
F0 = 28e9
LAM = C0 / F0


def small_geometry(cells_per_side=4, num_layers=3, num_output_antennas=2):
    return emfield.build_geometry(
        carrier_frequency_hz=F0,
        cells_per_side=cells_per_side,
        num_layers=num_layers,
        layer_spacing_m=LAM,
        output_distance_m=3 * LAM,
        num_output_antennas=num_output_antennas,
    )


class TestGeometry:
    def test_wavelength_28ghz(self):
        g = small_geometry()
        np.testing.assert_allclose(g.wavelength_m, LAM)
        np.testing.assert_allclose(g.wavelength_m, 0.010707, rtol=1e-4)

    def test_cell_pitch_and_area(self):
        g = small_geometry(cells_per_side=5)
        np.testing.assert_allclose(g.cell_pitch_m, LAM / 2)
        np.testing.assert_allclose(g.cell_area_m2, LAM ** 2 / 4)
        xy = g.cell_positions[0][:, :2]
        d = np.linalg.norm(xy[1] - xy[0])
        np.testing.assert_allclose(d, LAM / 2, rtol=1e-12)

    def test_full_scale_cell_count(self):
        g = small_geometry(cells_per_side=40)
        assert g.num_cells == 1600
        assert g.cell_positions[0].shape == (1600, 3)

    def test_degenerate_single_cell(self):
        g = emfield.build_geometry(F0, 1, 1, LAM, LAM)
        np.testing.assert_allclose(g.cell_positions[0], [[0.0, 0.0, 0.0]], atol=1e-15)

    def test_layer_planes_stacked(self):
        g = small_geometry(num_layers=4)
        for layer_index, cells in enumerate(g.cell_positions):
            np.testing.assert_allclose(cells[:, 2], layer_index * LAM)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            emfield.build_geometry(-1.0, 4, 2, LAM, LAM)
        with pytest.raises(ValueError):
            emfield.build_geometry(F0, 4, 2, 0.0, LAM)
        # the output distance vanishes in the rounding of the stack depth
        with pytest.raises(ValueError, match="rounding"):
            emfield.build_geometry(F0, 4, 2, LAM, 1e-20 * LAM)

    def test_positions_read_only(self):
        g = small_geometry()
        with pytest.raises(ValueError):
            g.cell_positions[0][0, 0] = 1.0

    def test_fraunhofer_distance(self):
        g = small_geometry(cells_per_side=8)
        aperture = np.sqrt(2) * 7 * LAM / 2
        np.testing.assert_allclose(
            emfield.fraunhofer_distance(g), 2 * aperture ** 2 / LAM
        )


class TestDiffractionKernel:
    def test_on_axis_one_wavelength(self):
        entry = emfield.diffraction_kernel(LAM, 1.0, LAM, LAM ** 2 / 4)
        expected = (LAM / 4) * (1 / (2 * np.pi * LAM) - 1j / LAM)
        np.testing.assert_allclose(entry, expected, rtol=1e-12)

    def test_magnitude_self_consistency(self):
        d, cosx = 3.7 * LAM, 0.81
        entry = emfield.diffraction_kernel(d, cosx, LAM, LAM ** 2 / 4)
        closed = (LAM ** 2 / 4) * cosx / d * np.hypot(1 / (2 * np.pi * d), 1 / LAM)
        np.testing.assert_allclose(np.abs(entry), closed, rtol=1e-12)

    def test_matrix_matches_scalar_oracle(self):
        g = small_geometry(cells_per_side=2, num_layers=1, num_output_antennas=1)
        mat = emfield.rayleigh_sommerfeld_matrix(g, 1, emfield.OUTPUT_ARRAY)
        assert mat.entries.shape == (1, 4)
        k = 2 * np.pi / LAM
        for i in range(4):
            delta = g.output_positions[0] - g.cell_positions[0][i]
            d = np.linalg.norm(delta)
            cosx = delta[2] / d
            want = (
                (LAM ** 2 / 4)
                * cosx
                / d
                * (1 / (2 * np.pi * d) - 1j / LAM)
                * np.exp(1j * k * d)
            )
            np.testing.assert_allclose(mat.entries[0, i], want, rtol=1e-12)

    def test_two_point_scalar_pair(self):
        src = np.array([0.3 * LAM, -0.2 * LAM, 0.0])
        dst = np.array([0.0, 0.0, 2.5 * LAM])
        d = np.linalg.norm(dst - src)
        cosx = (dst[2] - src[2]) / d
        entry = emfield.diffraction_kernel(d, cosx, LAM, LAM ** 2 / 4)
        k = 2 * np.pi / LAM
        want = (LAM ** 2 / 4) * cosx / d * (1 / (2 * np.pi * d) - 1j / LAM) * np.exp(1j * k * d)
        np.testing.assert_allclose(entry, want, rtol=1e-12)

    def test_magnitude_decays_with_distance(self):
        rng = np.random.default_rng(11)
        dists = np.sort(LAM / 4 + rng.uniform(0, 10 * LAM, 32))
        mags = np.abs(emfield.diffraction_kernel(dists, 1.0, LAM, LAM ** 2 / 4))
        assert np.all(np.diff(mags) < 0)

    def test_interlayer_magnitude_reciprocity(self):
        g = small_geometry(cells_per_side=3, num_layers=2)
        w = emfield.rayleigh_sommerfeld_matrix(g, 1, 2).entries
        np.testing.assert_allclose(np.abs(w), np.abs(w).T, rtol=1e-12)

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            emfield.diffraction_kernel(0.0, 1.0, LAM, LAM ** 2 / 4)


class TestArrayResponse:
    def test_unit_norm(self):
        g = small_geometry(cells_per_side=6)
        rng = np.random.default_rng(3)
        for _ in range(10):
            pos = emfield.UePosition(rng.uniform(1, 3), rng.uniform(-1.2, 1.2))
            a = emfield.array_response(g, pos)
            np.testing.assert_allclose(np.linalg.norm(a), 1.0, atol=1e-12)

    def test_center_cell_zero_phase_on_boresight(self):
        g = small_geometry(cells_per_side=5)
        a = emfield.array_response(g, emfield.UePosition(2.0, 0.0))
        center = 12  # middle cell of the 5x5 grid sits at the origin
        np.testing.assert_allclose(a[center], 1 / 5.0 + 0j, atol=1e-12)

    def test_boresight_hand_computed_m4(self):
        g = small_geometry(cells_per_side=2)
        r = 1.7
        a = emfield.array_response(g, emfield.UePosition(r, 0.0))
        ue = np.array([0.0, 0.0, -r])
        k = 2 * np.pi / LAM
        for m in range(4):
            dist = np.linalg.norm(g.cell_positions[0][m] - ue)
            want = np.exp(-1j * k * (r - dist)) / 2.0
            np.testing.assert_allclose(a[m], want, rtol=1e-12)

    def test_rejects_invalid_position(self):
        with pytest.raises(ValueError):
            emfield.UePosition(-1.0, 0.0)
        with pytest.raises(ValueError):
            emfield.UePosition(1.0, np.pi / 2)


class TestPathLoss:
    def test_unit_gain_distance(self):
        g = small_geometry()
        np.testing.assert_allclose(
            emfield.path_loss(g, emfield.UePosition(LAM / (4 * np.pi), 0.0)), 1.0
        )

    def test_direct_value_at_two_meters(self):
        g = small_geometry()
        got = emfield.path_loss(g, emfield.UePosition(2.0, 0.3))
        np.testing.assert_allclose(got, (4 * np.pi * 2.0 / LAM) ** 2)

    def test_square_law(self):
        g = small_geometry()
        p1 = emfield.path_loss(g, emfield.UePosition(1.3, 0.0))
        p2 = emfield.path_loss(g, emfield.UePosition(2.6, 0.0))
        np.testing.assert_allclose(p2, 4 * p1)


class TestRicianChannel:
    def test_pure_los_norm(self):
        g = small_geometry(cells_per_side=4)
        pos = emfield.UePosition(2.0, 0.4)
        h = emfield.rician_channel(g, pos, 1e12, np.random.default_rng(0))
        want = 1 / np.sqrt(emfield.path_loss(g, pos))
        np.testing.assert_allclose(np.linalg.norm(h), want, rtol=1e-5)

    @pytest.mark.parametrize("kappa", [0.0, 100.0])
    def test_second_moment(self, kappa):
        g = small_geometry(cells_per_side=4)
        pos = emfield.UePosition(2.0, -0.2)
        pl = emfield.path_loss(g, pos)
        rng = np.random.default_rng(42)
        total = 0.0
        draws = 100_000
        for _ in range(draws):
            h = emfield.rician_channel(g, pos, kappa, rng)
            total += np.sum(np.abs(h) ** 2) * pl
        assert 0.99 <= total / draws <= 1.01

    def test_seed_determinism(self):
        g = small_geometry()
        pos = emfield.UePosition(1.5, 0.7)
        h1 = emfield.rician_channel(g, pos, 100.0, np.random.default_rng(7))
        h2 = emfield.rician_channel(g, pos, 100.0, np.random.default_rng(7))
        np.testing.assert_array_equal(h1, h2)

    def test_rejects_negative_kappa(self):
        g = small_geometry()
        with pytest.raises(ValueError):
            emfield.rician_channel(g, emfield.UePosition(2, 0), -1.0, np.random.default_rng(0))


class TestDrawSample:
    def test_noiseless_los_is_scaled_steering_vector(self):
        g = small_geometry(cells_per_side=4)
        sc = emfield.Scenario(noise_power_w=0.0, rician_factor=1e12)
        sample = emfield.draw_sample(g, sc, np.random.default_rng(5))
        a = emfield.array_response(g, sample.position)
        ratio = sample.input_field / a
        # constant complex ratio across cells: e^{j gamma} sqrt(P_T / P_L);
        # kappa = 1e12 leaves a ~1e-6 relative NLoS residue
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-4)
        pl = emfield.path_loss(g, sample.position)
        np.testing.assert_allclose(
            np.abs(ratio[0]), np.sqrt(sc.transmit_power_w / pl), rtol=1e-6
        )

    def test_position_ranges(self):
        g = small_geometry()
        sc = emfield.Scenario()
        rng = np.random.default_rng(9)
        rs, thetas = [], []
        for _ in range(10_000):
            s = emfield.draw_sample(g, sc, rng)
            rs.append(s.position.range_m)
            thetas.append(s.position.azimuth_rad)
        assert 1.0 <= min(rs) and max(rs) <= 3.0
        tmax = np.deg2rad(70)
        assert -tmax <= min(thetas) and max(thetas) <= tmax

    def test_stream_determinism(self):
        g = small_geometry()
        sc = emfield.Scenario()
        s1 = [emfield.draw_sample(g, sc, np.random.default_rng(3)) for _ in range(1)]
        s2 = [emfield.draw_sample(g, sc, np.random.default_rng(3)) for _ in range(1)]
        np.testing.assert_array_equal(s1[0].input_field, s2[0].input_field)
        assert s1[0].position == s2[0].position

    def test_block_draw_keeps_the_per_sample_formulas(self):
        # one full block and a partial one against the one-sample formulas,
        # written out as whole-vector numpy expressions: the block draw
        # reorders the work, not a single bit of it
        g = small_geometry(cells_per_side=5)
        sc = emfield.Scenario(rician_factor=3.0, noise_power_w=1e-9)
        count, m = emfield._BLOCK_ROWS + 6, g.num_cells
        fields = np.empty((count, m), dtype=complex)
        polar = emfield.draw_fields(g, sc, np.random.default_rng(17), fields)
        rng = np.random.default_rng(17)
        x, y, z = g.cell_positions[0].T
        for i in range(count):
            r = rng.uniform(sc.r_min_m, sc.r_max_m)
            th = rng.uniform(-sc.theta_max_rad, sc.theta_max_rad)
            gamma = rng.uniform(0.0, 2.0 * np.pi)
            nlos = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0 * m)
            dx, dz = x - r * np.sin(th), z + r * np.cos(th)
            dist = np.sqrt(dx * dx + y * y + dz * dz)
            los = np.exp(-1j * g.wavenumber * (r - dist)) / np.sqrt(m) * np.exp(1j * gamma)
            h = np.sqrt(3.0 / 4.0) * los + np.sqrt(1.0 / 4.0) * nlos
            h = h / np.sqrt((4.0 * np.pi * r / g.wavelength_m) ** 2)
            noise = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * np.sqrt(1e-9 / 2.0)
            np.testing.assert_array_equal(fields[i], h * np.sqrt(sc.transmit_power_w) + noise)
            np.testing.assert_array_equal(polar[:, i], [r, th])

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            emfield.Scenario(r_min_m=3.0, r_max_m=1.0)
        with pytest.raises(ValueError):
            emfield.Scenario(theta_max_rad=np.deg2rad(80))


class TestUnitHelpers:
    def test_dbm(self):
        np.testing.assert_allclose(emfield.dbm_to_watts(30.0), 1.0)
        np.testing.assert_allclose(emfield.dbm_to_watts(-110.0), 1e-14)

    def test_db(self):
        np.testing.assert_allclose(emfield.db_to_linear(20.0), 100.0)
