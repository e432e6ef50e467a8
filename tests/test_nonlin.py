"""Bandpass devices, the envelope integral, diode response, activations."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from emstack import nonlin


class CosineBump(nonlin.BandpassNL):
    """Even response used to probe fundamental-harmonic annihilation."""

    def __call__(self, v):
        return np.cos(3.0 * np.asarray(v))


def _rectifier_cases():
    """(activation, v, bias) triples: scalar, per-cell and broadcast
    inputs, with v = 0, v = |a| (the knee) and shifts below, at and above 0."""
    cases = []
    for shift in (-0.3, 0.0, 0.25):
        for bias in (0.0, -0.1):
            a = abs(shift + bias)
            for v in (0.0, a, 0.5 * a, 0.2, 1.7):
                cases.append((nonlin.ShiftedReluLowpass(shift, 1.3), v, bias))
    rng = np.random.default_rng(1913)
    shift = np.array([-0.3, 0.0, 0.25, -0.05, 0.1, 0.0, -0.2])
    gain = rng.uniform(0.5, 1.5, shift.size)
    bias = -rng.uniform(0.0, 0.1, shift.size)
    bias[1] = 0.0
    per_cell = nonlin.ShiftedReluLowpass(shift, gain)
    v = rng.uniform(0.0, 0.6, (5, shift.size))
    v[0] = 0.0
    v[1] = np.abs(shift + bias)
    cases += [(per_cell, v, bias), (per_cell, v, 0.0), (per_cell, 0.2, bias)]
    scalar = nonlin.ShiftedReluLowpass(0.05, 0.9)
    w = rng.uniform(0.0, 0.6, (5, shift.size))
    w[0] = 0.0
    w[1] = np.abs(0.05 + bias)
    cases += [(scalar, w, bias), (nonlin.ShiftedReluLowpass(-0.05, 0.9), w[:, 2], -0.02)]
    return cases


def _rectifier_digest():
    """SHA-256 of the shape and bytes of value, derivative and
    bias_derivative over :func:`_rectifier_cases`."""
    h = hashlib.sha256()
    for act, v, bias in _rectifier_cases():
        for fn in (act.value, act.derivative, act.bias_derivative):
            out = np.asarray(fn(v, bias), dtype=float)
            h.update(repr(out.shape).encode())
            h.update(out.tobytes())
    return h.hexdigest()


class TestLowpassIntegral:
    def test_relu_halves_amplitude(self):
        got = nonlin.lowpass_from_bandpass(nonlin.Relu(), 2.0)
        np.testing.assert_allclose(got, 1.0, atol=1e-9)

    def test_absolute_value_silent(self):
        for v in (0.1, 1.0, 7.3):
            got = nonlin.lowpass_from_bandpass(nonlin.AbsoluteValue(), v)
            assert abs(got) < 1e-8

    def test_sign_constant_output(self):
        for v in (0.01, 1.0, 100.0):
            got = nonlin.lowpass_from_bandpass(nonlin.Sign(), v)
            np.testing.assert_allclose(got, 4 / np.pi, atol=1e-8)

    def test_even_functions_annihilated(self):
        for nl in (nonlin.AbsoluteValue(), nonlin.OddPower(2), CosineBump()):
            for v in (0.3, 1.7):
                assert abs(nonlin.lowpass_from_bandpass(nl, v)) < 1e-8

    def test_nonconvergent_integrand_reported(self):
        class Thrash(nonlin.BandpassNL):
            # deterministic pseudo-noise, elementwise: no rule converges on it
            def __call__(self, v):
                return np.vectorize(lambda s: hash(round(float(s), 12)) % 1000 / 1000.0)(v)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(nonlin.QuadratureError) as err:
                nonlin.lowpass_from_bandpass(Thrash(), 3.0)
        assert err.value.achieved_error > 0

    @pytest.mark.parametrize(
        "nl",
        [
            nonlin.ShiftedRelu(-0.5),
            nonlin.ShiftedRelu(0.3),
            nonlin.Relu(),
            nonlin.Sign(),
            nonlin.DiodeCircuit(nonlin.DiodeCircuitParams(alpha_per_volt=56.0)),
        ],
        ids=["shift-", "shift+", "relu", "sign", "diode"],
    )
    def test_odd_in_the_amplitude(self, nl):
        # C[-v] = -C[v]; a negative amplitude moves the kink of F[v cos(phi)]
        # to pi minus the kink angle of |v|
        for v in (0.05, 0.3, 0.5, 1.0, 2.7):
            got = nonlin.lowpass_from_bandpass(nl, -v)
            assert abs(got + nonlin.lowpass_from_bandpass(nl, v)) <= 1e-12

    def test_negative_amplitude_value(self):
        got = nonlin.lowpass_from_bandpass(nonlin.ShiftedRelu(-0.5), -1.0)
        np.testing.assert_allclose(got, -0.1955011094778853, rtol=1e-12)

    @pytest.mark.parametrize(
        "nl",
        [
            nonlin.DiodeCircuit(nonlin.DiodeCircuitParams(alpha_per_volt=18.0)),
            nonlin.DiodeCircuit(nonlin.DiodeCircuitParams(alpha_per_volt=56.0, bias_volts=-0.4)),
            nonlin.DiodeCircuit(nonlin.DiodeCircuitParams(alpha_per_volt=120.0, bias_volts=-0.37)),
            nonlin.ShiftedRelu(-0.5),
            nonlin.ShiftedRelu(0.3),
        ],
        ids=["diode-18", "diode-56-biased", "diode-120-biased", "shift-", "shift+"],
    )
    def test_matches_adaptive_quadrature(self, nl):
        # the reference only: emstack itself loads no scipy
        from scipy.integrate import quad

        rng = np.random.default_rng(41)
        for v in [*rng.uniform(0.0, 3.0, 20), 10.0]:
            points = [math.acos(nl.kink / v)] if abs(nl.kink) < v else None
            want, _ = quad(
                lambda phi: float(nl(np.array(v * math.cos(phi)))) * math.cos(phi),
                0.0, np.pi, points=points, epsabs=1e-12, epsrel=0.0, limit=400,
            )
            got = nonlin.lowpass_from_bandpass(nl, v)
            assert abs(got - 2.0 / np.pi * want) < 1e-10, v


class TestClosedForms:
    def test_shifted_relu_positive_shift_small_amplitude(self):
        act = nonlin.closed_form_lowpass(nonlin.ShiftedRelu(0.5))
        np.testing.assert_allclose(act.value(0.3), 0.3, rtol=1e-12)

    def test_shifted_relu_negative_shift_below_threshold(self):
        act = nonlin.closed_form_lowpass(nonlin.ShiftedRelu(-0.5))
        assert act.value(0.3) == 0.0

    def test_shifted_relu_above_threshold_formula(self):
        a, v = -0.5, 1.0
        act = nonlin.closed_form_lowpass(nonlin.ShiftedRelu(a))
        want = (v * np.arccos(-a / v) + a * np.sqrt(v ** 2 - a ** 2) / v) / np.pi
        np.testing.assert_allclose(act.value(v), want, rtol=1e-12)
        quad = nonlin.lowpass_from_bandpass(nonlin.ShiftedRelu(a), v)
        np.testing.assert_allclose(act.value(v), quad, atol=1e-8)

    @pytest.mark.parametrize(
        "nl",
        [
            nonlin.Relu(),
            nonlin.ShiftedRelu(0.4),
            nonlin.ShiftedRelu(-0.7),
            nonlin.AbsoluteValue(),
            nonlin.Sign(),
        ],
        ids=["relu", "shift+", "shift-", "abs", "sign"],
    )
    def test_catalog_matches_quadrature(self, nl):
        act = nonlin.closed_form_lowpass(nl)
        rng = np.random.default_rng(17)
        for v in rng.uniform(0.01, 2.0, 50):
            quad = nonlin.lowpass_from_bandpass(nl, v)
            np.testing.assert_allclose(act.value(v), quad, atol=1e-7)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_odd_power_quadrature_is_authoritative(self, n):
        nl = nonlin.OddPower(n)
        act = nonlin.closed_form_lowpass(nl)
        for v in (0.3, 0.9, 1.4):
            quad = nonlin.lowpass_from_bandpass(nl, v)
            np.testing.assert_allclose(act.value(v), quad, rtol=1e-8)

    def test_odd_power_catalog_variant_halved_at_n1(self):
        default = nonlin.closed_form_lowpass(nonlin.OddPower(1))
        catalog = nonlin.closed_form_lowpass(nonlin.OddPower(1, use_catalog_coefficient=True))
        np.testing.assert_allclose(default.value(1.0), 1.0)
        np.testing.assert_allclose(catalog.value(1.0), 0.5)

    def test_even_power_closed_form_rejected(self):
        with pytest.raises(ValueError):
            nonlin.closed_form_lowpass(nonlin.OddPower(2))

    def test_diode_has_no_closed_form(self):
        params = nonlin.DiodeCircuitParams(alpha_per_volt=33.0)
        with pytest.raises(ValueError):
            nonlin.closed_form_lowpass(nonlin.DiodeCircuit(params))


# _rectifier_digest() of the gather/scatter implementation this one replaced
RECTIFIER_DIGEST = "031ea6f77e6b131757c4328256221f8a9251e5a3ba66b93308a4364f7d9bf941"


class TestShiftedReluDerivatives:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_battery_bits_pinned(self):
        assert _rectifier_digest() == RECTIFIER_DIGEST

    def test_value_derivative_consistency(self):
        act = nonlin.ShiftedReluLowpass(shift=-0.4, gain=1.3)
        eps = 1e-6
        for v in (0.1, 0.5, 0.9, 2.0):
            num = (act.value(v + eps) - act.value(v - eps)) / (2 * eps)
            np.testing.assert_allclose(act.derivative(v), num, atol=1e-6)

    def test_bias_derivative_consistency(self):
        act = nonlin.ShiftedReluLowpass(shift=0.0, gain=1.0)
        eps = 1e-7
        for v, b in [(0.5, -0.2), (1.5, -0.8), (0.4, -0.5)]:
            num = (act.value(v, b + eps) - act.value(v, b - eps)) / (2 * eps)
            np.testing.assert_allclose(act.bias_derivative(v, b), num, atol=1e-5)

    def test_bias_acts_as_amplitude_threshold(self):
        act = nonlin.ShiftedReluLowpass()
        b = -0.3
        for v in (0.05, 0.15, 0.29):
            assert act.value(v, b) == 0.0
        assert act.value(0.31, b) > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("v", [1e-300, 1e-200, 1e-160])
    def test_tiny_amplitudes_do_not_underflow(self, v):
        # v ** 2 underflows below about 1e-154; C is homogeneous of degree 1
        # in (v, a), so the slopes equal those at v = 1 and C scales with v
        gain = 1.3
        c, slope, dcdb = nonlin.ShiftedReluLowpass(0.0, gain).linearize(v)
        expected = [gain / 2, gain / 2, gain * 2 / np.pi]
        np.testing.assert_allclose([c / v, slope, dcdb], expected, rtol=1e-12)
        for ratio in (0.3, -0.3):
            got = np.array(nonlin.ShiftedReluLowpass(ratio * v, gain).linearize(v))
            assert np.isfinite(got).all()
            unit = np.array(nonlin.ShiftedReluLowpass(ratio, gain).linearize(1.0))
            np.testing.assert_allclose(got / [v, 1.0, 1.0], unit, rtol=1e-12)


class TestDiodeSolver:
    PARAMS = nonlin.DiodeCircuitParams(alpha_per_volt=33.0)

    def test_zero_input_exact_root(self):
        assert nonlin.diode_bandpass_response(self.PARAMS, 0.0) == 0.0

    def test_cutoff_saturation(self):
        ri = self.PARAMS.antenna_resistance_ohm * self.PARAMS.saturation_current_a
        u = nonlin.diode_bandpass_response(self.PARAMS, -10.0)
        np.testing.assert_allclose(u, -ri, rtol=1e-9)

    def test_bisection_oracle_half_volt(self):
        p = self.PARAMS
        ri = p.antenna_resistance_ohm * p.saturation_current_a

        def residual(u):
            return ri * np.expm1(2 * p.alpha_per_volt * (0.5 - u)) - u

        lo, hi = -ri, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if residual(mid) > 0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        got = nonlin.diode_bandpass_response(p, 0.5)
        np.testing.assert_allclose(got, oracle, atol=1e-10)

    def test_residual_tolerance_across_inputs(self):
        p = nonlin.DiodeCircuitParams(alpha_per_volt=56.0)
        ri = p.antenna_resistance_ohm * p.saturation_current_a
        for s in np.linspace(-2.0, 2.0, 41):
            u = nonlin.diode_bandpass_response(p, s)
            x = 2 * p.alpha_per_volt * (s - u)
            if x < 700:
                assert abs(ri * np.expm1(x) - u) <= 1e-12

    def test_vector_input_shape(self):
        s = np.array([[0.0, 0.1], [-0.5, 0.3]])
        u = nonlin.diode_bandpass_response(self.PARAMS, s)
        assert u.shape == s.shape
        assert u[0, 0] == 0.0

    def test_bias_folds_into_input(self):
        biased = nonlin.DiodeCircuitParams(alpha_per_volt=33.0, bias_volts=-0.2)
        u1 = nonlin.diode_bandpass_response(biased, 0.5)
        u2 = nonlin.diode_bandpass_response(self.PARAMS, 0.3)
        np.testing.assert_allclose(u1, u2, atol=1e-12)

    def test_scalar_in_float_out(self):
        u = nonlin.diode_bandpass_response(self.PARAMS, 0.3)
        assert type(u) is float
        vec = nonlin.diode_bandpass_response(self.PARAMS, np.array([0.3]))
        assert vec[0] == u

    def test_non_finite_input_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                nonlin.diode_bandpass_response(self.PARAMS, bad)
        with pytest.raises(ValueError, match="finite"):
            nonlin.diode_bandpass_response(self.PARAMS, np.array([[0.1, 0.2], [np.nan, 0.3]]))

    def test_small_input_matches_linearised_root(self):
        # u ~ kappa s / (1 + kappa) with kappa = 2 alpha R_A I_s
        p = nonlin.DiodeCircuitParams(alpha_per_volt=56.0)
        kappa = 2.0 * p.alpha_per_volt * p.antenna_resistance_ohm * p.saturation_current_a
        s = np.logspace(-10, -8, 21)
        u = nonlin.diode_bandpass_response(p, s)
        np.testing.assert_allclose(u, kappa * s / (1.0 + kappa), rtol=1e-5)

    def test_overflowing_input_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=r"alpha .* 1\.7e\+308 V"):
                nonlin.diode_bandpass_response(self.PARAMS, 1.7e308)

    def test_blocks_match_odd_slices(self):
        rng = np.random.default_rng(17)
        s = rng.uniform(-3.0, 3.0, (3, 33769))
        whole = nonlin.diode_bandpass_response(self.PARAMS, s)
        assert whole.shape == s.shape
        flat = s.ravel()
        cuts = [0, 1, 8, 1009, 16387, flat.size]
        pieces = [
            nonlin.diode_bandpass_response(self.PARAMS, flat[a:b])
            for a, b in zip(cuts, cuts[1:])
        ]
        np.testing.assert_array_equal(whole.ravel(), np.concatenate(pieces))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            nonlin.DiodeCircuitParams(alpha_per_volt=-1.0)
        with pytest.raises(ValueError):
            nonlin.DiodeCircuitParams(alpha_per_volt=1.0, bias_volts=0.1)


class TestWrightOmega:
    """The numpy Wright omega of the diode response against scipy's."""

    RTOL = 4e-15

    @staticmethod
    def omega(z):
        out = np.array(z, dtype=float)  # a C-contiguous copy
        # every flag but underflow raises: no masked-out element reaches exp or log
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            nonlin._wright_omega(out)
        return out

    def assert_matches_scipy(self, z):
        # the reference only: emstack itself loads no scipy.special
        from scipy.special import wrightomega

        want, got = wrightomega(z), self.omega(z)
        zero = want == 0.0
        np.testing.assert_array_equal(got[zero], 0.0)
        worst = float(np.max(np.abs(got - want)[~zero] / want[~zero]))
        assert worst <= self.RTOL, f"max relative difference {worst:.3e}"

    def test_diode_table_arguments(self):
        # the arguments diode_activation passes for a 2048-point table on [0, 1] V
        phi, _ = nonlin._gauss_legendre_nodes(nonlin._QUADRATURE_NODES)
        s = nonlin.tabulation_grid(1.0, 2048)[:, None] * np.cos(phi)
        ri = 73.0 * 1e-6
        for alpha in (33.0, 56.0, 80.0):
            self.assert_matches_scipy(2 * alpha * s + (2 * alpha * ri + np.log(2 * alpha * ri)))

    def test_uniform_wide_range(self):
        z = np.random.default_rng(25).uniform(-800.0, 800.0, 10**6)
        self.assert_matches_scipy(z)

    def test_branch_edges(self):
        edges = np.array([-50.0, -2.0, 1.0, 1e20])
        z = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
        self.assert_matches_scipy(z)

    def test_underflow_is_exactly_zero(self):
        z = np.array([-746.0, -800.0, -1e4, -1e300])
        got = self.omega(z)
        assert np.all(got == 0.0) and not np.signbit(got).any()

    def test_zero_dimensional(self):
        self.assert_matches_scipy(np.array(0.3))
        assert self.omega(np.array(-3.0)).shape == ()

    def test_memory_layouts(self):
        p = nonlin.DiodeCircuitParams(alpha_per_volt=56.0)
        s = np.random.default_rng(5).uniform(-1.0, 1.0, (97, 151))
        want = nonlin.diode_bandpass_response(p, s)
        np.testing.assert_array_equal(nonlin.diode_bandpass_response(p, np.asfortranarray(s)), want)
        np.testing.assert_array_equal(nonlin.diode_bandpass_response(p, s.T), want.T)
        np.testing.assert_array_equal(nonlin.diode_bandpass_response(p, s[:, ::3]), want[:, ::3])


class TestDiodeActivation:
    def test_zero_envelope_zero_output(self):
        for bias in (0.0, -0.4):
            p = nonlin.DiodeCircuitParams(alpha_per_volt=33.0, bias_volts=bias)
            act = nonlin.diode_activation(p, v_max=1.0, n_points=512)
            assert act.value(0.0) == 0.0

    def test_alpha_separates_curves(self):
        acts = [
            nonlin.diode_activation(
                nonlin.DiodeCircuitParams(alpha_per_volt=a), v_max=1.0, n_points=512
            )
            for a in (18.0, 33.0)
        ]
        v = 0.5
        assert abs(acts[0].value(v) - acts[1].value(v)) > 1e-3

    def test_tabulation_matches_direct_quadrature(self):
        p = nonlin.DiodeCircuitParams(alpha_per_volt=56.0)
        act = nonlin.diode_activation(p, v_max=0.05)
        dc = nonlin.DiodeCircuit(p)
        rng = np.random.default_rng(23)
        for v in rng.uniform(5e-4, 0.05, 20):
            direct = nonlin.lowpass_from_bandpass(dc, v)
            np.testing.assert_allclose(act.value(v), direct, rtol=1e-4)

    def test_table_peak_memory(self):
        # the argument matrix and the response it becomes; no third
        # grid x node array
        p = nonlin.DiodeCircuitParams(alpha_per_volt=56.0)
        nonlin.diode_activation(p, v_max=0.05)  # warm up the quadrature nodes
        tracemalloc.start()
        try:
            nonlin.diode_activation(p, v_max=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_array = 2048 * nonlin._QUADRATURE_NODES * 8
        assert peak < 2.5 * one_array

    def test_monotone_on_grid(self):
        p = nonlin.DiodeCircuitParams(alpha_per_volt=33.0, bias_volts=-0.4)
        act = nonlin.diode_activation(p, v_max=1.0)
        assert np.all(np.diff(act.values) >= -1e-12 * act.values.max())

    def test_quadrature_rule_is_computed_once_and_read_only(self):
        phi, w = nonlin._gauss_legendre_nodes(nonlin._QUADRATURE_NODES)
        assert nonlin._gauss_legendre_nodes(nonlin._QUADRATURE_NODES)[0] is phi
        assert not phi.flags.writeable and not w.flags.writeable

    def test_grid_floor_enforced(self):
        p = nonlin.DiodeCircuitParams(alpha_per_volt=33.0)
        with pytest.raises(ValueError):
            nonlin.diode_activation(p, v_max=1.0, n_points=64)


class TestTabulatedActivation:
    """A one-row TabulatedActivationSet: one curve for any amplitude shape."""

    def make(self):
        grid = np.array([0.0, 1.0, 2.0, 4.0])
        values = np.array([[0.0, 1.0, 1.5, 1.5]])
        return nonlin.TabulatedActivationSet(grid, values)

    def test_interpolation_and_clamp(self):
        act = self.make()
        np.testing.assert_allclose(act.value(0.5), 0.5)
        np.testing.assert_allclose(act.value(3.0), 1.5)
        np.testing.assert_allclose(act.value(10.0), 1.5)

    def test_segment_and_knot_derivatives(self):
        act = self.make()
        np.testing.assert_allclose(act.derivative(0.5), 1.0)
        np.testing.assert_allclose(act.derivative(1.5), 0.5)
        np.testing.assert_allclose(act.derivative(1.0), 0.75)  # knot average
        np.testing.assert_allclose(act.derivative(5.0), 0.0)  # clamped top
        np.testing.assert_allclose(act.derivative(4.0), 0.0)

    def test_any_amplitude_shape(self):
        act = self.make()
        v = np.array([[0.5, 1.0, 1.5], [3.0, 4.0, 10.0]])
        want_value = np.array([[0.5, 1.0, 1.25], [1.5, 1.5, 1.5]])
        want_slope = np.array([[1.0, 0.75, 0.5], [0.0, 0.0, 0.0]])
        assert np.ndim(act.value(0.5)) == 0 and np.ndim(act.derivative(0.5)) == 0
        np.testing.assert_allclose(act.value(v[0]), want_value[0])
        np.testing.assert_allclose(act.derivative(v[0]), want_slope[0])
        np.testing.assert_allclose(act.value(v), want_value)
        np.testing.assert_allclose(act.derivative(v), want_slope)

    def test_matches_numpy_interp(self):
        grid = np.linspace(0.0, 4.0, 16)
        curve = grid ** 1.5
        act = nonlin.TabulatedActivationSet(grid, curve[None, :])
        v = np.random.default_rng(3).uniform(0.0, 5.0, (7, 9))
        np.testing.assert_allclose(act.value(v), np.interp(v, grid, curve), rtol=1e-15)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            nonlin.TabulatedActivationSet(np.array([0.0, 0.0, 1.0]), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="increasing"):
            nonlin.TabulatedActivationSet(np.array([0.0, np.nan, 1.0]), np.zeros((1, 3)))
        # the knot locator orders amplitudes by their bits, which holds
        # only without the sign bit
        for first in (-1e-9, -0.0):
            with pytest.raises(ValueError, match=">= 0"):
                nonlin.TabulatedActivationSet(np.array([first, 0.5, 1.0]), np.zeros((1, 3)))

    def test_no_bias_support(self):
        act = self.make()
        with pytest.raises(NotImplementedError):
            act.value(1.0, bias=-0.1)
        assert act.bias_derivative(1.0) is None


def _two_search_lookup(act, v):
    """C[v] and C'[v] of a table by the lookup it used before
    ``linearize``: 2-D gathers, the segment slope zeroed at and beyond
    the last knot, and a second, left-side search for amplitudes on a
    knot, where the slope is the average of the adjacent segments."""
    grid, values = act.grid, act.values
    slopes = np.diff(values, axis=1) / np.diff(grid)
    knot_slopes = np.concatenate(
        [slopes[:, :1], 0.5 * (slopes[:, :-1] + slopes[:, 1:]), np.zeros((len(values), 1))],
        axis=1,
    )
    cells = 0 if len(values) == 1 else np.arange(len(values))
    seg = np.clip(np.searchsorted(grid, v, side="right") - 1, 0, grid.size - 2)
    left = grid[seg]
    t = np.clip((v - left) / (grid[seg + 1] - left), 0.0, 1.0)
    value = values[cells, seg] * (1.0 - t) + values[cells, seg + 1] * t
    slope = np.where(v >= grid[-1], 0.0, slopes[cells, seg])
    knot = np.searchsorted(grid, v)
    safe = np.minimum(knot, grid.size - 1)
    on_knot = (knot < grid.size) & (grid[safe] == v)
    return value, np.where(on_knot, knot_slopes[cells, safe], slope)


def _table_amplitudes(grid, rng, shape=(64, 16)):
    """Amplitudes on interior knots, on grid[0] = 0, on grid[-1], beyond
    the grid and between knots, mixed at random."""
    k = rng.integers(1, grid.size - 1, shape)
    cases = np.stack([
        grid[k],
        np.zeros(shape),
        np.full(shape, grid[-1]),
        grid[-1] * rng.uniform(1.0, 3.0, shape),
        grid[k] + rng.uniform(0.0, 1.0, shape) * (grid[k + 1] - grid[k]),
    ])
    return np.take_along_axis(cases, rng.integers(0, len(cases), (1, *shape)), axis=0)[0]


# one instance of every registered activation kind, at a nonzero bias
# where the family has one
LINEARIZE_CASES = {
    "constant_amplitude": nonlin.ConstantAmplitude(4 / np.pi),
    "power": nonlin.PowerLowpass(3, 0.75),
    "shifted_relu_lowpass": nonlin.ShiftedReluLowpass(shift=np.linspace(-0.2, 0.2, 16), gain=1.1),
    "fitted_relu": nonlin.FittedRelu(gain=np.linspace(0.3, 0.6, 16), knee=0.25),
    "tabulated_set": nonlin.TabulatedActivationSet(
        np.linspace(0.0, 1.0, 9), np.cumsum(np.arange(16 * 9).reshape(16, 9) % 5, axis=1) / 9.0
    ),
}


class TestLinearize:
    """``linearize(v, b)`` is ``(value(v, b), derivative(v, b),
    bias_derivative(v, b))`` bit for bit."""

    def test_every_kind_is_covered(self):
        assert set(LINEARIZE_CASES) == set(nonlin._ACTIVATION_KINDS)

    @pytest.mark.parametrize("kind", sorted(LINEARIZE_CASES))
    def test_equals_value_and_derivative(self, kind):
        act = LINEARIZE_CASES[kind]
        rng = np.random.default_rng(5)
        v = rng.uniform(0.0, 1.2, (64, 16))
        v[0] = 0.0
        v[1] = 0.25  # the fitted knee
        bias = -rng.uniform(0.0, 0.1, 16) if act.supports_bias else 0.0
        value, slope, dc_db = act.linearize(v, bias)
        assert np.array_equal(value, act.value(v, bias))
        assert np.array_equal(slope, act.derivative(v, bias))
        assert np.array_equal(dc_db, act.bias_derivative(v, bias))

    @pytest.mark.parametrize("kind", sorted(LINEARIZE_CASES))
    def test_slopes_match_central_differences(self, kind):
        act = LINEARIZE_CASES[kind]
        rng = np.random.default_rng(6)
        # strictly between the table's knots, the multiples of 1/8, and
        # off the fitted knees 0.25 - bias, which the biases put on knots
        v = (rng.integers(0, 10, (64, 16)) + rng.uniform(0.1, 0.9, (64, 16))) / 8.0
        bias = -(np.arange(16) % 3 + 1) / 8.0 if act.supports_bias else 0.0
        if kind == "shifted_relu_lowpass":  # C' grows like sqrt(v - |a|) past the knee
            knee = np.abs(act.shift + bias)
            v = np.where(np.abs(v - knee) < 1e-3, v + 2e-3, v)
        _, slope, dc_db = act.linearize(v, bias)
        assert act.supports_bias == (dc_db is not None)
        h = 1e-6
        numeric = (act.value(v + h, bias) - act.value(v - h, bias)) / (2 * h)
        np.testing.assert_allclose(slope, numeric, rtol=1e-6, atol=1e-6)
        if dc_db is not None:
            numeric = (act.value(v, bias + h) - act.value(v, bias - h)) / (2 * h)
            np.testing.assert_allclose(dc_db, numeric, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("cells", [1, 16])
    def test_table_matches_the_two_search_lookup(self, cells):
        rng = np.random.default_rng(cells)
        grid = nonlin.tabulation_grid(1.0, 512)
        values = np.cumsum(rng.uniform(0.0, 1e-3, (cells, grid.size)), axis=1)
        values[:, :3] = 0.0  # a flat start, as in diode cutoff
        act = nonlin.TabulatedActivationSet(grid, values)
        v = _table_amplitudes(grid, rng)
        want_value, want_slope = _two_search_lookup(act, v)
        value, slope, dc_db = act.linearize(v)
        assert dc_db is None
        assert np.array_equal(value, want_value)
        assert np.array_equal(slope, want_slope)
        assert np.array_equal(act.value(v), want_value)
        assert np.array_equal(act.derivative(v), want_slope)
        for row in range(len(v)):  # a batch row is the row alone
            alone = act.linearize(v[row])
            assert np.array_equal(alone[0], value[row]) and np.array_equal(alone[1], slope[row])
        if cells == 1:
            for s in (0.0, grid[7], 0.5 * (grid[7] + grid[8]), grid[-1], 2.0):
                got, want = act.linearize(s), _two_search_lookup(act, np.float64(s))
                assert np.ndim(got[0]) == np.ndim(got[1]) == 0
                assert got[0] == want[0] and got[1] == want[1], s

    def test_table_does_no_search(self, monkeypatch):
        act = LINEARIZE_CASES["tabulated_set"]

        def search(*args, **kwargs):
            raise AssertionError("the table searched its grid")

        monkeypatch.setattr(np, "searchsorted", search)
        act.linearize(np.full((4, 16), 0.5))


def _locator_grids():
    rng = np.random.default_rng(8)
    clustered = np.unique(np.concatenate([[0.0, 2.0], 1.0 + 1e-9 * rng.standard_normal(200)]))
    return {
        "tabulation-512": nonlin.tabulation_grid(1.0, 512),
        "tabulation-2048": nonlin.tabulation_grid(1.0, 2048),
        "tabulation-8192": nonlin.tabulation_grid(1.0, 8192),
        "linspace": np.linspace(0.0, 3.0, 100),
        "random": np.unique(np.concatenate([[0.0], rng.uniform(0.0, 5.0, 300)])),
        "positive-start": np.unique(rng.uniform(0.5, 5.0, 300)),
        "clustered": clustered,
        "two-knots": np.array([0.0, 1.0]),
        "subnormal-to-huge": np.array([0.0, 5e-324, 1e-300, 1e300]),
    }


class TestKnotLocator:
    """The O(1) knot locator is max(searchsorted(grid, v, "right") - 1, 0)."""

    @pytest.mark.parametrize("name", sorted(_locator_grids()))
    def test_matches_searchsorted(self, name):
        grid = _locator_grids()[name]
        act = nonlin.TabulatedActivationSet(grid, np.zeros((1, grid.size)))
        rng = np.random.default_rng(grid.size)
        queries = np.concatenate([
            grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
            [0.0, -0.0, -1.0, -np.inf, 5e-324, grid[-1] * 1.5, 1e300, np.inf],
            rng.uniform(0.0, 1.2 * grid[-1], 1000),
        ])
        want = np.maximum(np.searchsorted(grid, queries, side="right") - 1, 0)
        assert np.array_equal(act._locate(queries), want)
        assert act._start.size <= 4 * grid.size
        assert act._steps == 1 or not name.startswith("tabulation")
        for q, w in zip(queries[::7], want[::7]):  # 0-d queries
            assert act._locate(np.asarray(q)) == w

    def test_nan_amplitude_gives_nan_value(self):
        grid = nonlin.tabulation_grid(1.0, 512)
        act = nonlin.TabulatedActivationSet(grid, np.sqrt(grid)[None, :] + 1.0)
        value, _, _ = act.linearize(np.array([np.nan, 0.25, np.inf]))
        assert np.isnan(value[0]) and value[2] == act.values[0, -1]
        assert np.isnan(act.value(np.nan))


class TestReluFit:
    def test_self_fit_recovers_parameters(self):
        target = nonlin.FittedRelu(gain=0.7, knee=0.33)
        fit = nonlin.fit_relu_approximation(target, (0.0, 1.0))
        np.testing.assert_allclose(fit.gain, 0.7, atol=1e-6)
        np.testing.assert_allclose(fit.knee, 0.33, atol=1e-6)
        assert fit.residual_rms < 1e-8

    def test_diode_family_fit_quality(self):
        p = nonlin.DiodeCircuitParams(alpha_per_volt=33.0, bias_volts=-0.4)
        act = nonlin.diode_activation(p, v_max=1.0)
        fit = nonlin.fit_relu_approximation(act, (0.0, 1.0))
        assert fit.knee > 0
        assert fit.residual_rms < 0.05 * act.values.max()

    @pytest.mark.parametrize(
        "alpha, shift",
        [(115.29392891020585, 0.3694044110916809), (18.0, 0.4), (33.0, 0.4), (56.0, 0.4)],
        ids=["alpha-115", "alpha-18", "alpha-33", "alpha-56"],
    )
    def test_fit_is_the_best_of_a_dense_knee_scan(self, alpha, shift):
        params = nonlin.DiodeCircuitParams(alpha_per_volt=alpha, bias_volts=-shift)
        table = nonlin.diode_activation(params, v_max=1.0)
        fit = nonlin.fit_relu_approximation(table, (0.0, 1.0))
        # the least-squares gain at each of 20001 knees across the range
        grid, c = table.grid, table.values[0]
        best = np.inf
        for knees in np.array_split(np.linspace(0.0, 1.0, 20001), 40):
            m = np.maximum(grid - knees[:, None], 0.0)
            denom = np.sum(m * m, axis=1)
            g = np.divide(m @ c, denom, out=np.zeros_like(denom), where=denom > 0.0)
            rms = np.sqrt(np.mean((c - g[:, None] * m) ** 2, axis=1))
            best = min(best, float(rms.min()))
        assert fit.residual_rms <= best * (1.0 + 1e-12)

    def test_zero_width_range_rejected(self):
        with pytest.raises(ValueError):
            nonlin.fit_relu_approximation(nonlin.FittedRelu(1.0, 0.1), (0.5, 0.5))

    def test_zero_activation_rejected(self):
        with pytest.raises(ValueError):
            nonlin.fit_relu_approximation(nonlin.PowerLowpass(1, 0.0), (0.0, 1.0))


class TestApplyActivation:
    def test_relu_derived_halving(self):
        act = nonlin.closed_form_lowpass(nonlin.Relu())
        x = 2.0 * np.exp(1j * np.pi / 3)
        got = act.apply(x)
        np.testing.assert_allclose(got, np.exp(1j * np.pi / 3), rtol=1e-12)

    def test_polar_direction(self):
        x = np.array([[0.0, 3.0 - 4.0j, -2.0j], [1e-300, 0.0, -7.5 + 0.0j]])
        rho, direction = nonlin.polar(x)
        np.testing.assert_array_equal(rho, np.abs(x))
        assert np.all(direction[x == 0] == 0.0)
        np.testing.assert_allclose(np.abs(direction[x != 0]), 1.0, rtol=1e-15)
        np.testing.assert_allclose(rho * direction, x, rtol=1e-15)

    def test_zero_maps_to_zero(self):
        for act in (nonlin.ShiftedReluLowpass(), nonlin.ConstantAmplitude(4 / np.pi)):
            assert act.apply(0.0) == 0.0

    @pytest.mark.parametrize(
        "act",
        [
            nonlin.PowerLowpass(1, 0.5),
            nonlin.ShiftedReluLowpass(shift=-0.2),
            nonlin.FittedRelu(gain=0.4, knee=0.1),
            nonlin.ConstantAmplitude(1.0),
            nonlin.PowerLowpass(3, 0.75),
            nonlin.TabulatedActivationSet(
                np.linspace(0, 4, 16), np.linspace(0, 2, 16)[None, :] ** 1.5
            ),
            nonlin.PowerLowpass(1, 0.0),
        ],
        ids=["linear", "shifted", "fitted", "const", "power", "table", "zero"],
    )
    def test_phase_equivariance(self, act):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = rng.uniform(0.05, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            psi = rng.uniform(0, 2 * np.pi)
            lhs = act.apply(np.exp(1j * psi) * x)
            rhs = np.exp(1j * psi) * act.apply(x)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_batched_application(self):
        act = nonlin.PowerLowpass(1, 0.5)
        x = np.array([2.0, 2j, 0.0, -4.0])
        got = act.apply(x)
        np.testing.assert_allclose(got, [1.0, 1j, 0.0, -2.0])


class TestSampling:
    def test_alpha_bounds(self):
        a = nonlin.sample_static_alphas(1000, (55.0, 57.0), np.random.default_rng(2))
        assert np.all((a >= 55.0) & (a <= 57.0))

    def test_alpha_degenerate_interval(self):
        a = nonlin.sample_static_alphas(16, (33.0, 33.0), np.random.default_rng(2))
        np.testing.assert_array_equal(a, np.full(16, 33.0))

    def test_alpha_seed_reproducibility(self):
        a1 = nonlin.sample_static_alphas(64, (55, 57), np.random.default_rng(5))
        a2 = nonlin.sample_static_alphas(64, (55, 57), np.random.default_rng(5))
        np.testing.assert_array_equal(a1, a2)

    def test_bias_init_nonpositive(self):
        b = nonlin.sample_trainable_bias_init(1000, np.random.default_rng(3))
        assert np.all(b <= 0)

    def test_bias_init_half_normal_std(self):
        b = nonlin.sample_trainable_bias_init(100_000, np.random.default_rng(4))
        want = 1e-5 * np.sqrt(1 - 2 / np.pi)
        np.testing.assert_allclose(b.std(), want, rtol=0.02)

    def test_bias_init_seed_reproducibility(self):
        b1 = nonlin.sample_trainable_bias_init(32, np.random.default_rng(6))
        b2 = nonlin.sample_trainable_bias_init(32, np.random.default_rng(6))
        np.testing.assert_array_equal(b1, b2)


class TestSerialization:
    @pytest.mark.parametrize(
        "act",
        [
            nonlin.PowerLowpass(1, 0.5),
            nonlin.PowerLowpass(1, 0.0),
            nonlin.ConstantAmplitude(4 / np.pi),
            nonlin.PowerLowpass(3, 0.75),
            nonlin.ShiftedReluLowpass(shift=-0.3, gain=1.1),
            nonlin.FittedRelu(gain=0.38, knee=0.54),
            nonlin.TabulatedActivationSet(np.linspace(0, 1, 8), np.linspace(0, 0.5, 8)[None, :]),
        ],
        ids=["linear", "zero", "const", "power", "shifted", "fitted", "table"],
    )
    def test_round_trip(self, act):
        back = nonlin.activation_from_dict(nonlin.activation_to_dict(act))
        v = np.linspace(0, 0.9, 7)
        np.testing.assert_array_equal(back.value(v), act.value(v))

    @pytest.mark.parametrize("exponent", [0, -1, 2.5])
    def test_power_rejects_exponent_below_one_or_fractional(self, exponent):
        # exponent 0 would give C[0] = 1 and a NaN slope at 0, and 2.5 would truncate to 2
        with pytest.raises(ValueError, match="integer >= 1"):
            nonlin.PowerLowpass(exponent, 1.0)
        desc = {"kind": "power", "exponent": exponent, "coefficient": 1.0}
        with pytest.raises(ValueError, match="integer >= 1"):
            nonlin.activation_from_dict(desc)

    def test_unregistered_class_and_unknown_kind_rejected(self):
        class Unregistered(nonlin.FittedRelu):
            pass

        with pytest.raises(TypeError):
            nonlin.activation_to_dict(Unregistered(gain=0.5))
        with pytest.raises(ValueError, match="unknown activation kind"):
            nonlin.activation_from_dict({"kind": "warp", "gain": 0.5})
        # removed kinds: the linear and the zero map are PowerLowpass(1, g)
        # and PowerLowpass(1, 0), stored as kind "power"; a single curve is
        # a one-row "tabulated_set"
        removed = [
            {"kind": "scaled_linear", "gain": 0.5},
            {"kind": "zero"},
            {"kind": "tabulated", "grid": [0.0, 1.0], "values": [0.0, 0.5]},
        ]
        for desc in removed:
            with pytest.raises(ValueError, match=f"unknown activation kind '{desc['kind']}'"):
                nonlin.activation_from_dict(desc)
