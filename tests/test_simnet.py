"""Tests for the stacked-surface network: forward recursion, readout,
hand-derived gradients, checkpoints."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emstack import emfield, nonlin, simnet


def make_geometry(cells_per_side=2, num_layers=1, antennas=2):
    return emfield.build_geometry(
        carrier_frequency_hz=28e9,
        cells_per_side=cells_per_side,
        num_layers=num_layers,
        layer_spacing_m=0.05,
        output_distance_m=0.05,
        num_output_antennas=antennas,
    )


def quadratic_loss(target):
    """L = sum |y - t|^2 with packed cotangent 2 (y - t)."""
    target = np.asarray(target, dtype=complex)

    def fn(y):
        diff = y - target
        return float(np.sum(np.abs(diff) ** 2)), 2.0 * diff

    return fn


def random_field(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def relu_half():
    return nonlin.closed_form_lowpass(nonlin.Relu())


class TestForward:
    def test_single_zero_phase_layer_is_output_matrix(self):
        geom = make_geometry(num_layers=1)
        model = simnet.assemble_model(geom, [simnet.LinearLayer(np.zeros(geom.num_cells))])
        rng = np.random.default_rng(3)
        x = random_field(rng, geom.num_cells)
        trace = simnet.forward(model, x)
        expected = model.propagation.output @ x
        np.testing.assert_allclose(trace.output_field, expected, rtol=1e-12)

    def test_two_linear_layers_match_dense_composition(self):
        geom = make_geometry(cells_per_side=3, num_layers=2)
        rng = np.random.default_rng(4)
        l1 = simnet.uniform_phase_layer(geom.num_cells, rng)
        l2 = simnet.uniform_phase_layer(geom.num_cells, rng)
        model = simnet.assemble_model(geom, [l1, l2])
        x = random_field(rng, geom.num_cells)

        w2 = model.propagation.interlayer.matrix
        g = model.propagation.output
        dense = g @ np.diag(np.exp(1j * l2.phases)) @ w2 @ np.diag(np.exp(1j * l1.phases))
        trace = simnet.forward(model, x)
        np.testing.assert_allclose(trace.output_field, dense @ x, rtol=1e-12)

    def test_nonlinear_layer_halves_amplitude(self):
        # envelope map derived from a half-wave rectifier gives C[v] = v/2
        geom = make_geometry(num_layers=2)
        rng = np.random.default_rng(5)
        layers = [
            simnet.LinearLayer(np.zeros(geom.num_cells)),
            simnet.NonlinearLayer(relu_half(), np.zeros(geom.num_cells)),
        ]
        model = simnet.assemble_model(geom, layers)
        # identity output matrix: the output field is the last layer's output
        last = simnet.Propagation(model.propagation.interlayer, np.eye(geom.num_cells))
        x = random_field(rng, geom.num_cells)
        trace = simnet.forward(model, x)
        z = model.propagation.interlayer.matrix @ x
        np.testing.assert_allclose(
            simnet.forward(simnet.assemble_model(geom, layers, last), x).output_field,
            z / 2.0,
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            trace.output_field, model.propagation.output @ (z / 2.0), rtol=1e-12
        )

    def test_no_phase_factor_on_nonlinear_layer(self):
        # a nonlinear cell must not apply any programmable phase
        geom = make_geometry(num_layers=2)
        rng = np.random.default_rng(6)
        nl = simnet.NonlinearLayer(relu_half(), np.zeros(geom.num_cells))
        interlayer = simnet.compute_propagation(geom).interlayer
        model = simnet.assemble_model(
            geom,
            [simnet.LinearLayer(np.zeros(geom.num_cells)), nl],
            simnet.Propagation(interlayer, np.eye(geom.num_cells)),
        )
        x = random_field(rng, geom.num_cells)
        trace = simnet.forward(model, x)
        pre = trace.pre_activation[1]
        post = trace.output_field
        mask = np.abs(pre) > 0
        np.testing.assert_allclose(
            np.angle(post[mask]), np.angle(pre[mask]), atol=1e-12
        )

    def test_shared_coupling_matches_per_plane_dense_reference(self):
        # at this spacing l*s - (l-1)*s != s in the last bit, so the
        # per-plane matrices differ from the shared one by rounding only
        geom = emfield.build_geometry(28e9, 4, 6, 0.0123456789, 0.05, 2)
        m = geom.num_cells
        planes = [
            emfield.rayleigh_sommerfeld_matrix(geom, l, l + 1).entries for l in range(1, 6)
        ]
        assert not all(np.array_equal(w, planes[0]) for w in planes)
        rng = np.random.default_rng(41)
        layers = [simnet.uniform_phase_layer(m, rng) for _ in range(6)]
        layers[3] = simnet.NonlinearLayer(
            nonlin.ShiftedReluLowpass(gain=0.7), -np.abs(rng.standard_normal(m)) * 1e-3
        )
        model = simnet.assemble_model(geom, layers)
        batch = random_field(rng, (5, m))
        x = batch
        for i, layer in enumerate(layers):
            if i:
                x = x @ planes[i - 1].T
            if isinstance(layer, simnet.LinearLayer):
                x = np.exp(1j * layer.phases) * x
            else:
                x = layer.activation.apply(x, layer.biases)
        dense = x @ emfield.rayleigh_sommerfeld_matrix(geom, 6, emfield.OUTPUT_ARRAY).entries.T
        out = simnet.forward(model, batch).output_field
        assert np.max(np.abs(out - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_preset_spacing_planes_are_bit_identical(self):
        # three-wavelength spacing, as in the shipped presets
        geom = emfield.build_geometry(28e9, 8, 4, 3 * emfield.SPEED_OF_LIGHT / 28e9, 0.05, 2)
        shared = simnet.compute_propagation(geom).interlayer.matrix
        assert not shared.flags.writeable
        for l in range(1, 4):
            np.testing.assert_array_equal(
                emfield.rayleigh_sommerfeld_matrix(geom, l, l + 1).entries, shared
            )

    def test_single_layer_has_no_interlayer_coupling(self):
        geom = make_geometry(num_layers=1)
        rng = np.random.default_rng(42)
        model = simnet.assemble_model(geom, [simnet.uniform_phase_layer(geom.num_cells, rng)])
        assert model.propagation.interlayer is None
        trace = simnet.forward(model, random_field(rng, (3, geom.num_cells)))
        _, cot = quadratic_loss(np.zeros(2))(trace.output_field)
        grads = simnet.backward(model, trace, cot)
        assert set(grads) == {1}
        assert np.all(np.isfinite(grads[1]))

    def test_batched_forward_matches_single(self):
        geom = make_geometry(cells_per_side=3, num_layers=3)
        rng = np.random.default_rng(7)
        layers = [
            simnet.uniform_phase_layer(geom.num_cells, rng),
            simnet.NonlinearLayer(
                nonlin.FittedRelu(gain=0.5), np.full(geom.num_cells, -0.1)
            ),
            simnet.uniform_phase_layer(geom.num_cells, rng),
        ]
        model = simnet.assemble_model(geom, layers)
        batch = random_field(rng, (4, geom.num_cells))
        out = simnet.forward(model, batch).output_field
        for b in range(4):
            # batched and single-row matmuls may take different BLAS
            # paths, so agreement is to rounding, not bit-exact
            single = simnet.forward(model, batch[b]).output_field
            np.testing.assert_allclose(out[b], single, rtol=1e-12)

    def test_global_phase_equivariance(self):
        geom = make_geometry(num_layers=2)
        rng = np.random.default_rng(8)
        model = simnet.assemble_model(
            geom,
            [
                simnet.uniform_phase_layer(geom.num_cells, rng),
                simnet.NonlinearLayer(
                    nonlin.FittedRelu(gain=0.4), np.full(geom.num_cells, -0.05)
                ),
            ],
        )
        x = random_field(rng, geom.num_cells)
        rot = np.exp(1j * 1.234)
        base = simnet.forward(model, x).output_field
        spun = simnet.forward(model, rot * x).output_field
        np.testing.assert_allclose(spun, rot * base, rtol=1e-12)

    def test_positive_homogeneity_with_zero_bias(self):
        # knee-free surrogate is degree-1 homogeneous in amplitude
        geom = make_geometry(num_layers=2)
        rng = np.random.default_rng(9)
        model = simnet.assemble_model(
            geom,
            [
                simnet.uniform_phase_layer(geom.num_cells, rng),
                simnet.NonlinearLayer(relu_half(), np.zeros(geom.num_cells)),
            ],
        )
        x = random_field(rng, geom.num_cells)
        base = simnet.forward(model, x).output_field
        scaled = simnet.forward(model, 7.5 * x).output_field
        np.testing.assert_allclose(scaled, 7.5 * base, rtol=1e-12)

    def test_linear_layer_preserves_amplitude(self):
        geom = make_geometry(num_layers=1)
        rng = np.random.default_rng(10)
        model = simnet.assemble_model(
            geom,
            [simnet.uniform_phase_layer(geom.num_cells, rng)],
            simnet.Propagation(None, np.eye(geom.num_cells)),
        )
        x = random_field(rng, geom.num_cells)
        trace = simnet.forward(model, x)
        np.testing.assert_allclose(
            np.abs(trace.output_field), np.abs(trace.pre_activation[0]), rtol=1e-12
        )

    def test_trace_is_deterministic(self):
        geom = make_geometry(cells_per_side=3, num_layers=2)
        rng = np.random.default_rng(11)
        model = simnet.assemble_model(
            geom,
            [
                simnet.uniform_phase_layer(geom.num_cells, rng),
                simnet.NonlinearLayer(
                    nonlin.FittedRelu(gain=0.3), np.full(geom.num_cells, -0.2)
                ),
            ],
        )
        x = random_field(rng, (3, geom.num_cells))
        t1 = simnet.forward(model, x)
        t2 = simnet.forward(model, x)
        np.testing.assert_array_equal(t1.output_field, t2.output_field)
        for a, b in zip(t1.pre_activation, t2.pre_activation):
            np.testing.assert_array_equal(a, b)

    def test_rejects_wrong_input_width(self):
        geom = make_geometry()
        model = simnet.assemble_model(geom, [simnet.LinearLayer(np.zeros(geom.num_cells))])
        with pytest.raises(ValueError):
            simnet.forward(model, np.zeros(geom.num_cells + 1, dtype=complex))


BACKENDS = (simnet.DenseCoupling, simnet.TrigCoupling)


def spaced_geometry(cells_per_side, num_layers=2, spacing_m=0.0123456789):
    return emfield.build_geometry(28e9, cells_per_side, num_layers, spacing_m, 0.05, 2)


class TestCouplingOperator:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 7),
        spacing_m=st.floats(0.005, 0.1),
        batch=st.integers(1, 4),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_adjoint_identity(self, backend, n, spacing_m, batch, seed):
        # sum(W x . g) = sum(x . W g): W = W.T, so the backward pass steps
        # its conjugated cotangents through the coupling by ``apply``
        op = backend.build(spaced_geometry(n, spacing_m=spacing_m))
        rng = np.random.default_rng(seed)
        x = random_field(rng, (batch, n * n))
        g = random_field(rng, (batch, n * n))
        wx, wg = op.apply(x), op.apply(g)
        scale = max(
            np.linalg.norm(wx) * np.linalg.norm(g), np.linalg.norm(x) * np.linalg.norm(wg)
        )
        assert abs(np.sum(wx * g) - np.sum(x * wg)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 21, 28, 40])
    def test_trig_matches_dense_reference(self, n):
        # odd and even n fold about a centre row and between two rows
        geom = spaced_geometry(n)
        ref = emfield.rayleigh_sommerfeld_matrix(geom, 1, 2).entries
        assert np.array_equal(ref, ref.T)  # reciprocal coupling, bit for bit
        op = simnet.TrigCoupling.build(geom)
        rng = np.random.default_rng(n)
        m = geom.num_cells
        # batches that end inside, on and past the edges of the blocks
        # of b rows: 1, b - 1, b, b + 1, 8b + 1 and 2 x (b + 1) rows
        b = simnet._TRIG_BLOCK_ROWS
        edges = [(1, m), (b - 1, m), (b, m), (b + 1, m), (8 * b + 1, m), (2, b + 1, m)]
        for shape in [(m,), (3, m), (2, 3, m)] + edges:
            x = random_field(rng, shape)
            got, want = op.apply(x), x @ ref.T
            assert got.shape == shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_apply_is_the_only_operation(self):
        # the dense backend keeps W alone, and neither keeps an adjoint
        dense = simnet.DenseCoupling.build(spaced_geometry(4))
        assert list(vars(dense)) == ["matrix"]
        for backend in BACKENDS:
            public = {name for name in vars(backend) if not name.startswith("_")}
            assert public == {"build", "apply"}, backend.__name__

    def test_backends_agree_through_forward_and_backward(self):
        geom = spaced_geometry(4, num_layers=4)
        m = geom.num_cells
        rng = np.random.default_rng(43)
        layers = [simnet.uniform_phase_layer(m, rng) for _ in range(4)]
        layers[2] = simnet.NonlinearLayer(
            nonlin.ShiftedReluLowpass(), -np.abs(rng.normal(0.0, 0.3, m)) - 0.05,
            trainable=True,
        )
        output = emfield.rayleigh_sommerfeld_matrix(geom, 4, emfield.OUTPUT_ARRAY).entries
        batch = random_field(rng, (5, m))
        loss = quadratic_loss(random_field(rng, (5, 2)))
        runs = []
        for backend in BACKENDS:
            prop = simnet.Propagation(backend.build(geom), output)
            model = simnet.assemble_model(geom, layers, prop)
            trace = simnet.forward(model, batch)
            _, cot = loss(trace.output_field)
            runs.append((trace.output_field, simnet.backward(model, trace, cot)))
        (out_d, grads_d), (out_f, grads_f) = runs
        assert np.max(np.abs(out_f - out_d)) <= 1e-12 * np.max(np.abs(out_d))
        assert set(grads_f) == set(grads_d) == {1, 2, 3, 4}
        for k, g in grads_d.items():
            assert np.max(np.abs(grads_f[k] - g)) <= 1e-12 * np.max(np.abs(g))

    @pytest.mark.parametrize(
        "n, backend",
        [
            (simnet._TRIG_MIN_CELLS_PER_SIDE - 1, simnet.DenseCoupling),
            (simnet._TRIG_MIN_CELLS_PER_SIDE, simnet.TrigCoupling),
        ],
    )
    def test_backend_chosen_by_grid_size(self, n, backend):
        assert type(simnet.compute_propagation(spaced_geometry(n)).interlayer) is backend

    def test_single_layer_at_trig_size_has_no_coupling(self):
        geom = spaced_geometry(simnet._TRIG_MIN_CELLS_PER_SIDE, num_layers=1)
        assert simnet.compute_propagation(geom).interlayer is None

    def test_trig_allocates_at_most_two_blocks_beyond_its_output(self):
        op = simnet.TrigCoupling.build(spaced_geometry(40))
        x = random_field(np.random.default_rng(5), (320, 1600))
        # two (n, 2 rows, n) complex block buffers; the 16 KiB cover the
        # views and other small objects of a call
        buffers = 2 * 40 * 2 * simnet._TRIG_BLOCK_ROWS * 40 * 16
        tracemalloc.start()
        try:
            op.apply(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - x.nbytes <= buffers + 16 * 1024

    def test_trig_backend_holds_only_the_half_toeplitz_stack(self):
        op = simnet.compute_propagation(spaced_geometry(40)).interlayer
        # T_0 .. T_39 on P = 79 points, each 40 x 40: 40 * 40 * 40 * 16 B,
        # about 1 MB, and the four real transforms; no conjugated copy
        shapes = {
            "toeplitz": (40, 40, 40),
            "cos_forward": (40, 20),
            "sin_forward": (39, 20),
            "cos_inverse": (20, 40),
            "sin_inverse": (20, 39),
        }
        assert {name: a.shape for name, a in vars(op).items()} == shapes
        assert op.toeplitz.dtype == complex
        assert 1.0e6 < op.toeplitz.nbytes < 1.1e6
        for name in shapes:
            assert not getattr(op, name).flags.writeable
        for name in ("cos_forward", "sin_forward", "cos_inverse", "sin_inverse"):
            assert getattr(op, name).dtype == float

    @pytest.mark.parametrize("n", [21, 28, 40])
    def test_trig_row_is_independent_of_its_batch(self, n):
        # every block is padded to one GEMM shape, so a row's bits do not
        # depend on its neighbours, its place in a block or the batch size
        op = shared_propagation(n).interlayer
        x = random_field(np.random.default_rng(n), (64, n * n))
        b = simnet._TRIG_BLOCK_ROWS
        tail = 2 * b + 3  # its last block holds 3 rows
        batch = op.apply(x)
        partial = op.apply(x[:tail])
        for row in (0, b + 5, tail - 1, 63):
            assert np.array_equal(op.apply(x[row]), batch[row])
        assert np.array_equal(partial, batch[:tail])


# phase-preserving activations with scalar parameters, so any cell count fits
EQUIVARIANT_ACTIVATIONS = [
    pytest.param(nonlin.PowerLowpass(1, 0.7), id="LinearPowerLowpass"),
    pytest.param(nonlin.PowerLowpass(1, 0.0), id="ZeroPowerLowpass"),
    nonlin.ConstantAmplitude(4 / np.pi),
    nonlin.PowerLowpass(3, 0.75),
    nonlin.ShiftedReluLowpass(shift=-0.01, gain=1.1),
    nonlin.FittedRelu(gain=0.5, knee=0.005),
    nonlin.TabulatedActivationSet(
        np.linspace(0.0, 0.1, 9), np.sqrt(np.linspace(0.0, 0.05, 9))[None, :]
    ),
]

# cells per side -> propagation: dense at 4 cells per side, trig from 21 on
_PROPAGATIONS = {}


def shared_propagation(n):
    if n not in _PROPAGATIONS:
        _PROPAGATIONS[n] = simnet.compute_propagation(spaced_geometry(n, num_layers=3))
    return _PROPAGATIONS[n]


class TestProperties:
    @pytest.mark.parametrize("n", [4, 28])
    @pytest.mark.parametrize("act", EQUIVARIANT_ACTIVATIONS, ids=lambda a: type(a).__name__)
    @settings(max_examples=10, deadline=None)
    @given(phase=st.floats(0.0, 2.0 * np.pi), seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_phase_equivariance(self, n, act, phase, seed):
        propagation = shared_propagation(n)
        expected = simnet.TrigCoupling if n >= 28 else simnet.DenseCoupling
        assert isinstance(propagation.interlayer, expected)
        m = n * n
        rng = np.random.default_rng(seed)
        biases = -rng.uniform(0.0, 0.01, m) if act.supports_bias else np.zeros(m)
        layers = [
            simnet.uniform_phase_layer(m, rng),
            simnet.NonlinearLayer(act, biases),
            simnet.uniform_phase_layer(m, rng),
        ]
        model = simnet.assemble_model(spaced_geometry(n, num_layers=3), layers, propagation)
        x = 0.05 * random_field(rng, (2, m))
        rot = np.exp(1j * phase)
        out = simnet.forward(model, x).output_field
        spun = simnet.forward(model, rot * x).output_field
        assert np.max(np.abs(spun - rot * out)) <= 1e-12 * np.max(np.abs(out))

    @settings(max_examples=50, deadline=None)
    @given(
        r_min=st.floats(0.1, 5.0),
        width=st.floats(0.1, 5.0),
        r_frac=st.floats(0.0, 1.0),
        theta=st.floats(-np.pi / 2, np.pi / 2),
        scale=st.floats(1e-3, 1e3),
        phases=st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi)),
    )
    def test_readout_round_trip(self, r_min, width, r_frac, theta, scale, phases):
        # position inside the bounds -> the two output amplitudes -> readout
        r_max = r_min + width
        r = r_min + r_frac * width
        amplitudes = np.array([(r - r_min) / width, theta / np.pi + 0.5]) / scale
        y = amplitudes * np.exp(1j * np.array(phases))
        range_est, azimuth_est = simnet.polar_estimates(np.abs(y), scale, (r_min, r_max))
        position = emfield.plane_xy(range_est, azimuth_est)
        assert abs(range_est - r) <= 1e-12
        assert abs(azimuth_est - theta) <= 1e-12
        np.testing.assert_allclose(
            position, [r * np.cos(theta), r * np.sin(theta)], rtol=0, atol=1e-12
        )


def blocked_model(n, table=False):
    """Phase, nonlinear, phase: three layers on the shared propagation.
    The nonlinear layer is a fitted ReLU with biases, or with ``table`` a
    per-cell :class:`nonlin.TabulatedActivationSet` of one curve per cell."""
    geom = spaced_geometry(n, num_layers=3)
    m = geom.num_cells
    rng = np.random.default_rng(n)
    if table:
        grid = nonlin.tabulation_grid(2.0, 64)
        gains = rng.uniform(0.3, 0.6, (m, 1))
        nl = simnet.NonlinearLayer(nonlin.TabulatedActivationSet(grid, gains * np.sqrt(grid)), np.zeros(m))
    else:
        nl = simnet.NonlinearLayer(nonlin.FittedRelu(gain=0.5), -rng.uniform(0.0, 0.5, m))
    layers = [simnet.uniform_phase_layer(m, rng), nl, simnet.uniform_phase_layer(m, rng)]
    return simnet.assemble_model(geom, layers, shared_propagation(n))


class TestAmplitudes:
    @pytest.mark.parametrize("n", [4, 28, 40])
    def test_matches_traced_forward_bit_for_bit(self, n):
        # amplitudes runs the recursion in blocks and drops what each layer saves
        for model in (blocked_model(n), blocked_model(n, table=True)):
            rng = np.random.default_rng(11)
            fields = random_field(rng, (300, n * n))
            for count in (1, 63, 64, 65, 129):
                rows = rng.permutation(300)[:count]  # unsorted
                trace = simnet.forward(model, fields[rows])
                got = simnet.amplitudes(model, fields, rows)
                assert got.shape == (count, 2)
                assert np.array_equal(got, np.abs(trace.output_field))
                for k in range(1, model.num_layers + 1):
                    got = simnet.amplitudes(model, fields, rows, layer=k)
                    assert np.array_equal(got, np.abs(trace.pre_activation[k - 1]))

    def test_empty_rows_and_bad_arguments(self):
        model = blocked_model(4)
        fields = np.zeros((3, 16), dtype=complex)
        assert simnet.amplitudes(model, fields, np.array([], dtype=int)).shape == (0, 2)
        for layer in (0, 4):
            with pytest.raises(ValueError, match="outside"):
                simnet.amplitudes(model, fields, [0], layer=layer)
        with pytest.raises(ValueError, match="cell count"):
            simnet.amplitudes(model, np.zeros((3, 17), dtype=complex), [0])

    def test_memory_does_not_grow_with_rows(self):
        model = blocked_model(28)
        fields = random_field(np.random.default_rng(2), (640, 28 * 28))

        def peak(count):
            tracemalloc.start()
            try:
                simnet.amplitudes(model, fields, np.arange(count))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(640) < 2 * peak(64)


class TestAssembly:
    def test_layer_count_mismatch(self):
        geom = make_geometry(num_layers=2)
        with pytest.raises(ValueError):
            simnet.assemble_model(geom, [simnet.LinearLayer(np.zeros(geom.num_cells))])

    def test_cell_count_mismatch(self):
        geom = make_geometry(num_layers=1)
        with pytest.raises(ValueError):
            simnet.assemble_model(geom, [simnet.LinearLayer(np.zeros(3))])

    def test_propagation_reuse_is_identical(self):
        geom = make_geometry(cells_per_side=3, num_layers=2)
        shared = simnet.compute_propagation(geom)
        rng = np.random.default_rng(12)
        layers = [
            simnet.uniform_phase_layer(geom.num_cells, rng),
            simnet.uniform_phase_layer(geom.num_cells, rng),
        ]
        fresh = simnet.assemble_model(geom, layers)
        reused = simnet.assemble_model(geom, layers, propagation=shared)
        x = random_field(rng, geom.num_cells)
        np.testing.assert_array_equal(
            simnet.forward(fresh, x).output_field, simnet.forward(reused, x).output_field
        )

    def test_nl_layer_set(self):
        geom = make_geometry(num_layers=3)
        m = geom.num_cells
        model = simnet.assemble_model(
            geom,
            [
                simnet.LinearLayer(np.zeros(m)),
                simnet.NonlinearLayer(relu_half(), np.zeros(m)),
                simnet.LinearLayer(np.zeros(m)),
            ],
        )
        assert model.nl_layer_set == frozenset({2})

    def test_positive_bias_rejected(self):
        with pytest.raises(ValueError):
            simnet.NonlinearLayer(relu_half(), np.array([0.0, 1e-3, 0.0, 0.0]))

    def test_clone_detaches_parameters(self):
        geom = make_geometry(num_layers=2)
        rng = np.random.default_rng(13)
        model = simnet.assemble_model(
            geom,
            [
                simnet.uniform_phase_layer(geom.num_cells, rng),
                simnet.NonlinearLayer(
                    nonlin.FittedRelu(gain=0.5), np.full(geom.num_cells, -0.1), trainable=True
                ),
            ],
        )
        twin = model.clone()
        twin.layers[0].phases[0] += 1.0
        twin.layers[1].biases[0] -= 1.0
        assert twin.layers[0].phases[0] != model.layers[0].phases[0]
        assert twin.layers[1].biases[0] != model.layers[1].biases[0]
        assert twin.propagation is model.propagation

    def test_layer_copies_its_array(self):
        phases, biases = np.zeros(4), np.full(4, -0.1)
        layers = [simnet.LinearLayer(phases), simnet.NonlinearLayer(relu_half(), biases)]
        phases += 1.0
        biases -= 1.0
        np.testing.assert_array_equal(layers[0].phases, np.zeros(4))
        np.testing.assert_array_equal(layers[1].biases, np.full(4, -0.1))


class TestReadout:
    def test_endpoints(self):
        scale = 0.25
        y = np.array([0.0 + 0.0j, 0.0 + 0.0j])
        r, th = simnet.polar_estimates(np.abs(y), scale, (1.0, 3.0))
        assert r == pytest.approx(1.0)
        assert th == pytest.approx(-np.pi / 2.0)

        y = np.array([1.0 / scale + 0.0j, 1.0 / scale * 1j])
        r, th = simnet.polar_estimates(np.abs(y), scale, (1.0, 3.0))
        assert r == pytest.approx(3.0)
        assert th == pytest.approx(np.pi / 2.0)

    def test_position_is_polar_conversion(self):
        rng = np.random.default_rng(14)
        y = random_field(rng, (6, 2))
        r, th = simnet.polar_estimates(np.abs(y), 0.5, (1.0, 3.0))
        pos = emfield.plane_xy(r, th)
        np.testing.assert_allclose(pos[..., 0], r * np.cos(th), rtol=1e-12)
        np.testing.assert_allclose(pos[..., 1], r * np.sin(th), rtol=1e-12)

    def test_phase_of_output_is_ignored(self):
        y = np.array([2.0 + 0.0j, 1.0 + 0.0j])
        spun = y * np.exp(1j * 0.7)
        a = emfield.plane_xy(*simnet.polar_estimates(np.abs(y), 0.3, (1.0, 3.0)))
        b = emfield.plane_xy(*simnet.polar_estimates(np.abs(spun), 0.3, (1.0, 3.0)))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_validation(self):
        y = np.zeros(2, dtype=complex)
        with pytest.raises(ValueError):
            simnet.polar_estimates(np.abs(y), 0.0, (1.0, 3.0))
        with pytest.raises(ValueError):
            simnet.polar_estimates(np.zeros(3), 0.5, (1.0, 3.0))


class TestBackward:
    def test_single_cell_phase_gradient_closed_form(self):
        # one cell, one phase: y = g e^{j theta} x, L = |y - t|^2,
        # dL/dtheta = 2 Re[conj(y - t) j y]
        geom = make_geometry(cells_per_side=1, num_layers=1, antennas=1)
        theta = 0.8
        model = simnet.assemble_model(geom, [simnet.LinearLayer(np.array([theta]))])
        x = np.array([0.7 - 0.3j])
        target = np.array([0.1 + 0.2j])
        trace = simnet.forward(model, x)
        _, cot = quadratic_loss(target)(trace.output_field)
        grads = simnet.backward(model, trace, cot)

        y = trace.output_field[0]
        expected = 2.0 * np.real(np.conj(y - target[0]) * 1j * y)
        assert grads[1][0] == pytest.approx(expected, rel=1e-12)

    def test_single_cell_finite_difference(self):
        geom = make_geometry(cells_per_side=1, num_layers=1, antennas=1)
        model = simnet.assemble_model(geom, [simnet.LinearLayer(np.array([0.8]))])
        x = np.array([0.7 - 0.3j])
        loss = quadratic_loss(np.array([0.1 + 0.2j]))
        err = simnet.finite_difference_check(model, x, loss, step=1e-6)
        assert err < 1e-5

    def test_frozen_model_gives_empty_gradients(self):
        geom = make_geometry(num_layers=2)
        m = geom.num_cells
        model = simnet.assemble_model(
            geom,
            [
                simnet.LinearLayer(np.zeros(m), trainable=False),
                simnet.NonlinearLayer(relu_half(), np.zeros(m), trainable=False),
            ],
        )
        x = np.ones(m, dtype=complex)
        trace = simnet.forward(model, x)
        grads = simnet.backward(model, trace, np.ones_like(trace.output_field))
        assert grads == {}

    def test_static_layer_bias_absent_but_upstream_phase_present(self):
        geom = make_geometry(num_layers=2)
        m = geom.num_cells
        rng = np.random.default_rng(15)
        model = simnet.assemble_model(
            geom,
            [
                simnet.uniform_phase_layer(m, rng),
                simnet.NonlinearLayer(
                    nonlin.FittedRelu(gain=0.5), np.full(m, -1e-2), trainable=False
                ),
            ],
        )
        x = random_field(rng, m)
        trace = simnet.forward(model, x)
        loss = quadratic_loss(np.zeros(2))
        _, cot = loss(trace.output_field)
        grads = simnet.backward(model, trace, cot)
        assert set(grads) == {1}
        assert np.any(grads[1] != 0.0)

    def test_trainable_bias_without_derivative_raises(self):
        geom = make_geometry(num_layers=1)
        m = geom.num_cells
        table = nonlin.TabulatedActivationSet(
            np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.0, 9)[None, :]
        )
        model = simnet.assemble_model(
            geom, [simnet.NonlinearLayer(table, np.zeros(m), trainable=True)]
        )
        x = np.ones(m, dtype=complex)
        trace = simnet.forward(model, x)
        with pytest.raises(ValueError, match="bias"):
            simnet.backward(model, trace, np.ones_like(trace.output_field))

    def test_cotangent_shape_checked(self):
        geom = make_geometry(num_layers=1)
        model = simnet.assemble_model(geom, [simnet.LinearLayer(np.zeros(geom.num_cells))])
        trace = simnet.forward(model, np.ones(geom.num_cells, dtype=complex))
        with pytest.raises(ValueError):
            simnet.backward(model, trace, np.ones(5, dtype=complex))

    def test_batch_gradient_is_sum_of_samples(self):
        geom = make_geometry(num_layers=2)
        m = geom.num_cells
        rng = np.random.default_rng(16)
        model = simnet.assemble_model(
            geom,
            [
                simnet.uniform_phase_layer(m, rng),
                simnet.NonlinearLayer(
                    nonlin.FittedRelu(gain=0.5), np.full(m, -0.05), trainable=True
                ),
            ],
        )
        batch = random_field(rng, (3, m))
        loss = quadratic_loss(np.zeros(2))

        trace = simnet.forward(model, batch)
        _, cot = loss(trace.output_field)
        total = simnet.backward(model, trace, cot)

        phase_sum = np.zeros(m)
        bias_sum = np.zeros(m)
        for b in range(3):
            t = simnet.forward(model, batch[b])
            _, c = loss(t.output_field)
            g = simnet.backward(model, t, c)
            phase_sum += g[1]
            bias_sum += g[2]
        np.testing.assert_allclose(total[1], phase_sum, rtol=1e-12)
        np.testing.assert_allclose(total[2], bias_sum, rtol=1e-10, atol=1e-300)


def reference_backward(model, trace, output_cotangent):
    """:func:`simnet.backward` evaluating each nonlinear layer's value and
    derivative again from ``trace.pre_activation``, as it did before the
    forward pass kept them, and carrying the packed cotangent c itself,
    stepped back through the coupling as c @ conj(W)."""
    op = model.propagation.interlayer
    if isinstance(op, simnet.DenseCoupling):
        def coupling_adjoint(c):
            return c @ np.conj(op.matrix)
    else:
        def coupling_adjoint(c):
            return np.conj(op.apply(np.conj(c)))
    cot_x = np.asarray(output_cotangent, dtype=complex) @ np.conj(model.propagation.output)
    grads = {}
    for i in range(model.num_layers - 1, -1, -1):
        layer, z = model.layers[i], trace.pre_activation[i]
        if isinstance(layer, simnet.LinearLayer):
            phi = np.exp(1j * layer.phases)
            if layer.trainable:
                rows = (-1, z.shape[-1])
                batch_dot = np.einsum("bm,bm->m", np.conj(cot_x).reshape(rows), z.reshape(rows))
                grads[i + 1] = -np.imag(phi * batch_dot)
            cot_z = np.conj(phi) * cot_x
        else:
            act, biases = layer.activation, layer.biases
            rho, direction = nonlin.polar(z)
            safe_rho = np.where(rho > 0.0, rho, 1.0)
            amp = np.asarray(act.value(rho, biases), dtype=float)
            slope = np.asarray(act.derivative(rho, biases), dtype=float)
            u = np.conj(cot_x) * direction
            cot_z = direction * (slope * np.real(u) - 1j * (amp / safe_rho) * np.imag(u))
            if layer.trainable:
                dc_db = np.asarray(act.bias_derivative(rho, biases)) * np.real(u)
                grads[i + 1] = dc_db.reshape(-1, dc_db.shape[-1]).sum(axis=0)
        cot_x = cot_z if i == 0 else coupling_adjoint(cot_z)
    return grads


class TestLinearizedBackward:
    """backward takes each layer's phase factor, and each nonlinear
    layer's direction, slope, secant and bias derivative, from the trace
    and equals the reference that evaluates them again."""

    def _model(self, kind, cells, rng):
        geom = spaced_geometry(cells, num_layers=3)
        m = geom.num_cells
        if kind == "diode-table":  # fabrication-random diode cells, frozen
            alphas = rng.uniform(20.0, 40.0, m)
            diodes = (nonlin.DiodeCircuitParams(alpha_per_volt=a) for a in alphas)
            nl = simnet.NonlinearLayer(nonlin.diode_activation(*diodes, n_points=512), np.zeros(m))
        elif kind == "smooth":  # a bias derivative of its own
            act = nonlin.ShiftedReluLowpass(shift=rng.uniform(-0.2, 0.2, m), gain=0.7)
            nl = simnet.NonlinearLayer(act, -rng.uniform(0.0, 0.3, m), trainable=True)
        else:
            act = nonlin.FittedRelu(gain=rng.uniform(0.3, 0.6, m), knee=0.2)
            nl = simnet.NonlinearLayer(act, -rng.uniform(0.0, 0.3, m), trainable=True)
        layers = [simnet.uniform_phase_layer(m, rng), nl, simnet.uniform_phase_layer(m, rng)]
        return simnet.assemble_model(geom, layers)

    # a dense coupling at 3 cells per side and a trig one at 16; the diode
    # table stays dense, as tabulating 256 cells takes seconds
    @pytest.mark.parametrize(
        "kind, cells",
        [("diode-table", 3), ("fitted-relu", 3), ("smooth", 3),
         ("fitted-relu", 16), ("smooth", 16)],
        ids=["diode-table", "fitted-relu", "smooth", "fitted-relu-trig", "smooth-trig"],
    )
    def test_matches_reference_bit_for_bit(self, kind, cells, monkeypatch):
        rng = np.random.default_rng(31)
        model = self._model(kind, cells, rng)
        assert (cells >= simnet._TRIG_MIN_CELLS_PER_SIDE) == isinstance(
            model.propagation.interlayer, simnet.TrigCoupling
        )
        x = random_field(rng, (64, model.geometry.num_cells))
        x[0] = 0.0  # zero amplitudes at the nonlinear layer: secant 0
        trace = simnet.forward(model, x)
        _, cot = quadratic_loss(random_field(rng, (64, 2)))(trace.output_field)
        want = reference_backward(model, trace, cot)
        assert len(trace.saved) == 3 and isinstance(trace.saved[1], tuple)
        act = type(model.layers[1].activation)

        def evaluated(*args, **kwargs):
            raise AssertionError("backward evaluated a forward quantity again")

        for name in ("value", "derivative", "bias_derivative", "linearize"):
            monkeypatch.setattr(act, name, evaluated)
        monkeypatch.setattr(nonlin, "polar", evaluated)
        monkeypatch.setattr(np, "exp", evaluated)
        got = simnet.backward(model, trace, cot)
        assert got.keys() == want.keys() == ({1, 3} if kind == "diode-table" else {1, 2, 3})
        assert (trace.saved[1][3] is None) == (kind == "diode-table")
        for k, grad in want.items():
            assert np.array_equal(got[k], grad), k


class TestFiniteDifference:
    def _random_model(self, rng, num_layers, nl_positions):
        geom = make_geometry(cells_per_side=3, num_layers=num_layers)
        m = geom.num_cells
        layers = []
        for i in range(1, num_layers + 1):
            if i in nl_positions:
                biases = -np.abs(rng.normal(0.0, 0.3, m)) - 0.05
                layers.append(
                    simnet.NonlinearLayer(
                        nonlin.ShiftedReluLowpass(), biases, trainable=True
                    )
                )
            else:
                layers.append(simnet.uniform_phase_layer(m, rng))
        return simnet.assemble_model(geom, layers), m

    def test_mixed_stack_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for nl_positions in [(), (2,), (2, 3)]:
            model, m = self._random_model(rng, 3, nl_positions)
            x = random_field(rng, (2, m))
            loss = quadratic_loss(random_field(rng, (2, 2)))
            err = simnet.finite_difference_check(
                model, x, loss, step=1e-6, rng=rng, num_params=24
            )
            assert err < 1e-4, f"nl at {nl_positions}: {err}"

    def test_trig_coupling_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        dense, m = self._random_model(rng, 3, (2,))
        geom = dense.geometry
        prop = simnet.Propagation(simnet.TrigCoupling.build(geom), dense.propagation.output)
        model = simnet.assemble_model(geom, dense.layers, prop)
        x = random_field(rng, (2, m))
        loss = quadratic_loss(random_field(rng, (2, 2)))
        err = simnet.finite_difference_check(model, x, loss, step=1e-6, rng=rng, num_params=24)
        assert err < 1e-4

    def test_smooth_kink_free_surrogate_gradients(self):
        rng = np.random.default_rng(18)
        geom = make_geometry(cells_per_side=2, num_layers=2)
        m = geom.num_cells
        model = simnet.assemble_model(
            geom,
            [
                simnet.uniform_phase_layer(m, rng),
                simnet.NonlinearLayer(
                    nonlin.FittedRelu(gain=0.7), -np.abs(rng.normal(0.5, 0.1, m)),
                    trainable=True,
                ),
            ],
        )
        # keep probe amplitudes away from the surrogate knees
        x = 5.0 * random_field(rng, m)
        loss = quadratic_loss(random_field(rng, 2))
        err = simnet.finite_difference_check(model, x, loss, step=1e-6, rng=rng)
        assert err < 1e-4

    def test_zero_input_trivially_passes(self):
        rng = np.random.default_rng(19)
        model, m = self._random_model(rng, 2, (2,))
        loss = quadratic_loss(np.zeros(2))
        err = simnet.finite_difference_check(model, np.zeros(m, dtype=complex), loss)
        assert err == 0.0

    def test_zero_amplitude_cell_gets_zero_gradient(self):
        # dead cell: no signal reaches it, so its bias cannot matter
        geom = make_geometry(num_layers=1)
        m = geom.num_cells
        model = simnet.assemble_model(
            geom,
            [simnet.NonlinearLayer(relu_half(), np.zeros(m), trainable=True)],
        )
        x = np.zeros(m, dtype=complex)
        x[0] = 1.0 + 1.0j
        trace = simnet.forward(model, x)
        _, cot = quadratic_loss(np.zeros(2))(trace.output_field)
        grads = simnet.backward(model, trace, cot)
        assert np.all(grads[1][1:] == 0.0)

    def test_rejects_nonpositive_step(self):
        rng = np.random.default_rng(20)
        model, m = self._random_model(rng, 2, ())
        with pytest.raises(ValueError):
            simnet.finite_difference_check(
                model, np.zeros(m, dtype=complex), quadratic_loss(np.zeros(2)), step=0.0
            )

    def test_rejects_nonpositive_num_params(self):
        # checking no coordinate would pass any gradient, even one 3.5 times
        # too large, which the default sample of coordinates catches
        rng = np.random.default_rng(20)
        model, m = self._random_model(rng, 2, ())
        x = random_field(rng, (2, m))
        exact = quadratic_loss(random_field(rng, (2, 2)))

        def inflated(y):
            value, cot = exact(y)
            return value, 3.5 * cot

        assert simnet.finite_difference_check(model, x, inflated) == pytest.approx(2.5 / 3.5)
        for num_params in (0, -1):
            with pytest.raises(ValueError, match="num_params"):
                simnet.finite_difference_check(model, x, inflated, num_params=num_params)


LOCKED_CHECKPOINT = (
    '{"format": "emstack-checkpoint-1", "geometry": {"carrier_frequency_hz": 28000000000.0, '
    '"cells_per_side": 2, "num_layers": 2, "layer_spacing_m": 0.03, "output_distance_m": 0.02, '
    '"num_output_antennas": 2, "output_spacing_m": 0.005}, "layers": [{"kind": "linear", '
    '"phases": [0.0, 0.5, 1.0, 1.5], "trainable": true}, {"kind": "nonlinear", '
    '"activation": ACTIVATION, "biases": [0.0, -0.25, -0.5, -1.0], "trainable": true}], '
    '"readout_scale": 2.5}'
)

# kind -> (activation, its locked checkpoint entry)
LOCKED_ACTIVATIONS = {
    "constant_amplitude": (
        nonlin.ConstantAmplitude(level=1.25),
        '{"kind": "constant_amplitude", "level": 1.25}',
    ),
    "power": (
        nonlin.PowerLowpass(exponent=3, coefficient=0.375),
        '{"kind": "power", "exponent": 3, "coefficient": 0.375}',
    ),
    "shifted_relu_lowpass": (
        nonlin.ShiftedReluLowpass(shift=np.array([0.0, 0.125, -0.125, 0.25]), gain=0.5),
        '{"kind": "shifted_relu_lowpass", "shift": [0.0, 0.125, -0.125, 0.25], "gain": 0.5}',
    ),
    "fitted_relu": (
        nonlin.FittedRelu(gain=0.5, knee=np.array([0.0, 0.1, 0.2, 0.3])),
        '{"kind": "fitted_relu", "gain": 0.5, "knee": [0.0, 0.1, 0.2, 0.3]}',
    ),
    "tabulated_set": (
        nonlin.TabulatedActivationSet(np.array([0.0, 0.5, 1.0]), np.array([[0.0, 0.25, 0.75]])),
        '{"kind": "tabulated_set", "grid": [0.0, 0.5, 1.0], "values": [[0.0, 0.25, 0.75]]}',
    ),
}


class TestCheckpoint:
    def _model(self, rng):
        geom = make_geometry(cells_per_side=3, num_layers=3)
        m = geom.num_cells
        return simnet.assemble_model(
            geom,
            [
                simnet.uniform_phase_layer(m, rng),
                simnet.NonlinearLayer(
                    nonlin.FittedRelu(gain=0.5),
                    -np.abs(rng.normal(0.0, 1e-5, m)),
                    trainable=True,
                ),
                simnet.uniform_phase_layer(m, rng),
            ],
            readout_scale=0.123456789,
        )

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        model = self._model(rng)
        path = tmp_path / "model.json"
        simnet.save_checkpoint(path, model, extra={"epoch": 7})
        loaded, extra = simnet.load_checkpoint(path)
        assert extra == {"epoch": 7}
        assert loaded.readout_scale == model.readout_scale
        assert loaded.geometry.parameters() == model.geometry.parameters()
        for a, b in zip(model.layers, loaded.layers):
            if isinstance(a, simnet.LinearLayer):
                np.testing.assert_array_equal(a.phases, b.phases)
                assert a.trainable == b.trainable
            else:
                np.testing.assert_array_equal(a.biases, b.biases)
                assert a.trainable == b.trainable
        x = random_field(rng, model.geometry.num_cells)
        np.testing.assert_array_equal(
            simnet.forward(model, x).output_field, simnet.forward(loaded, x).output_field
        )

    def test_load_with_shared_propagation(self, tmp_path):
        rng = np.random.default_rng(22)
        model = self._model(rng)
        path = tmp_path / "model.json"
        simnet.save_checkpoint(path, model)
        loaded, _ = simnet.load_checkpoint(path, propagation=model.propagation)
        assert loaded.propagation is model.propagation

    def test_per_cell_activation_round_trip(self, tmp_path):
        geom = make_geometry(num_layers=1)
        m = geom.num_cells
        rng = np.random.default_rng(23)
        act = nonlin.FittedRelu(gain=rng.uniform(0.3, 0.6, m), knee=rng.uniform(0.0, 0.2, m))
        model = simnet.assemble_model(
            geom, [simnet.NonlinearLayer(act, np.zeros(m))]
        )
        path = tmp_path / "model.json"
        simnet.save_checkpoint(path, model)
        loaded, _ = simnet.load_checkpoint(path)
        act2 = loaded.layers[0].activation
        np.testing.assert_array_equal(act.gain, act2.gain)
        np.testing.assert_array_equal(act.knee, act2.knee)

    def test_tabulated_set_round_trip(self, tmp_path):
        geom = make_geometry(num_layers=1)
        m = geom.num_cells
        grid = np.linspace(0.0, 1.0, 17)
        values = np.outer(np.linspace(0.2, 0.8, m), grid)
        act = nonlin.TabulatedActivationSet(grid, values)
        model = simnet.assemble_model(geom, [simnet.NonlinearLayer(act, np.zeros(m))])
        path = tmp_path / "model.json"
        simnet.save_checkpoint(path, model)
        loaded, _ = simnet.load_checkpoint(path)
        act2 = loaded.layers[0].activation
        assert isinstance(act2, nonlin.TabulatedActivationSet)
        np.testing.assert_array_equal(act.grid, act2.grid)
        np.testing.assert_array_equal(act.values, act2.values)

    def test_failed_save_keeps_existing_checkpoint(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(26)
        model = self._model(rng)
        path = tmp_path / "model.json"
        simnet.save_checkpoint(path, model, extra={"epoch": 1})
        before = path.read_bytes()

        def partial_dump(obj, fh, **kwargs):
            fh.write('{"format": ')
            raise OSError("disk full")

        monkeypatch.setattr(simnet.json, "dump", partial_dump)
        with pytest.raises(OSError, match="disk full"):
            simnet.save_checkpoint(path, model, extra={"epoch": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            simnet.model_from_dict({"format": "something-else"})

    def test_unknown_layer_kind_rejected(self):
        data = simnet.model_to_dict(self._model(np.random.default_rng(25)))
        data["layers"][1]["kind"] = "quantum"
        with pytest.raises(ValueError, match="unknown layer kind 'quantum'"):
            simnet.model_from_dict(data)

    @pytest.mark.parametrize("kind", list(LOCKED_ACTIVATIONS))
    def test_format_is_locked(self, kind):
        # the emstack-checkpoint-1 text, key order included; an int frequency
        # and a numpy count are stored as float and int
        geometry = emfield.build_geometry(28_000_000_000, np.int64(2), 2, 0.03, 0.02, 2, 0.005)
        layers = [
            simnet.LinearLayer(np.array([0.0, 0.5, 1.0, 1.5])),
            simnet.NonlinearLayer(
                LOCKED_ACTIVATIONS[kind][0], np.array([0.0, -0.25, -0.5, -1.0]), trainable=True
            ),
        ]
        model = simnet.assemble_model(geometry, layers, readout_scale=2.5)
        want = LOCKED_CHECKPOINT.replace("ACTIVATION", LOCKED_ACTIVATIONS[kind][1])
        assert json.dumps(simnet.model_to_dict(model)) == want

    def test_json_payload_is_stable(self):
        rng = np.random.default_rng(24)
        model = self._model(rng)
        a = json.dumps(simnet.model_to_dict(model), sort_keys=True)
        b = json.dumps(simnet.model_to_dict(model), sort_keys=True)
        assert a == b
