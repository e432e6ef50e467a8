"""Acceptance battery: eight criteria, one PASS/FAIL line each.

Covers the envelope-map theory oracles, the diode solver, gradient
correctness, physics invariants, the matched-filter baseline, and the
desk-scale training trends (nonlinear layer placement, depth scaling,
trainable versus fabrication-random operating points).  The final
full-scale criterion trains for about 15-18 min on 2 cores with one BLAS
thread and only runs with EMSTACK_RUN_SLOW=1.
"""

import os

import numpy as np
import pytest

from emstack import baselines, cli, emfield, nonlin, simnet, trainer


@pytest.fixture
def report(capsys):
    """One live PASS/FAIL line per criterion, outside pytest capture."""

    def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}"
        if detail:
            line += f" [{detail}]"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def desk_geometry(cells_per_side=8, num_layers=4):
    wavelength = emfield.SPEED_OF_LIGHT / 28e9
    return emfield.build_geometry(
        carrier_frequency_hz=28e9,
        cells_per_side=cells_per_side,
        num_layers=num_layers,
        layer_spacing_m=3.0 * wavelength,
        output_distance_m=3.0 * wavelength,
    )


def mean_rows(results_path):
    """(point, variant) -> mean test RMSE from a results.csv."""
    out = {}
    for line in results_path.read_text().splitlines()[2:]:
        sweep, point, variant, seed, rmse = line.split(",")
        if seed == "mean":
            out[(point, variant)] = float(rmse)
        elif variant == "ml":
            out[(point, "ml")] = float(rmse)
    return out


def test_criterion_1_envelope_closed_forms(report):
    """Quadrature envelope map against every closed form, plus the
    identity device returning its amplitude unchanged."""
    rng = np.random.default_rng(1)
    worst = 0.0
    devices = [
        nonlin.Relu(),
        nonlin.ShiftedRelu(-0.5),
        nonlin.ShiftedRelu(0.5),
        nonlin.AbsoluteValue(),
        nonlin.Sign(),
    ]
    for device in devices:
        closed = nonlin.closed_form_lowpass(device)
        for v in rng.uniform(0.0, 3.0, 50):
            gap = abs(nonlin.lowpass_from_bandpass(device, v) - closed.value(v))
            worst = max(worst, gap)

    ident = nonlin.OddPower(1)
    ident_worst = 0.0
    for v in rng.uniform(0.0, 3.0, 50):
        ident_worst = max(ident_worst, abs(nonlin.lowpass_from_bandpass(ident, v) - v))
    # the integral convention keeps C[v] = v; the halved catalog
    # coefficient is available but must stay opt-in
    assert nonlin.OddPower(1).closed_form().value(1.0) == 1.0
    assert nonlin.OddPower(1, use_catalog_coefficient=True).closed_form().value(1.0) == 0.5

    ok = worst < 1e-7 and ident_worst < 1e-7
    report(
        1,
        "envelope quadrature matches closed forms",
        ok,
        f"max abs err {worst:.2e}, identity err {ident_worst:.2e}",
    )


def test_criterion_2_diode_solver(report):
    """Transcendental cell response: residual at random operating
    points and saturation toward -R_A I_s in deep cutoff."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        params = nonlin.DiodeCircuitParams(alpha_per_volt=rng.uniform(18.0, 57.0))
        s = rng.uniform(-2.0, 2.0)
        u = nonlin.diode_bandpass_response(params, s)
        ri = params.antenna_resistance_ohm * params.saturation_current_a
        worst = max(worst, abs(u - ri * np.expm1(2.0 * params.alpha_per_volt * (s - u))))

    cutoff_rel = 0.0
    for alpha in (18.0, 37.5, 57.0):
        params = nonlin.DiodeCircuitParams(alpha_per_volt=alpha)
        ri = params.antenna_resistance_ohm * params.saturation_current_a
        u = nonlin.diode_bandpass_response(params, -5.0)
        cutoff_rel = max(cutoff_rel, abs(u + ri) / ri)

    ok = worst <= 1e-12 and cutoff_rel <= 1e-9
    report(
        2,
        "diode solver residual and cutoff limit",
        ok,
        f"max residual {worst:.2e}, cutoff rel err {cutoff_rel:.2e}",
    )


def _random_check_model(rng):
    """One of 20 randomized stacks: M <= 16, L <= 3, nonlinear layer
    present or absent, biases trainable or frozen, both surrogate
    families."""
    cells = int(rng.integers(2, 5))  # M in {4, 9, 16}
    depth = int(rng.integers(1, 4))
    geom = desk_geometry(cells_per_side=cells, num_layers=depth)
    m = geom.num_cells
    style = int(rng.integers(0, 4))  # 0: all linear
    nl_position = int(rng.integers(1, depth + 1))
    layers = []
    for l in range(1, depth + 1):
        if style > 0 and l == nl_position:
            if style == 1:
                act = nonlin.ShiftedReluLowpass()
                biases = -np.abs(rng.normal(0.0, 0.3, m)) - 0.05
                layer = simnet.NonlinearLayer(act, biases, trainable=True)
            elif style == 2:
                act = nonlin.FittedRelu(gain=0.6)
                biases = -np.abs(rng.normal(0.5, 0.1, m))
                layer = simnet.NonlinearLayer(act, biases, trainable=True)
            else:
                act = nonlin.ShiftedReluLowpass(gain=0.7)
                biases = -np.abs(rng.normal(0.0, 0.3, m)) - 0.05
                layer = simnet.NonlinearLayer(act, biases, trainable=False)
            layers.append(layer)
        else:
            layers.append(simnet.uniform_phase_layer(m, rng))
    model = simnet.assemble_model(geom, layers)
    x = 4.0 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return model, x, nl_position if style > 0 else None


def _knee_distance(model, x, nl_position):
    """Smallest |amplitude - knee| at the nonlinear layer, infinity for
    kink-free stacks."""
    if nl_position is None:
        return np.inf
    layer = model.layers[nl_position - 1]
    if not isinstance(layer.activation, nonlin.FittedRelu):
        return np.inf
    trace = simnet.forward(model, x)
    rho = np.abs(trace.pre_activation[nl_position - 1])
    knee = layer.activation.knee - layer.biases
    return float(np.min(np.abs(rho - knee)))


def test_criterion_3_gradient_checks(report):
    """Hand-derived adjoints against central differences on randomized
    stacks, excluding operating points within 1e-6 of a surrogate
    knee."""
    rng = np.random.default_rng(3)
    worst = 0.0
    built = 0
    while built < 20:
        model, x, nl_position = _random_check_model(rng)
        if _knee_distance(model, x, nl_position) < 1e-6:
            continue  # the surrogate kink makes central differences meaningless
        target = rng.standard_normal(2) + 1j * rng.standard_normal(2)

        def loss(y, target=target):
            d = y - target
            return float(np.sum(np.abs(d) ** 2)), 2.0 * d

        err = simnet.finite_difference_check(
            model, x, loss, step=1e-6, rng=rng, num_params=32
        )
        worst = max(worst, err)
        built += 1
    ok = worst < 1e-4
    report(3, "gradients match finite differences", ok, f"max rel err {worst:.2e}")


def test_criterion_4_physics_invariants(report):
    """Steering-vector norm, channel power budget, linearity of the
    all-phase stack, and global-phase equivariance of the nonlinear
    stack."""
    rng = np.random.default_rng(4)
    geom = desk_geometry()
    m = geom.num_cells

    norm_err = 0.0
    for _ in range(200):
        pos = emfield.UePosition(rng.uniform(1.0, 3.0), rng.uniform(-1.2, 1.2))
        norm_err = max(
            norm_err, abs(np.linalg.norm(emfield.array_response(geom, pos)) - 1.0)
        )

    moment_err = 0.0
    pos = emfield.UePosition(2.0, 0.4)
    gain = emfield.path_loss(geom, pos)
    for kappa in (1.0, 100.0):
        total = 0.0
        for _ in range(10 ** 5):
            h = emfield.rician_channel(geom, pos, kappa, rng)
            total += np.sum(np.abs(h) ** 2)
        moment_err = max(moment_err, abs(total / 10 ** 5 * gain - 1.0))

    prop = simnet.compute_propagation(geom)
    lin = baselines.linear_sim_model(geom, rng, prop)
    x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    c = 0.8 - 1.7j
    ref = np.max(np.abs(simnet.forward(lin, x).output_field))
    hom = np.max(
        np.abs(
            simnet.forward(lin, c * x).output_field
            - c * simnet.forward(lin, x).output_field
        )
    )

    layers = [simnet.uniform_phase_layer(m, rng) for _ in range(geom.num_layers - 1)]
    layers.append(
        simnet.NonlinearLayer(
            nonlin.ShiftedReluLowpass(), -np.abs(rng.normal(0.0, 0.3, m))
        )
    )
    nl_model = simnet.assemble_model(geom, layers, prop)
    rot = np.exp(1j * 1.234)
    ref_nl = np.max(np.abs(simnet.forward(nl_model, x).output_field))
    equi = np.max(
        np.abs(
            simnet.forward(nl_model, rot * x).output_field
            - rot * simnet.forward(nl_model, x).output_field
        )
    )

    ok = (
        norm_err <= 1e-12
        and moment_err <= 0.01
        and hom <= 1e-13 * max(ref, 1e-300)
        and equi <= 1e-13 * max(ref_nl, 1e-300)
    )
    report(
        4,
        "physics invariants",
        ok,
        f"norm {norm_err:.1e}, power {moment_err:.2%}, "
        f"homogeneity {hom / max(ref, 1e-300):.1e}, equivariance {equi / max(ref_nl, 1e-300):.1e}",
    )


def test_criterion_5_matched_filter_baseline(report):
    """Noiseless on-grid positions recovered exactly on a 50 x 50 grid
    at M = 256; under the default noise and power budget the error
    stays within twice the grid cell's Cartesian diagonal."""
    geom = desk_geometry(cells_per_side=16, num_layers=1)
    grid = baselines.make_search_grid((1.0, 3.0), np.deg2rad(70.0), 50, 50)
    n_r, n_th = grid.shape
    # flat candidate list in the estimator's order: range-major,
    # azimuth-fastest
    rows = baselines.steering_rows(
        geom, np.repeat(grid.r_points, n_th), np.tile(grid.theta_points, n_r)
    )

    gram = np.abs(rows.conj() @ rows.T) ** 2
    # per input column, argmax over the candidate axis with the same
    # first-occurrence tie rule as the estimator
    winners = np.argmax(gram, axis=0)
    exact_all = bool(np.all(winners == np.arange(rows.shape[0])))

    rng = np.random.default_rng(5)
    spot_ok = True
    for flat in rng.choice(rows.shape[0], size=60, replace=False):
        scale = rng.normal() + 1j * rng.normal()
        r_hat, theta_hat = baselines.ml_estimate(scale * rows[flat], geom, grid)
        i, j = divmod(int(flat), grid.theta_points.size)
        spot_ok = spot_ok and (r_hat == grid.r_points[i]) and (
            theta_hat == grid.theta_points[j]
        )

    dataset = trainer.generate_dataset(geom, emfield.Scenario(), 300, rng)
    noisy = baselines.evaluate_ml(
        dataset,
        geom,
        np.arange(300),
        lambda field: baselines.ml_estimate(field, geom, grid),
    )
    budget = 2.0 * baselines.grid_cell_diagonal(grid)

    ok = exact_all and spot_ok and noisy.rmse <= budget
    report(
        5,
        "matched-filter baseline recovery",
        ok,
        f"on-grid exact {exact_all}, spot checks {spot_ok}, "
        f"noisy RMSE {noisy.rmse:.4f} m vs budget {budget:.4f} m",
    )


def test_criterion_6_nl_placement_trend(tmp_path, report):
    """Sweeping the single nonlinear layer through a 4-layer stack,
    the final position gives strictly the lowest mean test RMSE."""
    cfg = cli.load_config(cli.load_preset("desk-placement"))
    out = cli.run_experiment(cfg, tmp_path)
    means = mean_rows(out / "results.csv")
    by_position = [means[(str(l), "trainable")] for l in range(1, 5)]
    last = by_position[-1]
    ok = all(last < other for other in by_position[:-1])
    report(
        6,
        "nonlinear layer placed last is strictly best",
        ok,
        "mean RMSE by position " + ", ".join(f"{v:.4f}" for v in by_position),
    )


def test_criterion_7_depth_trends(tmp_path, report):
    """Depth sweep: deeper nonlinear stacks keep improving, clearly
    beat the all-linear stack at depth 6, and frozen fabrication-random
    operating points track the trainable ones closely."""
    cfg = cli.load_config(cli.load_preset("desk-depth"))
    out = cli.run_experiment(cfg, tmp_path)
    means = mean_rows(out / "results.csv")
    depths = (2, 4, 6)
    trainable = [means[(str(d), "trainable")] for d in depths]
    static = [means[(str(d), "static-random")] for d in depths]
    linear = [means[(str(d), "linear")] for d in depths]

    # (a) non-increasing in depth, 2% slack for seed noise
    monotone = all(b <= a * 1.02 for a, b in zip(trainable, trainable[1:]))
    # (b) at depth 6 the nonlinear stack beats the linear one by >= 10%
    beats_linear = trainable[-1] <= 0.9 * linear[-1]
    # (c) per depth, trainable and static-random within 15% relative
    gaps = [abs(t - s) / t for t, s in zip(trainable, static)]
    close = all(g <= 0.15 for g in gaps)

    ok = monotone and beats_linear and close
    report(
        7,
        "depth scaling and static-random parity",
        ok,
        f"trainable {[round(v, 4) for v in trainable]}, "
        f"static {[round(v, 4) for v in static]}, "
        f"linear {[round(v, 4) for v in linear]}, "
        f"gaps {[f'{g:.1%}' for g in gaps]}",
    )


@pytest.mark.slow
def test_criterion_8_full_scale(tmp_path, report):
    """Full-scale preset end to end: 40 x 40 cells, 6 layers, 10^4
    samples; matched filter beats the nonlinear stack, which beats
    the all-linear stack."""
    if os.environ.get("EMSTACK_RUN_SLOW") != "1":
        pytest.skip(
            "set EMSTACK_RUN_SLOW=1 to run the full-scale study "
            "(about 15-18 min on 2 cores with one BLAS thread)"
        )
    cfg = cli.load_config(cli.load_preset("paper"))
    out = cli.run_experiment(cfg, tmp_path)
    means = mean_rows(out / "results.csv")
    ml = means[("6", "ml")]
    nl = means[("6", "trainable")]
    lin = means[("6", "linear")]
    ok = ml < nl < lin
    report(
        8,
        "full-scale ordering matched filter < nonlinear < linear",
        ok,
        f"ml {ml:.4f}, nonlinear {nl:.4f}, linear {lin:.4f}",
    )
