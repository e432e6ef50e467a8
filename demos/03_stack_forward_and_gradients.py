"""Forward pass and hand-derived gradients of a mixed stack.

Assembles a 3-layer receiver whose last layer is nonlinear, pushes a
random input field through it, and verifies the reverse-mode gradients
(phases upstream of the nonlinearity, operating-point biases inside it)
against central finite differences.
"""

import numpy as np

from emstack import emfield, nonlin, simnet

rng = np.random.default_rng(12)
wavelength = emfield.SPEED_OF_LIGHT / 28e9
geom = emfield.build_geometry(28e9, 4, 3, 3 * wavelength, 3 * wavelength)
m = geom.num_cells

layers = [
    simnet.uniform_phase_layer(m, rng),
    simnet.uniform_phase_layer(m, rng),
    simnet.NonlinearLayer(
        nonlin.ShiftedReluLowpass(),
        biases=-np.abs(rng.normal(0.0, 0.3, m)) - 0.05,
        trainable=True,
    ),
]
model = simnet.assemble_model(geom, layers)
print(f"{model.num_layers}-layer stack, {m} cells per layer, "
      f"nonlinear layers at {sorted(model.nl_layer_set)}")


def kind(i):
    return "nonlinear" if i in model.nl_layer_set else "phase"


x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
trace = simnet.forward(model, x)
print(f"\ninput field mean |x| = {np.mean(np.abs(x)):.3f}")
for i, (layer, pre) in enumerate(zip(model.layers, trace.pre_activation), 1):
    post = layer.forward(pre, False)[0]
    print(f"  layer {i} ({kind(i):9s}): mean |in| {np.mean(np.abs(pre)):.3f} "
          f"-> mean |out| {np.mean(np.abs(post)):.3f}")
print(f"  output antennas: |y| = {np.abs(trace.output_field)}")
print("the nonlinear layer zeroes cells below their operating point;")
print("phase layers preserve amplitudes exactly.")

target = np.array([0.3 + 0.1j, -0.2 + 0.4j])


def loss(y):
    d = y - target
    return float(np.sum(np.abs(d) ** 2)), 2.0 * d


value, cot = loss(trace.output_field)
grads = simnet.backward(model, trace, cot)
print(f"\nquadratic loss at the output: {value:.6f}")
print("gradient norm of each trainable layer's phases or biases:")
for i, g in sorted(grads.items()):
    print(f"  layer {i} ({kind(i):9s}): {np.linalg.norm(g):.4f}")

err = simnet.finite_difference_check(model, x, loss, rng=rng)
print(f"\nworst relative error vs central differences: {err:.2e}")
print("the adjoints are exact rules for this operator set, so the only")
print("disagreement is finite-difference truncation noise.")
