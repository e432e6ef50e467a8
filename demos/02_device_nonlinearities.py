"""Passive cell nonlinearities: from an instantaneous device response
to the envelope map the network actually applies.

A memoryless device F[v] acting on a carrier-modulated signal, followed
by filtering back to the fundamental harmonic, acts on the complex
envelope as a phase-preserving amplitude map C[v].  This script checks
the quadrature definition of C against closed forms, tabulates the
diode cell's curve, and fits the cheap piecewise-linear surrogate used
during training.
"""

import numpy as np

from emstack import nonlin

print("half-wave rectifier: closed form C[v] = v / 2")
for v in (0.3, 1.0, 2.5):
    quad = nonlin.lowpass_from_bandpass(nonlin.Relu(), v)
    print(f"  v = {v:4.1f}: quadrature {quad:.9f}, closed {v / 2:.9f}")

print("\nhard limiter: constant C = 4 / pi for any v > 0")
for v in (0.1, 2.0):
    quad = nonlin.lowpass_from_bandpass(nonlin.Sign(), v)
    print(f"  v = {v:4.1f}: quadrature {quad:.9f}, closed {4 / np.pi:.9f}")

print("\nfull-wave rectifier |v|: even response, no fundamental output")
print(f"  v = 1.0: quadrature {nonlin.lowpass_from_bandpass(nonlin.AbsoluteValue(), 1.0):.2e}")

print("\nshifted rectifier max(v + a, 0): two-branch closed form")
act = nonlin.closed_form_lowpass(nonlin.ShiftedRelu(-0.5))
for v in (0.3, 0.5, 1.2):
    quad = nonlin.lowpass_from_bandpass(nonlin.ShiftedRelu(-0.5), v)
    print(f"  v = {v:4.1f}: quadrature {quad:.9f}, closed {act.value(v):.9f}")
print("below the threshold |a| the output is exactly zero; the curve")
print("then bends on smoothly, which is what a reverse bias exploits.")

print("\ndiode-coupled cell, transcendental response solved in closed form (Wright omega):")
params = nonlin.DiodeCircuitParams(alpha_per_volt=33.0)
table = nonlin.diode_activation(params, v_max=1.0)
for v in (0.05, 0.2, 0.5, 1.0):
    print(f"  C[{v:4.2f}] = {table.value(v):.6f}")

fit = nonlin.fit_relu_approximation(table, (0.0, 1.0))
print(f"\npiecewise-linear surrogate: gain {fit.gain:.4f}, "
      f"knee {fit.knee:.4f} V, rms residual {fit.residual_rms:.2e}")
print("training uses this surrogate shape; a trainable reverse bias b")
print("moves the knee to knee - b, gating weak inputs to zero.")

grid = np.linspace(0.0, 1.0, 6)
print("\n      v     diode C    surrogate")
for v in grid:
    print(f"  {v:5.2f}  {table.value(v):9.5f}  {fit.activation().value(v):9.5f}")
