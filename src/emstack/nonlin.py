"""Passive RF nonlinearities and their envelope-domain equivalents.

A memoryless device with bandpass response F acting on a narrowband
carrier, followed by fundamental-harmonic filtering, behaves in the
complex baseband as a phase-preserving amplitude map

    sigma(x) = C[|x|] * exp(j arg x),
    C[v] = (2 / pi) * integral_0^pi F[v cos(phi)] cos(phi) dphi.

This module provides the bandpass device models, the C[v] integral
(one fixed Gauss-Legendre rule, tabulated or direct) with a catalog of
closed forms, the closed-form (Wright omega) response of a diode-coupled
antenna cell, tabulation of diode-derived activations, and the exact
least-squares ReLU surrogate fit used by the trainable network.

Bias convention: a cell's operating point is shifted by adding a bias
b <= 0 to the instantaneous input, F_b[s] = F[s + b], which moves the
activation knee to higher envelopes.  Activation objects take the bias
as an extra argument so one family serves a whole layer of cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

QUADRATURE_ABS_TOL = 1e-9
_OMEGA_BLOCK = 4096  # elements per block of _wright_omega: its temporaries stay small


class QuadratureError(RuntimeError):
    """Raised when the envelope integral misses its error target."""

    def __init__(self, message, achieved_error):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


# ---------------------------------------------------------------------------
# Bandpass device models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiodeCircuitParams:
    """Constants of the diode-coupled antenna cell.

    ``alpha_per_volt`` lumps thermal voltage and doping; the default
    antenna resistance is the half-wave dipole value.  ``bias_volts``
    shifts the operating point and must be <= 0.
    """

    alpha_per_volt: float
    saturation_current_a: float = 1e-6
    antenna_resistance_ohm: float = 73.0
    bias_volts: float = 0.0

    def __post_init__(self):
        if self.saturation_current_a <= 0 or self.alpha_per_volt <= 0:
            raise ValueError("saturation current and alpha must be positive")
        if self.antenna_resistance_ohm <= 0:
            raise ValueError("antenna resistance must be positive")
        if self.bias_volts > 0:
            raise ValueError("bias must be <= 0")


class BandpassNL:
    """Memoryless response F[v] of one device, elementwise on float arrays."""

    # the input where F is non-smooth or bends sharply (none at inf): the
    # envelope integrand F[v cos(phi)] cos(phi) then kinks at cos(phi) = kink / v
    kink = math.inf

    def __call__(self, v):
        raise NotImplementedError

    def closed_form(self) -> "Activation":
        raise ValueError(f"{type(self).__name__} has no closed-form envelope map")


class ShiftedRelu(BandpassNL):
    """F[v] = max(v + a, 0) for a real threshold offset a."""

    def __init__(self, a: float):
        self.a = float(a)
        self.kink = -self.a

    def __call__(self, v):
        return np.maximum(v + self.a, 0.0)

    def closed_form(self):
        return ShiftedReluLowpass(shift=self.a)


class Relu(ShiftedRelu):
    """F[v] = max(v, 0): the threshold offset a = 0."""

    def __init__(self):
        super().__init__(0.0)


class AbsoluteValue(BandpassNL):
    kink = 0.0

    def __call__(self, v):
        return np.abs(v)

    def closed_form(self):
        # even response: no fundamental-harmonic output
        return PowerLowpass(1, 0.0)


class Sign(BandpassNL):
    kink = 0.0

    def __call__(self, v):
        return np.sign(v)

    def closed_form(self):
        return ConstantAmplitude(level=4.0 / np.pi)


class OddPower(BandpassNL):
    """F[v] = v**n.  The envelope map vanishes for even n.

    For odd n the defining integral gives
    C[v] = binom(n+1, (n+1)/2) / 2**n * v**n, which is the default.
    A published catalog instead lists the amplitude coefficient as
    binom(n, (n+1)/2) / 2**n (half the integral's value, e.g. C[v] = v/2
    for n = 1 where the integral yields v); pass
    ``use_catalog_coefficient=True`` to reproduce that variant.
    """

    def __init__(self, n: int, use_catalog_coefficient: bool = False):
        if n < 1 or n != int(n):
            raise ValueError("exponent must be a positive integer")
        self.n = int(n)
        self.use_catalog_coefficient = use_catalog_coefficient

    def __call__(self, v):
        return np.asarray(v) ** self.n

    def closed_form(self):
        n = self.n
        if n % 2 == 0:
            raise ValueError("even powers have no closed-form entry; their envelope map is zero")
        if self.use_catalog_coefficient:
            coeff = math.comb(n, (n + 1) // 2) / 2.0 ** n
        else:
            coeff = math.comb(n + 1, (n + 1) // 2) / 2.0 ** n
        return PowerLowpass(exponent=n, coefficient=coeff)


class DiodeCircuit(BandpassNL):
    """Instantaneous response of the diode-coupled cell, from Kirchhoff's laws."""

    def __init__(self, params: DiodeCircuitParams):
        self.params = params
        # the cell turns on where the Wright omega's argument crosses 0
        ri = params.antenna_resistance_ohm * params.saturation_current_a
        alpha2 = 2.0 * params.alpha_per_volt
        self.kink = -params.bias_volts - ri - math.log(alpha2 * ri) / alpha2

    def __call__(self, v):
        return diode_bandpass_response(self.params, v)


# ---------------------------------------------------------------------------
# Diode cell response
# ---------------------------------------------------------------------------


def _fsc_step(x, w):
    """One Fritsch-Shafer-Crowley step toward w + ln w = x: (w, residual, w + 1)."""
    r = x - w - np.log(w)
    wp1 = w + 1.0
    a = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
    return w * (1.0 + r / wp1 * (a - r) / (a - 2.0 * r)), r, wp1


def _wright_omega(z):
    """Overwrite the C-contiguous float array z with omega(z), the w with w + ln w = z."""
    flat = z.reshape(-1)  # a view, since z is C-contiguous; so is each block
    for x in np.split(flat, range(_OMEGA_BLOCK, flat.size, _OMEGA_BLOCK)):
        i = np.flatnonzero((x >= -50.0) & (x <= 1e20))
        # below -50, exp(x) is omega to double precision; above 1e20, x is
        np.exp(x, out=x, where=x < -50.0)
        x_i = x[i]
        # start from exp(x), exp(2 (x - 1) / 3) or x - ln x + ln x / x
        w = np.where(x_i < -2.0, x_i, 2.0 * (x_i - 1.0) / 3.0)
        np.exp(w, out=w, where=x_i < 1.0)
        h = np.flatnonzero(x_i >= 1.0)
        log_x = np.log(x_i[h])
        w[h] = x_i[h] - log_x + log_x / x_i[h]
        w, r, wp1 = _fsc_step(x_i, w)
        # a second step only where the first one's error bound exceeds eps
        bound = np.abs((2.0 * w * w - 8.0 * w - 1.0) * np.abs(r) ** 4.0)
        j = np.flatnonzero(bound >= np.finfo(float).eps * 72.0 * np.abs(wp1) ** 6.0)
        w[j] = _fsc_step(x_i[j], w[j])[0]
        x[i] = w


def diode_bandpass_response(params: DiodeCircuitParams, instantaneous_input):
    """Transmitted voltage u solving u = R_A I_s (exp(2 alpha (s - u)) - 1).

    Takes a scalar (returns a float) or an array (returns an array of
    the same shape).  The bias, when nonzero, is folded into the input
    as s + b.  With w = u + R_A I_s the equation reads
    2 alpha w + ln(2 alpha w) = z, z = ln(2 alpha R_A I_s) + 2 alpha (s + b + R_A I_s),
    so 2 alpha w = omega(z), the Wright omega function (Algorithm 917 of
    ACM TOMS 38(3), 2012, by Lawrence, Corless & Jeffrey), and u =
    omega(z) / (2 alpha) - R_A I_s; a zero effective input gives exactly 0.

    Raises
    ------
    ValueError
        If any input is not finite.
    FloatingPointError
        If 2 alpha (s + b) leaves float range; the message names alpha
        and the largest input magnitude.
    """
    s = np.asarray(instantaneous_input, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("diode input must be finite")
    ri = params.antenna_resistance_ohm * params.saturation_current_a
    alpha2 = 2.0 * params.alpha_per_volt
    # evaluated in place: one output array, no full-size temporaries
    try:
        with np.errstate(over="raise"):
            u = np.add(s, params.bias_volts, out=np.empty(s.shape))  # C order for _wright_omega
            u *= alpha2
            u += alpha2 * ri + math.log(alpha2 * ri)
            _wright_omega(u)
            u /= alpha2
            u -= ri
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"diode response at alpha {params.alpha_per_volt:g} /V overflows "
            f"for largest input magnitude {np.max(np.abs(s)):g} V ({exc})"
        ) from exc
    # omega(z) at zero input is 2 alpha R_A I_s only to within rounding
    u[s == -params.bias_volts] = 0.0
    return float(u) if u.ndim == 0 else u


# ---------------------------------------------------------------------------
# Envelope activations
# ---------------------------------------------------------------------------


def _scalar_or_array(p):
    return np.asarray(p, dtype=float) if np.ndim(p) else float(p)


def polar(x):
    """(|x|, x/|x|) of a complex field, with direction exactly 0 at x = 0."""
    x = np.asarray(x, dtype=complex)
    rho = np.abs(x)
    return rho, np.divide(x, rho, out=np.zeros_like(x), where=rho > 0.0)


class Activation:
    """Envelope amplitude map C[v] with derivatives, applied phase-preserving.

    Each family implements ``linearize(v, bias)`` -> (C, dC/dv, dC/db),
    broadcast over amplitude and bias arrays and computed from one
    evaluation (one table lookup for a table).  dC/db is None for
    families whose operating point is frozen at construction; the
    backward pass treats that as "bias not trainable here".  ``value``,
    ``derivative`` and ``bias_derivative`` are its three parts.
    """

    supports_bias = False
    # checkpoint descriptor: the kind, then these constructor arguments
    kind = None
    param_names = ()

    def linearize(self, v, bias=0.0):
        raise NotImplementedError

    def value(self, v, bias=0.0):
        return self.linearize(v, bias)[0]

    def derivative(self, v, bias=0.0):
        return self.linearize(v, bias)[1]

    def bias_derivative(self, v, bias=0.0):
        return self.linearize(v, bias)[2]

    def apply(self, x, bias=0.0):
        """sigma(x) = C[|x|] exp(j arg x); exactly 0 at x = 0."""
        rho, out = polar(x)
        out *= np.broadcast_to(np.asarray(self.value(rho, bias), dtype=float), out.shape)
        return out

    def _require_zero_bias(self, bias):
        if np.asarray(bias).any():
            raise NotImplementedError(f"{type(self).__name__} has no operating-point shift")


class ConstantAmplitude(Activation):
    """C[v] = level for v > 0, 0 at v = 0 (hard-limiter response)."""

    kind = "constant_amplitude"
    param_names = ("level",)

    def __init__(self, level: float):
        self.level = float(level)

    def linearize(self, v, bias=0.0):
        self._require_zero_bias(bias)
        v = np.asarray(v, dtype=float)
        return np.where(v > 0.0, self.level, 0.0), np.zeros(v.shape), None


class PowerLowpass(Activation):
    """C[v] = coefficient * v**exponent; PowerLowpass(1, 0) is the zero
    map of an even response."""

    kind = "power"
    param_names = ("exponent", "coefficient")

    def __init__(self, exponent: int, coefficient: float):
        # C[0] = 0 and a finite slope at 0 need an integer exponent >= 1
        if not (float(exponent).is_integer() and exponent >= 1):
            raise ValueError("exponent must be an integer >= 1")
        self.exponent = int(exponent)
        self.coefficient = float(coefficient)

    def linearize(self, v, bias=0.0):
        self._require_zero_bias(bias)
        n = self.exponent
        v = np.asarray(v, dtype=float)
        value = self.coefficient * v ** n
        return value, self.coefficient * n * v ** (n - 1), None


class ShiftedReluLowpass(Activation):
    """Exact envelope map of a (shifted) half-wave rectifier.

    With effective threshold a = shift + bias:

        C[v] = (1 + sgn a)/2 * v                       for v <= |a|
        C[v] = (v arccos(-a/v) + a sqrt(v^2-a^2)/v)/pi for v >  |a|

    times an overall gain.  Continuously differentiable in both v and
    the bias across the branch point.  ``shift`` and ``gain`` may be
    arrays so one object serves a whole layer of per-cell devices.
    """

    kind = "shifted_relu_lowpass"
    param_names = ("shift", "gain")
    supports_bias = True

    def __init__(self, shift=0.0, gain=1.0):
        self.shift = _scalar_or_array(shift)
        self.gain = _scalar_or_array(gain)

    def linearize(self, v, bias=0.0):
        # arccos(-a/v) and sqrt(v^2 - a^2) are evaluated at v = 1, a = 0
        # below the knee, where v <= |a|
        v = np.asarray(v, dtype=float)
        a = self.shift + np.asarray(bias, dtype=float)
        above = v > np.abs(a)
        vb, ab = np.where(above, v, 1.0), np.where(above, a, 0.0)
        # C is homogeneous of degree 1 in (v, a): lift tiny amplitudes by an
        # exact power of two so vb ** 2 cannot underflow, and scale C back
        scale = np.where(vb < 2.0 ** -500, 2.0 ** 600, 1.0)
        vb, ab = vb * scale, ab * scale
        angle = np.arccos(np.clip(-ab / vb, -1.0, 1.0))
        root = np.sqrt(np.maximum(vb ** 2 - ab ** 2, 0.0))
        below = np.where(a > 0, v, np.where(a < 0, 0.0, 0.5 * v))
        value = self.gain * np.where(above, (vb * angle + ab * root / vb) / np.pi / scale, below)
        below = np.where(a > 0, 1.0, np.where(a < 0, 0.0, 0.5))
        slope = self.gain * np.where(above, (angle - ab * root / vb ** 2) / np.pi, below)
        return value, slope, self.gain * np.where(above, (2.0 / np.pi) * root / vb, 0.0)


class FittedRelu(Activation):
    """Piecewise-linear surrogate C[v] = gain * max(v - knee, 0).

    This is the numerically cheap stand-in for a diode-derived curve.
    A bias b shifts the knee to knee - b (rightward for b < 0).  At the
    knee itself the derivative takes the midpoint value gain/2.  Both
    parameters may be per-cell arrays.
    """

    kind = "fitted_relu"
    param_names = ("gain", "knee")
    supports_bias = True

    def __init__(self, gain, knee=0.0):
        self.gain = _scalar_or_array(gain)
        self.knee = _scalar_or_array(knee)

    def linearize(self, v, bias=0.0):
        e = np.asarray(v, dtype=float) - (self.knee - np.asarray(bias, dtype=float))
        value = self.gain * np.maximum(e, 0.0)
        slope = self.gain * (np.where(e > 0, 1.0, 0.0) + np.where(e == 0, 0.5, 0.0))
        return value, slope, slope  # C depends on v + bias only


class TabulatedActivationSet(Activation):
    """Tabulated curves C[v] sharing one amplitude grid.

    ``values`` has shape (num_cells, grid size).  A one-row table is a
    single curve and applies to amplitudes of any shape, scalars
    included; an n-row table applies row k to cell k, so amplitude
    inputs must have num_cells as their trailing axis.  Interpolation is
    piecewise linear; the derivative is the segment slope between knots
    and the average of the adjacent slopes at a knot.  Beyond the last
    knot the value is clamped and the derivative is zero.  The operating
    point is frozen at tabulation time, so there is no bias derivative.

    The grid starts at an amplitude >= 0, whose int64 bits increase with
    its value, so :meth:`_locate` finds the knot of v in O(1): v's bits,
    shifted right, index a bucket; ``_start`` holds the last knot at or
    below each bucket's lower edge, and ``_steps`` compare-and-step
    passes (the most knots any bucket holds; 1 on tabulation grids) finish.
    """

    kind = "tabulated_set"
    param_names = ("grid", "values")

    def __init__(self, grid: np.ndarray, values: np.ndarray):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or values.ndim != 2 or values.shape[1] != grid.size:
            raise ValueError("values must be (num_cells, len(grid))")
        if grid.size < 2 or not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing with >= 2 points")
        if np.signbit(grid[0]):
            raise ValueError("grid must start at an amplitude >= 0 (not -0.0)")
        self.grid = grid
        self.values = values
        self._rows = np.arange(len(values)) * grid.size if len(values) > 1 else 0
        bits = grid.view(np.int64)
        first, last = int(bits[int(grid[0] == 0.0)]), int(bits[-1])  # first positive knot
        for shift in range(64):  # the smallest shift with at most 4 buckets per knot
            low = max(first - (1 << shift), 0)
            if (last - low) >> shift < 4 * grid.size:
                break
        # queries clip into [low, last], so -0.0 and negative values (sign
        # bit set) land in the first bucket, +inf and NaN in the last
        self._shift, self._low, self._high = shift, low, last
        edges = low + (np.arange(((last - low) >> shift) + 1) << shift)
        self._start = np.maximum(np.searchsorted(bits, edges, side="right") - 1, 0)
        self._steps = int(np.max(np.diff(self._start, append=grid.size - 1)))
        # the knot after each knot; NaN after the last compares false even with +inf
        self._next_knot = np.append(grid[1:], np.nan)
        self._widths = np.diff(grid)
        slopes = np.diff(values, axis=1) / self._widths
        # per knot, interleaved: the slope of the segment to its right, then
        # the average of the adjacent segments' slopes; both 0 at the last knot
        table = np.zeros((len(values), grid.size, 2))
        table[:, :-1, 0] = slopes
        table[:, 0, 1] = slopes[:, 0]
        table[:, 1:-1, 1] = 0.5 * (slopes[:, :-1] + slopes[:, 1:])
        self._slopes = table.ravel()

    @property
    def num_cells(self) -> int:
        return self.values.shape[0]

    def _locate(self, v):
        """Index of the last knot <= v, 0 below the grid: for every v but
        NaN, max(searchsorted(grid, v, "right") - 1, 0)."""
        bucket = np.minimum(np.maximum(v.view(np.int64), self._low), self._high)
        bucket -= self._low
        bucket >>= self._shift
        knot = self._start[bucket]
        for _ in range(self._steps):
            knot += self._next_knot[knot] <= v
        return knot

    def linearize(self, v, bias=0.0):
        self._require_zero_bias(bias)
        v = np.asarray(v, dtype=float)
        if self.num_cells > 1 and (v.ndim == 0 or v.shape[-1] != self.num_cells):
            raise ValueError("trailing axis must index the cells")
        knot = self._locate(v)
        seg = np.minimum(knot, self.grid.size - 2)
        # v - grid[seg] is 0 exactly on knot seg; past the last knot, where
        # seg = knot - 1, both slopes of the last knot are 0
        offset = v - self.grid[seg]
        t = np.clip(offset / self._widths[seg], 0.0, 1.0)
        values, at = self.values.ravel(), self._rows + seg
        value = values[at] * (1.0 - t) + values[1:][at] * t  # values[1:][at] is values[at + 1]
        return value, self._slopes[2 * (self._rows + knot) + (offset == 0.0)], None


# ---------------------------------------------------------------------------
# Envelope integral
# ---------------------------------------------------------------------------


_QUADRATURE_NODES = 129  # Gauss-Legendre nodes of every envelope integral


@functools.cache
def _gauss_legendre_nodes(n: int):
    """Angles and weights of the n-node rule on [0, pi], computed once per
    process and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    rule = (x + 1.0) * (np.pi / 2.0), w * (np.pi / 2.0)
    for a in rule:
        a.setflags(write=False)
    return rule


def _envelope_integrals(nl, amplitudes, edges=(0.0, np.pi), n=_QUADRATURE_NODES):
    """(2/pi) * int_0^pi F[v cos(phi)] cos(phi) dphi per amplitude v: the n-node rule
    mapped onto each piece between the edges (exact on one), F's array scaled in place."""
    phi, w = _gauss_legendre_nodes(n)
    lo = np.asarray(edges[:-1])[:, None]
    scale = np.diff(edges)[:, None] / np.pi
    cos = np.cos((lo + scale * phi).ravel())
    f = nl(amplitudes[:, None] * cos)
    f *= cos
    f *= 2.0 / np.pi
    return f @ (scale * w).ravel()


def lowpass_from_bandpass(nl: BandpassNL, amplitude: float) -> float:
    """Evaluate C[v] = (2/pi) * int_0^pi F[v cos(phi)] cos(phi) dphi.

    The device's kink angle splits [0, pi] into smooth pieces for the diode
    table's Gauss-Legendre rule; the gap to twice the nodes is the error estimate.

    Raises
    ------
    QuadratureError
        If the error estimate exceeds 50 times the tolerance 1e-9.
    """
    v = float(amplitude)
    if not math.isfinite(v):
        raise ValueError("amplitude must be finite")
    if v < 0.0:  # C[-v] = -C[v] (phi -> pi - phi), and |v| sets the kink angle
        return -lowpass_from_bandpass(nl, -v)
    angle = [math.acos(nl.kink / v)] if abs(nl.kink) < v else []
    edges = np.array([0.0, *angle, np.pi])
    val, fine = (float(_envelope_integrals(nl, np.array([v]), edges, n)[0])
                 for n in (_QUADRATURE_NODES, 2 * _QUADRATURE_NODES))
    if abs(fine - val) > 50 * QUADRATURE_ABS_TOL:
        raise QuadratureError("envelope integral did not converge", abs(fine - val))
    return val


def closed_form_lowpass(nl: BandpassNL) -> Activation:
    """Catalog closed form of the envelope map for supported devices."""
    return nl.closed_form()


# ---------------------------------------------------------------------------
# Diode activation tabulation and the ReLU surrogate fit
# ---------------------------------------------------------------------------


_LOG_FLOOR = 1e-8  # volts; where the tabulation grid turns logarithmic


def tabulation_grid(v_max: float, n_points: int) -> np.ndarray:
    """Amplitude grid: a short linear run up to ``_LOG_FLOOR``, then
    log-spaced to ``v_max``.  Envelopes span decades after path loss, so
    most resolution goes to the logarithmic part."""
    if v_max <= _LOG_FLOOR:
        return np.linspace(0.0, v_max, n_points)
    n_lin = max(4, n_points // 64)
    lin = np.linspace(0.0, _LOG_FLOOR, n_lin, endpoint=False)
    log = np.geomspace(_LOG_FLOOR, v_max, n_points - n_lin)
    return np.concatenate([lin, log])


def diode_activation(
    params: DiodeCircuitParams, v_max: float = 1.0, n_points: int = 2048
) -> TabulatedActivationSet:
    """Tabulate the diode cell's envelope map C[v] on [0, v_max] as a
    one-row table.

    Each grid amplitude is pushed through the closed-form cell
    response and the envelope integral; the integral uses fixed
    Gauss-Legendre nodes (the composed integrand is smooth).  The
    512-point floor keeps linear interpolation honest; the denser
    default holds interpolation error near 1e-5 relative around the
    knee, where the curve bends fastest.
    """
    if n_points < 512 or v_max <= 0:
        raise ValueError("need v_max > 0 and at least 512 grid points")
    grid = tabulation_grid(v_max, n_points)
    c = _envelope_integrals(DiodeCircuit(params), grid)
    # at v = 0 the integrand is a constant times cos(phi): exactly zero,
    # not the ~1e-21 quadrature roundoff
    c[grid == 0.0] = 0.0
    return TabulatedActivationSet(grid, c[None, :])


@dataclass(frozen=True)
class ReluFit:
    """Least-squares ReLU surrogate g * max(v - knee, 0) of a curve."""

    gain: float
    knee: float
    residual_rms: float

    def activation(self) -> FittedRelu:
        return FittedRelu(gain=self.gain, knee=self.knee)


def fit_relu_approximation(activation: Activation, amplitude_range) -> ReluFit:
    """Fit g * max(v - a, 0) to an activation over an amplitude range.

    Exact least squares over the curve's grid points: for each knee the
    gain is closed-form, and so is the best knee between two adjacent
    points.  Rejects degenerate inputs: an empty or zero-width range, or
    an identically zero curve.
    """
    lo, hi = float(amplitude_range[0]), float(amplitude_range[1])
    if not hi > lo:
        raise ValueError("amplitude range must have positive width")
    grid = activation.grid if isinstance(activation, TabulatedActivationSet) else np.empty(0)
    grid = grid[(grid >= lo) & (grid <= hi)]
    if grid.size < 8:  # no table, or too few of its knots in range
        grid = np.linspace(lo, hi, 256)
    c = np.asarray(activation.value(grid), dtype=float)
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise ValueError("cannot fit a ReLU to an identically zero activation")

    def fit_at(knee):
        m = np.maximum(grid - knee, 0.0)
        denom = float(m @ m)
        if denom == 0.0:
            return 0.0, float(np.sqrt(np.mean(c ** 2)))
        g = float(m @ c) / denom
        return g, float(np.sqrt(np.mean((c - g * m) ** 2)))

    # a knee a in [grid[k-1], grid[k]] (lo for k = 0) leaves points k.. active, and with
    # S_j = sum v^j, T_j = sum v^j c over them the residual sum of squares is sum c^2 -
    # (T1 - a T0)^2 / (S2 - 2 a S1 + a^2 S0): score both ends and its stationary point
    terms = np.stack([np.ones_like(grid), grid, grid ** 2, c, grid * c])
    s0, s1, s2, t0, t1 = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    lower = np.append(lo, grid[:-1])
    den = t0 * s1 - t1 * s0
    star = np.divide(t0 * s2 - t1 * s1, den, out=lower.copy(), where=den != 0.0)
    knees = np.stack([lower, np.clip(star, lower, grid), grid])
    d = s2 - 2.0 * knees * s1 + knees ** 2 * s0
    explained = np.divide((t1 - knees * t0) ** 2, d, out=np.zeros_like(d), where=d > 0.0)
    knee = float(knees.flat[np.argmax(explained)])
    gain, err = fit_at(knee)
    return ReluFit(gain=gain, knee=knee, residual_rms=err)


# ---------------------------------------------------------------------------
# Cell population sampling
# ---------------------------------------------------------------------------


def sample_static_alphas(count: int, alpha_range, rng: np.random.Generator) -> np.ndarray:
    """Fabrication-time diode parameter draws, uniform on [min, max]."""
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    if lo > hi:
        raise ValueError("alpha range must satisfy min <= max")
    if lo == hi:
        return np.full(count, lo)
    return rng.uniform(lo, hi, size=count)


def sample_trainable_bias_init(
    count: int, rng: np.random.Generator, scale: float = 1e-5
) -> np.ndarray:
    """Half-normal non-positive bias init: -|N(0,1)| * scale."""
    return -np.abs(rng.standard_normal(count)) * scale


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _param_to_json(p):
    return p.tolist() if isinstance(p, np.ndarray) else p


# checkpoint kind -> activation class; each class names its parameters
_ACTIVATION_KINDS = {cls.kind: cls for cls in (
    ConstantAmplitude, PowerLowpass, ShiftedReluLowpass, FittedRelu, TabulatedActivationSet,
)}


def activation_to_dict(activation: Activation) -> dict:
    """JSON-ready descriptor of an activation (for checkpoints): its
    ``kind``, then each of its ``param_names`` in order.

    Scalar and per-cell array parameters both round-trip; arrays come
    back as arrays, scalars as scalars.
    """
    cls = type(activation)
    if _ACTIVATION_KINDS.get(cls.kind) is not cls:
        raise TypeError(f"cannot serialize activation {cls.__name__}")
    params = {name: _param_to_json(getattr(activation, name)) for name in cls.param_names}
    return {"kind": cls.kind, **params}


def activation_from_dict(desc: dict) -> Activation:
    """Inverse of :func:`activation_to_dict`."""
    kind = desc["kind"]
    if kind not in _ACTIVATION_KINDS:
        raise ValueError(f"unknown activation kind {kind!r}")
    cls = _ACTIVATION_KINDS[kind]
    return cls(**{name: desc[name] for name in cls.param_names})
