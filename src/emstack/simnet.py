"""Differentiable stacked-metasurface receiver network.

Forward model: the input field enters layer 1, propagates between
consecutive layers through one fixed Rayleigh-Sommerfeld coupling
operator (the layers are equally spaced, so every transition shares it),
and each layer applies either programmable unit-modulus phase shifts or
a passive element-wise envelope nonlinearity (no phase shifter on
nonlinear layers).  A final coupling matrix maps the last layer onto a
small output antenna array whose amplitudes encode range and azimuth.

Gradients are hand-derived reverse-mode adjoints over exactly this
operator set.  The loss packs its cotangent as c = dL/dRe(y) + j dL/dIm(y);
the backward pass carries g = conj(c) = 2 dL/dz (the CR-calculus gradient),
so real parameters (phases, biases) receive Re[g dz/dparam] and, every
coupling being reciprocal (W = W.T), the step back through it is ``apply``.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import emfield, nonlin

CHECKPOINT_FORMAT = "emstack-checkpoint-1"


@dataclass
class LinearLayer:
    """Programmable phase-shift layer; coefficient is exp(j phase).

    Both layer classes have ``params`` (the phases or biases array),
    ``forward(z)`` -> (x, what ``backward`` needs),
    ``backward(z, saved, g_x)`` -> (g_z, gradient or None if frozen)
    and ``step(delta)``: params - delta, phases wrapped modulo 2 pi,
    biases clamped to <= 0.
    """

    phases: np.ndarray
    trainable: bool = True

    def __post_init__(self):
        self.phases = np.array(self.phases, dtype=float)
        if self.phases.ndim != 1:
            raise ValueError("phases must be a 1-D vector")

    @property
    def params(self) -> np.ndarray:
        return self.phases

    def forward(self, z):
        phi = np.exp(1j * self.phases)
        return phi * z, phi

    def backward(self, z, phi, g_x):
        grad = None
        if self.trainable:
            # Re[g j phi z] = -Im(phi g z), with g z summed over the batch
            # before the per-cell phase
            rows = (-1, z.shape[-1])
            batch_dot = np.einsum("bm,bm->m", g_x.reshape(rows), z.reshape(rows))
            grad = -np.imag(phi * batch_dot)
        return phi * g_x, grad

    def step(self, delta):
        self.phases = (self.phases - delta) % (2.0 * np.pi)


@dataclass
class NonlinearLayer:
    """Passive nonlinear layer: per-cell envelope map with bias shifts.

    ``activation`` is one family whose parameters may be per-cell
    arrays; heterogeneous cells are expressed through array parameters
    or a per-cell tabulated set rather than a Python list of objects.
    """

    activation: nonlin.Activation
    biases: np.ndarray
    trainable: bool = False

    def __post_init__(self):
        self.biases = np.array(self.biases, dtype=float)
        if self.biases.ndim != 1:
            raise ValueError("biases must be a 1-D vector")
        if np.any(self.biases > 0):
            raise ValueError("biases must be <= 0")

    @property
    def params(self) -> np.ndarray:
        return self.biases

    def forward(self, z):
        """One ``linearize`` call (the same bits as ``apply``) gives the
        output and, to save, the direction z/|z| (0 at z = 0), the slope
        C'[|z|], the secant C[|z|]/|z| (C[0] at z = 0) and dC/db if the
        biases train (else None)."""
        rho, direction = nonlin.polar(z)
        amp, slope, dc_db = self.activation.linearize(rho, self.biases)
        secant = amp / np.where(rho > 0.0, rho, 1.0)
        return direction * amp, (direction, slope, secant, dc_db if self.trainable else None)

    def backward(self, z, saved, g_x):
        direction, slope, secant, dc_db = saved
        u = g_x * direction
        g_z = direction * (slope * np.real(u) - 1j * secant * np.imag(u))
        np.conjugate(g_z, out=g_z)
        if not self.trainable:
            return g_z, None
        if dc_db is None:
            raise ValueError(
                f"{type(self.activation).__name__} provides no bias derivative; "
                "layer biases cannot be trainable"
            )
        grad = np.asarray(dc_db) * np.real(u)
        return g_z, grad.reshape(-1, grad.shape[-1]).sum(axis=0)

    def step(self, delta):
        self.biases = np.minimum(self.biases - delta, 0.0)


Layer = LinearLayer | NonlinearLayer


# Grids with at least this many cells per side couple by TrigCoupling, with a
# margin over the break-even near 14: one 64-row apply (1 BLAS thread, 2-core
# x86, medians of 60 interleaved runs, twice) takes 0.26 vs 0.35-0.37 ms dense
# vs trig at 12 cells per side, 0.47 vs 0.45-0.48 at 14 and 0.80 vs 0.58 at 16.
_TRIG_MIN_CELLS_PER_SIDE = 16


@dataclass(frozen=True, eq=False)
class DenseCoupling:
    """Interlayer coupling held as the dense matrix W (small grids)."""

    matrix: np.ndarray

    @classmethod
    def build(cls, geometry: emfield.SimGeometry) -> "DenseCoupling":
        return cls(emfield.rayleigh_sommerfeld_matrix(geometry, 1, 2).entries)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """x @ W.T over the trailing cell axis."""
        return x @ self.matrix.T


# Batch rows per TrigCoupling block.  Blocks are padded to it, so every product
# has one matrix-matrix shape and a row's bits do not depend on its batch
# (numpy sends a one-row product to matrix-vector code, which rounds differently).
_TRIG_BLOCK_ROWS = 16


@dataclass(frozen=True, eq=False)
class TrigCoupling:
    """Interlayer coupling as a real cosine/sine transform along y and a
    Toeplitz product along x at each frequency (large grids).

    x @ W.T convolves the (n, n) grid (x fastest) with the offset kernel K, even
    in dy, so on P = 2n-1 points (no wrap) the y convolution is diagonal in
    cosines and sines about the centre row c = (n-1)/2.  With theta = 2 pi/P and
    s >= 0 (half-integer for even n): fold e_s = x[c+s] + x[c-s] (the centre row
    once), o_s = x[c+s] - x[c-s]; C_k = sum_s cos(theta k s) e_s (k < n),
    S_k = sum_s sin(theta k s) o_s (0 < k < n); multiply both along x by
    T_k[j, i] = sum_dy cos(theta k dy) K[dy, i - j]; E_s = sum_k (w_k/P)
    cos(theta k s) C'_k, O_s with sines (w_0 = 1, w_k = 2); out[c+-s] = E_s +- O_s.
    """

    toeplitz: np.ndarray  # (n, n, n): T_0 .. T_{n-1}
    cos_forward: np.ndarray  # (n, ceil(n/2)), real like the other three
    sin_forward: np.ndarray  # (n-1, floor(n/2))
    cos_inverse: np.ndarray  # (ceil(n/2), n)
    sin_inverse: np.ndarray  # (floor(n/2), n-1)

    @classmethod
    def build(cls, geometry: emfield.SimGeometry) -> "TrigCoupling":
        n = geometry.cells_per_side
        p, k = 2 * n - 1, np.arange(n)
        twice_s = 2 * np.arange(n // 2, n) - (n - 1)  # 2s for s >= 0; [n % 2:] has s > 0

        def trig(f, a, b):  # f(theta a b / 2), the angle reduced exactly
            return f(np.pi * (np.outer(a, b) % (2 * p)) / p)

        kernel = emfield.interlayer_offset_kernel(geometry)
        spectrum = trig(np.cos, k, 2 * np.arange(1 - n, n)) @ kernel  # column n-1+dx: dx = i-j
        cos_forward = trig(np.cos, k, twice_s)
        cos_forward[:, : n % 2] *= 0.5  # e_0 = 2 x[c] on an odd grid
        weights = np.where(k == 0, 1.0, 2.0) / p
        arrays = [
            np.ascontiguousarray(spectrum[:, np.arange(n) - np.arange(n)[:, None] + n - 1]),
            cos_forward, trig(np.sin, k[1:], twice_s[n % 2:]),
            trig(np.cos, twice_s, k) * weights, trig(np.sin, twice_s[n % 2:], k[1:]) * weights[1:],
        ]
        for a in arrays:
            a.setflags(write=False)
        return cls(*arrays)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """x @ W.T over the trailing cell axis, in ``_TRIG_BLOCK_ROWS``-row blocks.

        Two buffers of 2n (rows, n) slabs hold every stage; slabs 2k, 2k+1
        hold [C_k; S_k] in ``stacked`` and its product with T_k in
        ``products``.  Numpy buffers elementwise operations on transposed or
        reversed operands, so the y halves are copied into slabs first."""
        n, rows = self.toeplitz.shape[-1], _TRIG_BLOCK_ROWS
        evens, odds, centre = (n + 1) // 2, n // 2, n % 2
        grids = x.reshape(-1, n, n)
        out = np.empty(grids.shape, dtype=complex)
        stacked = np.empty((2 * n, rows, n), dtype=complex)
        products = np.empty_like(stacked)

        def real(slabs):  # the slabs as one (count, 2 rows n) float matrix
            return slabs.view(float).reshape(len(slabs), 2 * rows * n)

        upper, lower = stacked[n:n + evens], products[n:n + evens]
        even, odd = products[:evens], products[evens:n]
        even_back, odd_back = stacked[:evens], stacked[evens:n]
        plus, minus = products[:odds], products[odds:2 * odds]
        pairs, coupled = stacked.reshape(n, 2 * rows, n), products.reshape(n, 2 * rows, n)
        for start in range(0, len(grids), rows):
            block = grids[start:start + rows].transpose(1, 0, 2)  # y leading
            count = block.shape[1]
            upper[:, :count], lower[:, :count] = block[odds:], block[:evens][::-1]  # c + s, c - s
            upper[:, count:] = lower[:, count:] = 0.0
            np.add(upper, lower, out=even)
            np.subtract(upper[centre:], lower[centre:], out=odd)
            np.matmul(self.cos_forward, real(even), out=real(stacked[::2]))
            np.matmul(self.sin_forward, real(odd), out=real(stacked[3::2]))
            stacked[1] = 0.0  # S_0 (slab 1 is also scratch)
            np.matmul(pairs, self.toeplitz, out=coupled)
            np.matmul(self.cos_inverse, real(products[::2]), out=real(even_back))
            np.matmul(self.sin_inverse, real(products[3::2]), out=real(odd_back))
            np.add(even_back[centre:], odd_back, out=plus)
            np.subtract(even_back[centre:], odd_back, out=minus)
            dst = out[start:start + count].transpose(1, 0, 2)
            dst[n - odds:], dst[:odds][::-1] = plus[:, :count], minus[:, :count]
            dst[odds:odds + centre] = even_back[:centre, :count]
        return out.reshape(x.shape)


@dataclass(frozen=True)
class Propagation:
    """Read-only coupling operators shared by every model on a geometry.

    Layers are equally spaced on one cell grid, so one operator, built for
    1 -> 2, couples every transition l -> l+1 (the per-plane
    :func:`emfield.rayleigh_sommerfeld_matrix` equal it up to last-bit
    rounding): a :class:`DenseCoupling` below ``_TRIG_MIN_CELLS_PER_SIDE``
    cells per side, else a :class:`TrigCoupling`.  Both offer ``apply(x)``
    (= x @ W.T).
    """

    interlayer: DenseCoupling | TrigCoupling | None  # None when L = 1
    output: np.ndarray  # last layer -> antenna array


def compute_propagation(geometry: emfield.SimGeometry) -> Propagation:
    coupling = None
    if geometry.num_layers > 1:
        large = geometry.cells_per_side >= _TRIG_MIN_CELLS_PER_SIDE
        coupling = (TrigCoupling if large else DenseCoupling).build(geometry)
    g = emfield.rayleigh_sommerfeld_matrix(geometry, geometry.num_layers, emfield.OUTPUT_ARRAY)
    return Propagation(interlayer=coupling, output=g.entries)


@dataclass
class SimModel:
    geometry: emfield.SimGeometry
    layers: list
    propagation: Propagation
    readout_scale: float | None = None

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def nl_layer_set(self) -> frozenset:
        return frozenset(
            i + 1 for i, layer in enumerate(self.layers) if isinstance(layer, NonlinearLayer)
        )

    def clone(self) -> "SimModel":
        """Copies of the layers, each with its own array; activations are shared."""
        return SimModel(self.geometry, [replace(layer) for layer in self.layers],
                        self.propagation, self.readout_scale)


def assemble_model(
    geometry: emfield.SimGeometry,
    layers,
    propagation: Propagation | None = None,
    readout_scale: float | None = None,
) -> SimModel:
    """Bind a layer schedule to a geometry, computing (or reusing) the
    coupling operators."""
    layers = list(layers)
    if len(layers) != geometry.num_layers:
        raise ValueError(
            f"schedule has {len(layers)} layers, geometry expects {geometry.num_layers}"
        )
    m = geometry.num_cells
    for i, layer in enumerate(layers):
        if layer.params.size != m:
            raise ValueError(f"layer {i + 1} has {layer.params.size} cells, geometry has {m}")
    if propagation is None:
        propagation = compute_propagation(geometry)
    return SimModel(geometry, layers, propagation, readout_scale)


def uniform_phase_layer(num_cells: int, rng: np.random.Generator) -> LinearLayer:
    """Uninformative phase initialization, i.i.d. uniform on [0, 2 pi)."""
    return LinearLayer(phases=rng.uniform(0.0, 2.0 * np.pi, num_cells))


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


@dataclass
class ForwardTrace:
    """Intermediate fields retained for the backward pass.

    ``pre_activation[i]`` is the field after the coupling into
    layer i+1 and before its phase shift or nonlinearity, so
    ``pre_activation[0]`` is the input field.  ``saved[i]`` is what layer
    i+1 kept for its ``backward``, which so takes no ``polar`` or ``np.exp``
    and calls no activation method.
    """

    pre_activation: list = field(default_factory=list)
    output_field: np.ndarray | None = None
    saved: list = field(default_factory=list)


def _layer_fields(model: SimModel, x: np.ndarray, trace: ForwardTrace | None = None):
    """Yield each layer's pre-activation in order, then the output field.
    With a ``trace``, every layer keeps in it what :func:`backward` needs."""
    m = model.geometry.num_cells
    if x.shape[-1] != m:
        raise ValueError(f"input trailing axis {x.shape[-1]} != cell count {m}")
    for i, layer in enumerate(model.layers):
        # coupling into layer i+1; the first layer sees the input directly
        z = x if i == 0 else model.propagation.interlayer.apply(x)
        yield z
        x, saved = layer.forward(z)
        if trace is not None:
            trace.saved.append(saved)
    yield x @ model.propagation.output.T


def forward(model: SimModel, input_field) -> ForwardTrace:
    """Run the field recursion; accepts (..., M) batches."""
    trace = ForwardTrace()
    *trace.pre_activation, trace.output_field = _layer_fields(
        model, np.asarray(input_field, dtype=complex), trace
    )
    return trace


# Rows per block of :func:`amplitudes`; the default training batch, so a
# whole-split pass holds no more than one training step does.
_BLOCK_ROWS = 64


def amplitudes(model: SimModel, fields: np.ndarray, rows, layer: int | None = None) -> np.ndarray:
    """|output field| of ``fields[rows]``, or |pre-activation| at the
    1-based ``layer``, as a (len(rows), width) float array.

    Runs the recursion in ``_BLOCK_ROWS``-row blocks indexed from
    ``fields`` itself, keeps no trace and stops at ``layer``; each row
    equals the traced :func:`forward` of that row bit for bit.
    """
    if layer is None:
        stage, width = model.num_layers, model.propagation.output.shape[0]
    elif 1 <= layer <= model.num_layers:
        stage, width = layer - 1, model.geometry.num_cells
    else:
        raise ValueError(f"layer {layer} outside 1..{model.num_layers}")
    rows = np.asarray(rows)
    out = np.empty((rows.size, width))
    start = 0
    while start < rows.size:
        stop = start + _BLOCK_ROWS
        if stop == rows.size - 1:
            # numpy multiplies a lone row by matrix-vector products, which
            # round differently from the matrix-matrix products of a batch
            stop += 1
        block = np.asarray(fields[rows[start:stop]], dtype=complex)
        z = next(itertools.islice(_layer_fields(model, block), stage, None))
        np.abs(z, out=out[start:stop])
        start = stop
    return out


def polar_estimates(amp, scale: float, r_bounds) -> tuple:
    """range = r_min + scale |y_1| (r_max - r_min) and
    azimuth = (2 scale |y_2| - 1) pi/2 of output amplitudes |y|."""
    if amp.shape[-1] != 2:
        raise ValueError("readout requires exactly 2 output antennas")
    if not scale > 0:
        raise ValueError("readout scale must be positive")
    r_min, r_max = float(r_bounds[0]), float(r_bounds[1])
    range_est = r_min + scale * amp[..., 0] * (r_max - r_min)
    return range_est, (2.0 * scale * amp[..., 1] - 1.0) * (np.pi / 2.0)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def backward(model: SimModel, trace: ForwardTrace, output_cotangent) -> dict:
    """Reverse-mode gradients of a real loss through the whole stack.

    ``output_cotangent`` packs dL/dRe(y) + j dL/dIm(y) per output
    antenna, batched like the trace.  Returns {1-based layer index:
    real gradient of its ``params``} for the trainable layers only.
    Gradients are summed over leading (batch) axes in fixed array order.
    """
    cot = np.asarray(output_cotangent, dtype=complex)
    if trace.output_field is None or cot.shape != trace.output_field.shape:
        raise ValueError("cotangent shape must match the trace output")
    grads = {}
    g_x = np.conj(cot) @ model.propagation.output
    for i in range(model.num_layers - 1, -1, -1):
        g_z, grad = model.layers[i].backward(trace.pre_activation[i], trace.saved[i], g_x)
        if grad is not None:
            grads[i + 1] = grad
        g_x = g_z if i == 0 else model.propagation.interlayer.apply(g_z)
    return grads


def finite_difference_check(
    model: SimModel,
    input_field,
    loss,
    step: float = 1e-6,
    rng: np.random.Generator | None = None,
    num_params: int = 32,
) -> float:
    """Compare backward gradients against central differences.

    ``loss`` maps an output field to (scalar value, packed cotangent).
    Perturbs ``num_params`` randomly chosen trainable coordinates (all
    of them if fewer exist) and returns the worst relative error, where
    each coordinate's error is measured against its own magnitude with
    a floor of 1e-3 times the largest sampled gradient.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    if num_params < 1:
        raise ValueError("num_params must be >= 1")
    rng = rng or np.random.default_rng(0)
    trace = forward(model, input_field)
    _, cot = loss(trace.output_field)
    grads = backward(model, trace, cot)

    # (1-based layer, cell) in layer order: the trainable layers are the gradient's keys
    coords = [(k, m) for k, grad in sorted(grads.items()) for m in range(grad.size)]
    if not coords:
        return 0.0
    if len(coords) > num_params:
        picks = rng.choice(len(coords), size=num_params, replace=False)
        coords = [coords[int(p)] for p in picks]

    def loss_at():
        return float(loss(forward(model, input_field).output_field)[0])

    pairs = []
    for k, m in coords:
        vec = model.layers[k - 1].params
        saved = vec[m]
        vec[m] = saved + step
        hi = loss_at()
        vec[m] = saved - step
        lo = loss_at()
        vec[m] = saved
        fd = (hi - lo) / (2.0 * step)
        pairs.append((fd, float(grads[k][m])))

    scale = max((max(abs(fd), abs(an)) for fd, an in pairs), default=0.0)
    worst = 0.0
    for fd, an in pairs:
        denom = max(abs(fd), abs(an), 1e-3 * scale, 1e-300)
        worst = max(worst, abs(fd - an) / denom)
    return worst


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


# checkpoint layer kind -> layer class; an entry holds the kind, then
# each of the class's fields in declaration order
_LAYER_KINDS = {"linear": LinearLayer, "nonlinear": NonlinearLayer}


def _layer_to_dict(layer: Layer) -> dict:
    entry = {"kind": {cls: kind for kind, cls in _LAYER_KINDS.items()}[type(layer)]}
    for f in fields(layer):
        value = getattr(layer, f.name)
        if f.name == "activation":
            value = nonlin.activation_to_dict(value)
        entry[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return entry


def _layer_from_dict(entry: dict) -> Layer:
    cls = _LAYER_KINDS.get(entry["kind"])
    if cls is None:
        raise ValueError(f"unknown layer kind {entry['kind']!r}")
    kwargs = {f.name: entry[f.name] for f in fields(cls)}
    if "activation" in kwargs:
        kwargs["activation"] = nonlin.activation_from_dict(kwargs["activation"])
    return cls(**kwargs)


def model_to_dict(model: SimModel) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "geometry": model.geometry.parameters(),
        "layers": [_layer_to_dict(layer) for layer in model.layers],
        "readout_scale": model.readout_scale,
    }


def model_from_dict(data: dict, propagation: Propagation | None = None) -> SimModel:
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format {fmt!r}")
    geometry = emfield.build_geometry(**data["geometry"])
    layers = [_layer_from_dict(entry) for entry in data["layers"]]
    return assemble_model(geometry, layers, propagation, data.get("readout_scale"))


def atomic_write(path, write) -> None:
    """Write a whole text file through ``write(fh)``.

    The file is written in full next to ``path``, flushed to disk and
    then renamed over ``path``, so a failed write leaves an existing
    file intact and no temporary file behind.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path, model: SimModel, extra: dict | None = None) -> None:
    """Single JSON file, written atomically; float repr round-trips
    bit-exactly."""
    payload = model_to_dict(model)
    if extra:
        payload["extra"] = extra

    def write(fh):
        json.dump(payload, fh, indent=1)
        fh.write("\n")

    atomic_write(path, write)


def load_checkpoint(path, propagation: Propagation | None = None):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return model_from_dict(payload, propagation), payload.get("extra", {})
