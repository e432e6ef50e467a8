"""Physical layer of the simulator: geometry, diffraction operators, channels.

Everything downstream (the stacked forward model, the trainer, the
matched-filter baseline) consumes the objects built here.  Conventions:

* Metasurface layers are parallel x-y planes stacked along +z, layer 1
  centered at the origin.  The receive array sits behind the last layer.
* The user terminal lies on the -z side at polar coordinates (r, theta),
  mapped to Cartesian (r sin(theta), 0, -r cos(theta)); theta = 0 is
  boresight.
* All quantities are SI (meters, Hz, watts).  Complex fields are the
  equivalent low-pass representation at the carrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

_TINY = float(np.finfo(float).tiny)  # smallest normal float


def dbm_to_watts(dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** (dbm / 10.0) / 1000.0


def db_to_linear(db: float) -> float:
    """Convert a power ratio in dB to linear scale."""
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True, eq=False)
class SimGeometry:
    """Physical layout of the stacked surface and its output array.

    Cells form a square grid with half-wavelength pitch on every layer;
    layer l sits at axial coordinate (l - 1) * layer_spacing_m.  The
    output array is a line of antennas along x at output_distance_m
    behind the last layer.  The init fields are the defining parameters
    (see :meth:`parameters`); the rest is derived from them.

    Attributes
    ----------
    carrier_frequency_hz : float
        Carrier frequency f0.
    cells_per_side : int
        Grid side length; each layer has cells_per_side**2 cells.
    num_layers : int
        Number of stacked layers L.
    layer_spacing_m : float
        Axial gap between consecutive layers.
    output_distance_m : float
        Gap between the last layer and the output array.
    num_output_antennas : int
        Output array size N_R.
    output_spacing_m : float
        Element pitch of the output array; half a wavelength if None.
    wavelength_m : float
        Wavelength c / f0.
    cell_positions : tuple of ndarray
        Per-layer (M, 3) cell coordinates in meters, centered on each
        layer's plane center, x fastest then y.
    output_positions : ndarray
        (N_R, 3) output antenna coordinates.

    Raises
    ------
    ValueError
        If the frequency, a distance, or a count is not positive, or a
        length (cell pitch, spacing, distance) squares beyond float range.
    """

    carrier_frequency_hz: float
    cells_per_side: int
    num_layers: int
    layer_spacing_m: float
    output_distance_m: float
    num_output_antennas: int = 2
    output_spacing_m: float | None = None
    wavelength_m: float = field(init=False)
    cell_positions: tuple = field(init=False, repr=False)
    output_positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # counts to int, lengths and the frequency to float, as stored
        for f in fields(self):
            if f.init and getattr(self, f.name) is not None:
                cast = int if f.type in (int, "int") else float
                object.__setattr__(self, f.name, cast(getattr(self, f.name)))
        if self.carrier_frequency_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.cells_per_side < 1 or self.num_layers < 1 or self.num_output_antennas < 1:
            raise ValueError("cell grid, layer and antenna counts must be >= 1")
        if self.layer_spacing_m <= 0 or self.output_distance_m <= 0:
            raise ValueError("layer spacing and output distance must be positive")
        object.__setattr__(self, "wavelength_m", SPEED_OF_LIGHT / self.carrier_frequency_hz)
        if self.output_spacing_m is None:
            object.__setattr__(self, "output_spacing_m", self.cell_pitch_m)
        # distances are square roots of summed squares, and the cell area
        # is a squared length, so every length must square to a normal float
        for name in ("cell_pitch_m", "layer_spacing_m", "output_distance_m", "output_spacing_m"):
            length = getattr(self, name)
            if not _TINY <= length * length < np.inf:
                raise ValueError(f"{name} = {length!r} m squares beyond float range")
        # the output array sits at depth + distance, and the output
        # coupling subtracts the depth back out
        depth = (self.num_layers - 1) * self.layer_spacing_m
        if not (depth + self.output_distance_m) - depth > 0:
            raise ValueError(
                f"output_distance_m = {self.output_distance_m!r} m is lost in the rounding "
                f"of the stack depth {depth!r} m"
            )

        n = self.cells_per_side
        axis = (np.arange(n) - (n - 1) / 2.0) * self.cell_pitch_m
        gx, gy = np.meshgrid(axis, axis, indexing="xy")
        layers = []
        for z in np.arange(self.num_layers) * self.layer_spacing_m:
            pos = np.column_stack([gx.ravel(), gy.ravel(), np.full(n * n, z)])
            pos.setflags(write=False)
            layers.append(pos)
        object.__setattr__(self, "cell_positions", tuple(layers))

        k = self.num_output_antennas
        out = np.column_stack([
            (np.arange(k) - (k - 1) / 2.0) * self.output_spacing_m,
            np.zeros(k),
            np.full(k, (self.num_layers - 1) * self.layer_spacing_m + self.output_distance_m),
        ])
        out.setflags(write=False)
        object.__setattr__(self, "output_positions", out)

    def parameters(self) -> dict:
        """The defining parameters by name, in declaration order; this
        is the geometry entry of a checkpoint."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    @property
    def num_cells(self) -> int:
        """Cells per layer, M."""
        return self.cells_per_side ** 2

    @property
    def cell_pitch_m(self) -> float:
        return self.wavelength_m / 2.0

    @property
    def cell_area_m2(self) -> float:
        """Cell area A = lambda^2 / 4."""
        return self.wavelength_m ** 2 / 4.0

    @property
    def wavenumber(self) -> float:
        """k = 2 pi / lambda."""
        return 2.0 * np.pi / self.wavelength_m

    @property
    def aperture_diagonal_m(self) -> float:
        """Diagonal extent D of one square layer."""
        return np.sqrt(2.0) * (self.cells_per_side - 1) * self.cell_pitch_m


# The public constructor name.
build_geometry = SimGeometry


def fraunhofer_distance(geometry: SimGeometry) -> float:
    """Far-field boundary 2 D^2 / lambda for one layer's aperture."""
    d = geometry.aperture_diagonal_m
    return 2.0 * d ** 2 / geometry.wavelength_m


# ---------------------------------------------------------------------------
# Diffraction operators
# ---------------------------------------------------------------------------

OUTPUT_ARRAY = "output"


@dataclass(frozen=True, eq=False)
class PropagationMatrix:
    """Dense complex coupling matrix between two consecutive planes."""

    entries: np.ndarray


def diffraction_kernel(distance, cos_incidence, wavelength: float, cell_area: float):
    """Scalar free-space coupling coefficient between two cells.

    Implements (A cos(chi) / d) * (1 / (2 pi d) - j / lambda) * exp(j k d)
    for propagation distance d and obliquity cosine cos(chi).  Accepts
    arrays and broadcasts.

    Raises
    ------
    ValueError
        If any distance is not strictly positive.
    FloatingPointError
        If any coefficient is not finite (a degenerate geometry).
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("diffraction kernel requires strictly positive distances")
    k = 2.0 * np.pi / wavelength
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        amplitude = cell_area * np.asarray(cos_incidence) / d
        kernel = amplitude * (1.0 / (2.0 * np.pi * d) - 1j / wavelength) * np.exp(1j * k * d)
    if not np.all(np.isfinite(kernel)):
        raise FloatingPointError("non-finite propagation entry (degenerate geometry)")
    return kernel


def rayleigh_sommerfeld_matrix(
    geometry: SimGeometry, source_layer: int, dest_layer
) -> PropagationMatrix:
    """Build the diffraction matrix from one layer to the next plane.

    ``source_layer`` is 1-based.  ``dest_layer`` must be either
    ``source_layer + 1`` or :data:`OUTPUT_ARRAY` when the source is the
    last layer.  Entry (m, i) couples source cell i to destination
    element m; the obliquity cosine is taken against the source-plane
    normal (+z).
    """
    if not 1 <= source_layer <= geometry.num_layers:
        raise ValueError(f"source layer {source_layer} out of range")
    src = geometry.cell_positions[source_layer - 1]
    if dest_layer == OUTPUT_ARRAY:
        if source_layer != geometry.num_layers:
            raise ValueError("output array couples only to the last layer")
        dst = geometry.output_positions
    else:
        if dest_layer != source_layer + 1:
            raise ValueError("destination must be the layer immediately after the source")
        dst = geometry.cell_positions[dest_layer - 1]

    diff = dst[:, None, :] - src[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=-1))
    cos_chi = diff[:, :, 2] / dist
    entries = diffraction_kernel(dist, cos_chi, geometry.wavelength_m, geometry.cell_area_m2)
    entries.setflags(write=False)
    return PropagationMatrix(entries)


def interlayer_offset_kernel(geometry: SimGeometry) -> np.ndarray:
    """Coupling between consecutive layers as a function of cell offset.

    Returns the (2n-1, 2n-1) array, n = cells_per_side, whose entry
    (dy + n - 1, dx + n - 1) couples a source cell to the destination
    cell dx columns and dy rows away, at the layer spacing.  Entry
    (m, i) of ``rayleigh_sommerfeld_matrix(geometry, 1, 2)`` equals the
    kernel at the offset of cell m from cell i, up to last-bit rounding
    of the cell coordinates.
    """
    n = geometry.cells_per_side
    offsets = np.arange(1 - n, n) * geometry.cell_pitch_m
    dx, dy = np.meshgrid(offsets, offsets, indexing="xy")
    dz = geometry.layer_spacing_m
    dist = np.sqrt(dx ** 2 + dy ** 2 + dz ** 2)
    return diffraction_kernel(dist, dz / dist, geometry.wavelength_m, geometry.cell_area_m2)


# ---------------------------------------------------------------------------
# Source positions and channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UePosition:
    """Terminal position in polar coordinates on the -z side of layer 1."""

    range_m: float
    azimuth_rad: float

    def __post_init__(self):
        if self.range_m <= 0:
            raise ValueError("range must be positive")
        if not abs(self.azimuth_rad) < np.pi / 2:
            raise ValueError("azimuth must lie strictly inside +-90 degrees")


def plane_xy(r, theta) -> np.ndarray:
    """Plane positions (r cos(theta), r sin(theta)) of polar estimates
    or truths, on a new last axis of length 2."""
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def steering_rows(geometry: SimGeometry, r_values, theta_values, out=None) -> np.ndarray:
    """Near-field steering vectors of the first layer for point sources
    at paired (r, theta) lists, one row per source, into ``out`` if given.

    Entry m of a row is exp(-j k (r - r_m)) / sqrt(M) with r the
    distance from the source to the layer center and r_m the distance
    to cell m, so every row has unit Euclidean norm by construction.
    Vectorized so the grid search does not pay per-point Python
    overhead.  The cells are centred and every source sits at y = 0, so
    y row j (x fastest) and its mirror n-1-j lie at the same distance:
    the first ceil(n/2) y rows are evaluated and copied to their mirrors.
    """
    r = np.asarray(r_values, dtype=float)
    th = np.asarray(theta_values, dtype=float)
    n = geometry.cells_per_side
    cells = geometry.cell_positions[0][: (n + 1) // 2 * n]
    # per-axis differences to the source at (r sin(theta), 0, -r cos(theta)),
    # squared and summed in place; numpy buffers each broadcast operand, so
    # a difference starts as a copy of its cell column
    shape = (r.size, len(cells))
    dist = np.broadcast_to(cells[:, 0], shape).copy()
    dist -= (r * np.sin(th))[:, None]
    dz = np.broadcast_to(cells[:, 2], shape).copy()
    dz += (r * np.cos(th))[:, None]
    dist *= dist
    dist += cells[:, 1] * cells[:, 1]
    dist += np.multiply(dz, dz, out=dz)
    del dz
    np.subtract(r[:, None], np.sqrt(dist, out=dist), out=dist)
    if out is None:
        out = np.empty((r.size, geometry.num_cells), dtype=complex)
    unique = out[:, : len(cells)]
    np.multiply(-1j * geometry.wavenumber, dist, out=unique)
    np.exp(unique, out=unique)
    unique /= np.sqrt(geometry.num_cells)
    grid = out.reshape(r.size, n, n)  # splits the cell axis: always a view
    grid[:, n - n // 2 :] = grid[:, : n // 2][:, ::-1]
    return out


def array_response(geometry: SimGeometry, position: UePosition) -> np.ndarray:
    """Steering vector of one point source: the one-row case of
    :func:`steering_rows`."""
    return steering_rows(geometry, [position.range_m], [position.azimuth_rad])[0]


def path_loss(geometry: SimGeometry, position: UePosition) -> float:
    """Free-space power path loss (4 pi r / lambda)^2.

    Raises
    ------
    ValueError
        If the loss exceeds the float range (r / lambda above ~1e153).
    """
    return _path_loss_at(geometry, position.range_m)


def _path_loss_at(geometry: SimGeometry, range_m: float) -> float:
    # a Python float square: numpy's differs in the last bit for ~0.1% of ranges
    try:
        return (4.0 * np.pi * float(range_m) / geometry.wavelength_m) ** 2
    except OverflowError as exc:
        raise ValueError(
            f"path loss at {range_m!r} m beyond float range at this wavelength"
        ) from exc


def _complex_rows(parts: np.ndarray) -> np.ndarray:
    """parts[:, 0] + 1j * parts[:, 1] of an (n, 2, M) array, bit for bit,
    without numpy's full-size buffers for casting the parts."""
    out = np.zeros((len(parts), parts.shape[-1]), dtype=complex)
    out.real = parts[:, 1]
    np.multiply(1j, out, out=out)
    out.real += parts[:, 0]  # the imaginary part is never -0.0, so 0.0 + it is it
    return out


def _rician_rows(geometry, r, theta, gamma, normals, rician_factor_linear, out) -> np.ndarray:
    """Rician channel rows (into ``out`` if given) of sources at (r,
    theta) with LoS phases gamma and scattered parts ``normals``; a row's
    operations and operand order, hence its bits, do not depend on the
    other rows."""
    if rician_factor_linear < 0:
        raise ValueError("Rician factor must be nonnegative")
    kap = rician_factor_linear
    los = steering_rows(geometry, r, theta, out=out)
    los *= np.exp(1j * gamma)[:, None]
    np.multiply(np.sqrt(kap / (kap + 1.0)), los, out=los)
    nlos = _complex_rows(normals)
    nlos /= np.sqrt(2.0 * geometry.num_cells)
    los += np.multiply(np.sqrt(1.0 / (kap + 1.0)), nlos, out=nlos)
    del nlos
    los /= np.sqrt([_path_loss_at(geometry, x) for x in r.tolist()]).astype(complex)[:, None]
    return los


def rician_channel(
    geometry: SimGeometry,
    position: UePosition,
    rician_factor_linear: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one Rician channel vector between the source and layer 1.

    The line-of-sight term is the steering vector with a random common
    phase; the scattered term has i.i.d. circular complex Gaussian
    entries of variance 1/M.  The mixture is scaled so that
    E[||h||^2] = 1 / path_loss.
    """
    gamma = rng.uniform(0.0, 2.0 * np.pi)
    normals = rng.standard_normal((1, 2, geometry.num_cells))
    polar = np.array([[position.range_m], [position.azimuth_rad], [gamma]])
    return _rician_rows(geometry, *polar, normals, rician_factor_linear, None)[0]


@dataclass(frozen=True)
class Scenario:
    """Source sampling region and radio parameters for dataset draws."""

    r_min_m: float = 1.0
    r_max_m: float = 3.0
    theta_max_rad: float = np.deg2rad(70.0)
    rician_factor: float = db_to_linear(20.0)
    transmit_power_w: float = dbm_to_watts(30.0)
    noise_power_w: float = dbm_to_watts(-110.0)

    def __post_init__(self):
        if not 0 < self.r_min_m < self.r_max_m:
            raise ValueError("need 0 < r_min < r_max")
        if not 0 < self.theta_max_rad <= np.deg2rad(70.0):
            raise ValueError("theta_max must be in (0, 70] degrees")
        if self.noise_power_w < 0 or self.transmit_power_w <= 0:
            raise ValueError("powers out of range")


@dataclass(frozen=True)
class ChannelSample:
    """One training/evaluation draw: position and observed field."""

    position: UePosition
    input_field: np.ndarray


_BLOCK_ROWS = 64  # samples synthesized together by draw_fields


def draw_fields(
    geometry: SimGeometry, scenario: Scenario, rng: np.random.Generator, out: np.ndarray
) -> np.ndarray:
    """Draw a uniform position and the noisy layer-1 field of its channel
    into each row of the (count, M) ``out``; return (r, theta), (2, count).

    The field is h sqrt(P_T) plus circular complex Gaussian noise of
    per-entry variance ``noise_power_w``.  A sample's 3 uniforms (range,
    azimuth, LoS phase) and 4 M normals (scattered, then noise; real,
    then imaginary parts) are contiguous in the stream, so it takes two
    generator calls; rows are then formed ``_BLOCK_ROWS`` at a time.
    """
    count, m = out.shape
    polar = np.empty((2, count))
    uniforms = np.empty((min(count, _BLOCK_ROWS), 3))
    normals = np.empty((len(uniforms), 4, m))
    low = np.array([scenario.r_min_m, -scenario.theta_max_rad, 0.0])
    span = np.array([scenario.r_max_m, scenario.theta_max_rad, 2.0 * np.pi]) - low
    for start in range(0, count, _BLOCK_ROWS):
        block = slice(start, min(start + _BLOCK_ROWS, count))
        n = block.stop - start
        for u, g in zip(uniforms[:n], normals[:n]):
            rng.random(out=u)
            rng.standard_normal(out=g)
        # Generator.uniform(low, high) is low + (high - low) u, bit for bit
        r, theta, gamma = (low + span * uniforms[:n]).T.copy()
        polar[:, block] = r, theta
        field = _rician_rows(
            geometry, r, theta, gamma, normals[:n, :2], scenario.rician_factor, out[block]
        )
        field *= np.sqrt(scenario.transmit_power_w)
        noise = _complex_rows(normals[:n, 2:])
        field += np.multiply(noise, np.sqrt(scenario.noise_power_w / 2.0), out=noise)
        del noise  # before the next block's steering rows
    return polar


def draw_sample(
    geometry: SimGeometry, scenario: Scenario, rng: np.random.Generator
) -> ChannelSample:
    """One sample of :func:`draw_fields`, as a position and its field."""
    field = np.empty((1, geometry.num_cells), dtype=complex)
    (r,), (theta,) = draw_fields(geometry, scenario, rng, field)
    field.setflags(write=False)
    return ChannelSample(UePosition(float(r), float(theta)), field[0])
