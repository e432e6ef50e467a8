"""Comparison systems for the localization study.

Two baselines: an all-linear stacked receiver trained through the same
pipeline as the nonlinear one, and a fully digital matched-filter
estimator that searches a (range, azimuth) grid directly on the
aperture field.  The matched filter sees all cell signals at once, so
its hardware cost is one RF chain per cell; it serves as an accuracy
bound, not as a comparable architecture.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import emfield, simnet, trainer


def linear_sim_model(
    geometry: emfield.SimGeometry,
    rng: np.random.Generator,
    propagation: simnet.Propagation | None = None,
) -> simnet.SimModel:
    """All-phase-shift stack (no nonlinear layer anywhere), uniform
    random phase init, trainable; depth comes from the geometry."""
    layers = [
        simnet.uniform_phase_layer(geometry.num_cells, rng)
        for _ in range(geometry.num_layers)
    ]
    return simnet.assemble_model(geometry, layers, propagation)


# ---------------------------------------------------------------------------
# Matched-filter grid search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchGrid:
    """Candidate ranges and azimuths; flat index runs azimuth-fastest."""

    r_points: np.ndarray
    theta_points: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_points, dtype=float)
        th = np.asarray(self.theta_points, dtype=float)
        object.__setattr__(self, "r_points", r)
        object.__setattr__(self, "theta_points", th)
        for name, axis in (("r_points", r), ("theta_points", th)):
            if axis.ndim != 1 or axis.size < 2:
                raise ValueError(f"{name} needs at least 2 points")
            if np.any(np.diff(axis) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
        if r[0] <= 0:
            raise ValueError("ranges must be positive")

    @property
    def shape(self) -> tuple:
        return (self.r_points.size, self.theta_points.size)


def make_search_grid(r_bounds, theta_max_rad, num_r: int, num_theta: int) -> SearchGrid:
    return SearchGrid(
        r_points=np.linspace(float(r_bounds[0]), float(r_bounds[1]), num_r),
        theta_points=np.linspace(-float(theta_max_rad), float(theta_max_rad), num_theta),
    )


def grid_cell_diagonal(grid: SearchGrid) -> float:
    """Cartesian diagonal of the worst (largest radius) grid cell in
    meters: range step across, arc length r_max * theta step along."""
    dr = float(np.max(np.diff(grid.r_points)))
    dth = float(np.max(np.diff(grid.theta_points)))
    r_max = float(grid.r_points[-1])
    return float(np.hypot(dr, r_max * dth))


# The matched filter calls the steering formula through this module
# global, so a wrapper set on ``baselines.steering_rows`` sees every row.
steering_rows = emfield.steering_rows


_BLOCK_ROWS = 1024  # steering rows built per block


def _folded_field(input_field, geometry: emfield.SimGeometry) -> np.ndarray:
    """F s: each y row j of the field plus its mirror n-1-j (the centre
    row once), over the first ceil(n/2) y rows.

    A steering row a repeats under the y mirror (see
    :func:`emfield.steering_rows`), so a^H s = a_u^H F s, with a_u the
    first ceil(n/2) * n entries of a.
    """
    s = np.asarray(input_field, dtype=complex)
    if s.shape != (geometry.num_cells,):
        raise ValueError("input field must be a length-M vector")
    n = geometry.cells_per_side
    grid = s.reshape(n, n)
    folded = grid[: (n + 1) // 2].copy()
    folded[: n // 2] += grid[::-1][: n // 2]
    return folded.reshape(-1)


def _steering_blocks(geometry: emfield.SimGeometry, grid: SearchGrid):
    """Yield (start, stop, steering rows) over the grid in flat order."""
    n_r, n_th = grid.shape
    r_flat = np.repeat(grid.r_points, n_th)
    th_flat = np.tile(grid.theta_points, n_r)
    for start in range(0, r_flat.size, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, r_flat.size)
        yield start, stop, steering_rows(geometry, r_flat[start:stop], th_flat[start:stop])


def _match_power(conj_steering: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Matched-filter power |a^H s|^2 for each row of conj(a)."""
    return np.abs(conj_steering @ s) ** 2


def _peak_point(metric: np.ndarray, grid: SearchGrid) -> tuple:
    """Grid point of the largest metric entry.

    Ties resolve to the smallest flat index (range-major,
    azimuth-fastest).
    """
    flat = int(np.argmax(metric))  # first occurrence wins ties
    i_r, i_th = divmod(flat, grid.shape[1])
    return float(grid.r_points[i_r]), float(grid.theta_points[i_th])


def ml_metric_map(input_field, geometry: emfield.SimGeometry, grid: SearchGrid) -> np.ndarray:
    """Matched-filter power |a(r, theta)^H s|^2 over the whole grid.

    Shape (num_r, num_theta); evaluated in row blocks to bound the
    steering-matrix working set, on each row's unique mirror half.
    """
    f = _folded_field(input_field, geometry)
    metric = np.empty(grid.shape).reshape(-1)
    for start, stop, rows in _steering_blocks(geometry, grid):
        metric[start:stop] = _match_power(rows[:, : f.size].conj(), f)
    return metric.reshape(grid.shape)


def ml_estimate(input_field, geometry: emfield.SimGeometry, grid: SearchGrid) -> tuple:
    """Exhaustive argmax of the matched-filter power over the grid.

    Ties resolve to the smallest flat index (range-major,
    azimuth-fastest), so an all-zero input returns the first grid point.
    Nothing is cached: every call rebuilds the steering rows block by
    block, so memory stays bounded for any grid size.
    """
    return _peak_point(ml_metric_map(input_field, geometry, grid), grid)


@functools.lru_cache(maxsize=1)
def _coarse_steering(
    geometry: emfield.SimGeometry,
    r_bounds: tuple,
    theta_max_rad: float,
    coarse_size: int,
) -> np.ndarray:
    """Read-only conj(steering) of the two-stage coarse grid, one row
    per grid point in flat order, built in row blocks; each row holds
    its unique mirror half (see :func:`_folded_field`)."""
    grid = make_search_grid(r_bounds, theta_max_rad, coarse_size, coarse_size)
    n = geometry.cells_per_side
    conj = np.empty((coarse_size * coarse_size, (n + 1) // 2 * n), dtype=complex)
    for start, stop, rows in _steering_blocks(geometry, grid):
        np.conjugate(rows[:, : conj.shape[1]], out=conj[start:stop])
    conj.flags.writeable = False
    return conj


def ml_estimate_two_stage(
    input_field,
    geometry: emfield.SimGeometry,
    r_bounds,
    theta_max_rad: float,
    coarse_size: int = 100,
    refine_size: int = 21,
) -> tuple:
    """Coarse search then a dense pass one coarse cell around the peak.

    With the defaults this reaches the resolution of a 1000x1000
    exhaustive grid at roughly 1% of its cost; the refinement window is
    clipped at the search bounds.

    The coarse stage scores the folded field against a conjugated
    steering matrix that is built once per (geometry, r_bounds,
    theta_max_rad, coarse_size) and reused by later calls.  It holds the
    unique mirror half of each row, ceil(n/2) x n x coarse_size**2 x 16
    bytes: 5 MB at 8x8 cells and 128 MB at 40x40 cells with the default
    100x100 grid.  Only the most recent matrix is kept, and it is
    read-only.  The refinement stage and :func:`ml_estimate` build their
    steering rows on every call.
    """
    f = _folded_field(input_field, geometry)
    r_lo, r_hi = float(r_bounds[0]), float(r_bounds[1])
    th_max = float(theta_max_rad)
    coarse = make_search_grid((r_lo, r_hi), th_max, coarse_size, coarse_size)
    conj = _coarse_steering(geometry, (r_lo, r_hi), th_max, coarse_size)
    r0, th0 = _peak_point(_match_power(conj, f), coarse)
    dr = float(coarse.r_points[1] - coarse.r_points[0])
    dth = float(coarse.theta_points[1] - coarse.theta_points[0])
    fine = SearchGrid(
        r_points=np.linspace(max(r0 - dr, r_lo), min(r0 + dr, r_hi), refine_size),
        theta_points=np.linspace(
            max(th0 - dth, -th_max), min(th0 + dth, th_max), refine_size
        ),
    )
    return ml_estimate(input_field, geometry, fine)


def evaluate_ml(
    dataset: trainer.Dataset,
    geometry: emfield.SimGeometry,
    indices,
    estimator,
) -> trainer.EvalResult:
    """Run a (field -> (r, theta)) estimator over a split; same record
    schema and RMSE definition as the trained-model evaluation."""
    estimates = [estimator(dataset.fields[i]) for i in np.asarray(indices)]
    r_hat, theta_hat = np.array(estimates, dtype=float).reshape(-1, 2).T
    return trainer.score_estimates(dataset, indices, r_hat, theta_hat)
