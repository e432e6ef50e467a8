"""Dataset generation, the position-regression loss, Adam, and the
training loop for stacked-surface localization models.

The objective is the mean squared Cartesian position error of the
readout; the reported metric is its square root (position RMSE in
meters).  All randomness flows from explicit seeds: the dataset draw,
the split, and the batch shuffle are each reproducible in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib import recfunctions

from . import emfield, nonlin, simnet

READOUT_CALIBRATION_QUANTILE = 0.95


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint, exhaustive train/validation/test index sets."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Columnar channel draws: row i of every array is sample i.

    ``fields`` is (N, M) complex (the noisy layer-1 field),
    ``positions`` is (N, 2) (the loss's plane position), ``r`` and
    ``theta`` are (N,) polar truth.  All arrays are read-only.
    """

    fields: np.ndarray
    positions: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    split: SplitIndices
    scenario: emfield.Scenario

    def field_matrix(self, indices) -> np.ndarray:
        return self.fields[indices]

    def position_matrix(self, indices) -> np.ndarray:
        return self.positions[indices]


def split_indices(count: int, rng: np.random.Generator) -> SplitIndices:
    """Shuffled 80/10/10 split; remainder after the integer train and
    validation sizes goes to test, so the three sets partition range(count)."""
    if count < 3:
        raise ValueError("need at least 3 samples to form three splits")
    perm = rng.permutation(count)
    n_train = int(0.8 * count)
    n_val = int(0.1 * count)
    return SplitIndices(
        train=perm[:n_train],
        validation=perm[n_train : n_train + n_val],
        test=perm[n_train + n_val :],
    )


def generate_dataset(
    geometry: emfield.SimGeometry,
    scenario: emfield.Scenario,
    count: int,
    rng: np.random.Generator,
) -> Dataset:
    """Draw ``count`` channel realizations, then split them.

    The draw is :func:`emfield.draw_fields`, so row i equals the i-th of
    ``count`` :func:`emfield.draw_sample` calls on the same stream.
    Noise is frozen inside each sample; epochs reuse the same draw.
    """
    fields = np.empty((count, geometry.num_cells), dtype=complex)
    r, theta = emfield.draw_fields(geometry, scenario, rng, fields)
    positions = emfield.plane_xy(r, theta)
    for column in (fields, positions, r, theta):
        column.setflags(write=False)
    return Dataset(fields, positions, r, theta, split_indices(count, rng), scenario)


# ---------------------------------------------------------------------------
# Targets and metrics
# ---------------------------------------------------------------------------


def position_rmse(estimates, ground_truth) -> float:
    """Root mean squared Euclidean distance between 2-D position lists."""
    est = np.asarray(estimates, dtype=float)
    ref = np.asarray(ground_truth, dtype=float)
    if est.shape != ref.shape or est.ndim != 2 or est.shape[1] != 2:
        raise ValueError("estimates and ground truth must both be (N, 2)")
    if est.shape[0] == 0:
        raise ValueError("cannot compute an RMSE over zero samples")
    return float(np.sqrt(np.mean(np.sum((est - ref) ** 2, axis=1))))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    bias_learning_rate: float = 1e-7
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 64
    epochs: int = 100
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0 or self.bias_learning_rate < 0:
            raise ValueError("learning rates must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("moment decays must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 0 or self.patience < 0:
            raise ValueError("epochs and patience must be >= 0")


@dataclass
class AdamState:
    """First and second moments of each layer, keyed by 1-based layer index."""

    step: int = 0
    first: dict = field(default_factory=dict)
    second: dict = field(default_factory=dict)


def adam_step(
    model: simnet.SimModel,
    grads: dict,
    state: AdamState,
    config: TrainConfig,
) -> AdamState:
    """One bias-corrected Adam update, in place on the model, of each layer
    in ``grads``: phases at ``learning_rate``, biases at ``bias_learning_rate``."""
    state.step += 1
    t = state.step
    for k, grad in grads.items():
        if k not in state.first:
            state.first[k], state.second[k] = np.zeros_like(grad), np.zeros_like(grad)
        # in place: m <- beta1 m + (1 - beta1) g, v <- beta2 v + (1 - beta2) g^2
        m, v = state.first[k], state.second[k]
        m *= config.beta1
        m += (1.0 - config.beta1) * grad
        v *= config.beta2
        v += (1.0 - config.beta2) * grad**2
        m_hat = m / (1.0 - config.beta1**t)
        v_hat = v / (1.0 - config.beta2**t)
        layer = model.layers[k - 1]
        linear = isinstance(layer, simnet.LinearLayer)
        rate = config.learning_rate if linear else config.bias_learning_rate
        layer.step(rate * m_hat / (np.sqrt(v_hat) + config.epsilon))
    return state


# ---------------------------------------------------------------------------
# Loss plumbing
# ---------------------------------------------------------------------------


def calibrate_readout_scale(model: simnet.SimModel, dataset: Dataset) -> float:
    """Set the readout scale so typical output amplitudes land in [0, 1].

    Scale is the reciprocal of the ``READOUT_CALIBRATION_QUANTILE``
    quantile of the per-sample maximum output amplitude over the
    training split, evaluated with the model as-is.
    """
    amp = simnet.amplitudes(model, dataset.fields, dataset.split.train)
    peak = np.quantile(np.max(amp, axis=-1), READOUT_CALIBRATION_QUANTILE)
    if not peak > 0:
        raise ValueError("all training outputs are zero; cannot calibrate readout")
    scale = float(1.0 / peak)
    model.readout_scale = scale
    return scale


def position_loss_and_cotangent(output_field, positions, scale, r_bounds):
    """Mean squared position error of a batch plus its packed cotangent.

    Chains d/dp through the polar readout down to the two output
    amplitudes; outputs with exactly zero amplitude get zero cotangent.
    """
    y = np.asarray(output_field)
    p_ref = np.asarray(positions, dtype=float)
    batch = max(y.shape[0], 1) if y.ndim == 2 else 1
    r_min, r_max = float(r_bounds[0]), float(r_bounds[1])

    amp, direction = nonlin.polar(y)
    range_est, azimuth_est = simnet.polar_estimates(amp, scale, (r_min, r_max))
    cos_t, sin_t = np.cos(azimuth_est), np.sin(azimuth_est)
    # emfield.plane_xy(range_est, azimuth_est), with the cosine and sine kept
    err = np.stack([range_est * cos_t, range_est * sin_t], axis=-1) - p_ref
    value = float(np.mean(np.sum(err**2, axis=-1)))

    d_p = 2.0 * err / batch
    d_range = d_p[..., 0] * cos_t + d_p[..., 1] * sin_t
    d_azimuth = range_est * (-d_p[..., 0] * sin_t + d_p[..., 1] * cos_t)
    d_amp = np.stack(
        [d_range * scale * (r_max - r_min), d_azimuth * scale * np.pi], axis=-1
    )
    return value, d_amp * direction


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_rmse: float


@dataclass
class TrainResult:
    best_model: simnet.SimModel
    best_epoch: int
    best_val_rmse: float
    history: list
    diverged: bool = False


@dataclass(frozen=True)
class EvalResult:
    rmse: float
    records: np.ndarray  # RECORD_DTYPE rows, one per sample


RECORD_DTYPE = np.dtype(
    [
        ("r", float),
        ("theta", float),
        ("r_hat", float),
        ("theta_hat", float),
        ("error_m", float),
    ]
)


def score_estimates(dataset: Dataset, indices, r_hat, theta_hat) -> EvalResult:
    """Position RMSE plus per-sample truth/estimate/error rows of polar
    estimates (r_hat[k], theta_hat[k]) of sample ``indices[k]``."""
    indices = np.asarray(indices)
    if indices.size == 0:
        raise ValueError("cannot evaluate an empty split")
    p_hat = emfield.plane_xy(r_hat, theta_hat)
    truth = dataset.position_matrix(indices)
    errors = np.sqrt(np.sum((p_hat - truth) ** 2, axis=-1))
    columns = (dataset.r[indices], dataset.theta[indices], r_hat, theta_hat, errors)
    records = recfunctions.unstructured_to_structured(np.column_stack(columns), RECORD_DTYPE)
    return EvalResult(rmse=position_rmse(p_hat, truth), records=records)


def _check_readout_width(model: simnet.SimModel) -> None:
    # simnet.polar_estimates checks this too, but only after a forward pass
    if model.propagation.output.shape[0] != 2:
        raise ValueError("readout requires exactly 2 output antennas")


def evaluate(model: simnet.SimModel, dataset: Dataset, indices) -> EvalResult:
    """:func:`score_estimates` of the model's readout over a split."""
    _check_readout_width(model)
    if model.readout_scale is None:
        raise ValueError("model has no readout scale; calibrate before evaluating")
    amp = simnet.amplitudes(model, dataset.fields, indices)
    bounds = (dataset.scenario.r_min_m, dataset.scenario.r_max_m)
    range_est, azimuth_est = simnet.polar_estimates(amp, model.readout_scale, bounds)
    return score_estimates(dataset, indices, range_est, azimuth_est)


def train(
    model: simnet.SimModel, dataset: Dataset, config: TrainConfig
) -> TrainResult:
    """Mini-batch Adam on the mean squared position error.

    The model is updated in place; the returned best checkpoint is an
    independent clone taken at the lowest validation RMSE.  A NaN or
    infinite batch loss or validation RMSE stops training immediately
    and the best (last good) checkpoint is returned with ``diverged``
    set.
    """
    _check_readout_width(model)
    if dataset.split.train.size == 0 or dataset.split.validation.size == 0:
        raise ValueError("training requires non-empty train and validation splits")
    if model.readout_scale is None:
        calibrate_readout_scale(model, dataset)
    bounds = (dataset.scenario.r_min_m, dataset.scenario.r_max_m)
    rng = np.random.default_rng(config.seed)
    state = AdamState()
    train_idx = dataset.split.train
    n_train = train_idx.size

    best = TrainResult(
        best_model=model.clone(),
        best_epoch=0,
        best_val_rmse=evaluate(model, dataset, dataset.split.validation).rmse,
        history=[],
    )
    since_best = 0
    for epoch in range(1, config.epochs + 1):
        order = train_idx[rng.permutation(n_train)]
        sq_error_sum = 0.0
        for start in range(0, n_train, config.batch_size):
            chunk = order[start : start + config.batch_size]
            fields = dataset.field_matrix(chunk)
            positions = dataset.position_matrix(chunk)
            trace = simnet.forward(model, fields)
            loss, cot = position_loss_and_cotangent(
                trace.output_field, positions, model.readout_scale, bounds
            )
            if not math.isfinite(loss):
                best.diverged = True
                return best
            grads = simnet.backward(model, trace, cot)
            adam_step(model, grads, state, config)
            sq_error_sum += loss * chunk.size
            # free this step's arrays before the next forward makes its own
            del trace, cot, grads
        train_loss = sq_error_sum / n_train
        val_rmse = evaluate(model, dataset, dataset.split.validation).rmse
        best.history.append(EpochRecord(epoch, train_loss, val_rmse))
        if not math.isfinite(val_rmse):
            best.diverged = True
            return best
        if val_rmse < best.best_val_rmse:
            best.best_model = model.clone()
            best.best_epoch = epoch
            best.best_val_rmse = val_rmse
            since_best = 0
        else:
            since_best += 1
            if config.patience > 0 and since_best >= config.patience:
                break
    return best

