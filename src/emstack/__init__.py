"""Differentiable stacked-metasurface receivers with passive nonlinear cells.

Modules
-------
emfield
    Geometry, propagation kernel, steering vectors, channel sampling.
nonlin
    Device nonlinearities, envelope maps, closed-form diode response, surrogates.
simnet
    Layered model, forward pass, hand-derived adjoints, checkpoints.
trainer
    Datasets, Adam updates, readout calibration, training loop.
baselines
    All-linear stacks and matched-filter grid-search estimation.
cli
    Experiment runner (``emstack run | curves | check | ml-baseline``);
    not imported eagerly, so ``python -m emstack.cli`` runs cleanly.
"""

from . import baselines, emfield, nonlin, simnet, trainer
from .emfield import Scenario, SimGeometry, UePosition, build_geometry, draw_sample
from .nonlin import DiodeCircuitParams, FittedRelu, diode_activation
from .simnet import (
    LinearLayer,
    NonlinearLayer,
    SimModel,
    assemble_model,
    backward,
    compute_propagation,
    forward,
    load_checkpoint,
    readout,
    save_checkpoint,
)
from .trainer import Dataset, TrainConfig, evaluate, generate_dataset, train

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DiodeCircuitParams",
    "FittedRelu",
    "LinearLayer",
    "NonlinearLayer",
    "Scenario",
    "SimGeometry",
    "SimModel",
    "TrainConfig",
    "UePosition",
    "assemble_model",
    "backward",
    "baselines",
    "build_geometry",
    "compute_propagation",
    "diode_activation",
    "draw_sample",
    "emfield",
    "evaluate",
    "forward",
    "generate_dataset",
    "load_checkpoint",
    "nonlin",
    "readout",
    "save_checkpoint",
    "simnet",
    "train",
    "trainer",
]
