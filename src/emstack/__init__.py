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
