"""Benchmark workloads: a shipped preset plus config overrides.

Every workload is sized so that one repetition, a fresh process that
runs the whole pipeline once, takes about 6 to 10 s on one core.  A run
of the benchmark then repeats it three to six times within its time
budget and reports medians.  This module imports nothing heavy, so the
parent process can read it before any BLAS library is loaded.

Why each workload exists, and which layer it stresses:

``desk``
    ``emstack run --preset desk`` as shipped, except that the matched
    filter scores the first 60 samples of the 200-sample test split.
    ``steering_rows`` is rebuilt for every estimate, so ``baselines``
    carries most of the wall time and training the rest.  Batched
    steering shows its gain here.  Its 50-epoch training at 8x8 cells
    is dominated by Python overhead in ``trainer``, ``simnet`` and
    ``nonlin``, so it also shows gains in the training loop.
``paper-train``
    The paper geometry (40x40 cells, 6 layers) with trainable relu-fit,
    one training seed, 400 samples, 2 epochs and no matched filter.
    The 1600x1600 coupling GEMMs and the propagation build dominate; it
    is the only workload where a faster coupling operator shows.
``desk-diode``
    The desk preset with fabrication-random diode-table cells at the
    default 2048 table points, then the same training.  It is the only
    workload that runs the diode solver and ``TabulatedActivationSet``.
    Its tables dominate ``setup_s``.  The stack has 4x4 cells instead
    of 8x8, 16 tables instead of 64, so that four repetitions fit a
    run; the per-table work is unchanged.
"""

WORKLOADS = {
    "desk": {
        "preset": "desk",
        "overrides": {},
        "matched_filter_samples": 60,
        "accuracy_guard": "centroid",
        "gradient_check": False,
    },
    "paper-train": {
        "preset": "paper",
        "overrides": {
            "experiment.sweep": "none",
            "model.nl_mode": "trainable",
            "training.num_samples": 400,
            "training.epochs": 2,
        },
        "matched_filter_samples": 0,
        # two epochs do not reach the centroid predictor at this scale;
        # require that training improved on the initial model instead
        "accuracy_guard": "progress",
        "gradient_check": True,
    },
    "desk-diode": {
        "preset": "desk",
        "overrides": {
            "scenario.cells_per_side": 4,
            "model.nl_mode": "static-random",
            "model.activation": "diode-table",
        },
        "matched_filter_samples": 0,
        # cells sit deep in diode cutoff at these field levels (a few
        # microvolts), so the stack learns too slowly to beat the
        # centroid reliably; require progress instead
        "accuracy_guard": "progress",
        "gradient_check": False,
    },
}
