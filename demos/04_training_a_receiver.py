"""Training a small receiver end to end.

Draws a dataset of noisy aperture fields from random transmitter
positions, trains the phase shifts and operating points to read range
and azimuth off two output antennas, and evaluates on held-out
positions.  Small on purpose; the desk presets in the package run the
full study.
"""

import numpy as np

from emstack import cli, simnet, trainer

config_text = """
[scenario]
cells_per_side = 8

[training]
num_samples = 1000
epochs = 30
seeds = 5
"""

cfg = cli.load_config(config_text)
geometry = cli.build_geometry(cfg)
dataset = cli.build_dataset(cfg, geometry)
print(f"{len(dataset.fields)} samples: {dataset.split.train.size} train, "
      f"{dataset.split.validation.size} validation, {dataset.split.test.size} test")

propagation = simnet.compute_propagation(geometry)
model = cli.build_model(cfg, geometry, propagation, dataset, seed=5)
nl = sorted(model.nl_layer_set)
biases = model.layers[nl[0] - 1].biases
print(f"nonlinear layer at position {nl[0]}, median knee shift "
      f"{np.median(-biases):.2e} (calibrated to the field it sees)")

result = trainer.train(model, dataset, cli._train_config(cfg.values, seed=5))
print(f"\ntrained {len(result.history)} epochs, best at epoch {result.best_epoch}")
for rec in result.history[::6]:
    print(f"  epoch {rec.epoch:2d}: train loss {rec.train_loss:.4f}, "
          f"validation RMSE {rec.val_rmse:.4f} m")

test = trainer.evaluate(result.best_model, dataset, dataset.split.test)
print(f"\ntest RMSE {test.rmse:.4f} m over {test.records.size} positions")
worst = test.records[np.argmax(test.records["error_m"])]
print(f"worst case: true (r {worst['r']:.2f} m, az {worst['theta']:.2f} rad) "
      f"-> estimate (r {worst['r_hat']:.2f}, az {worst['theta_hat']:.2f}), "
      f"miss {worst['error_m']:.3f} m")
print("\nrange and azimuth are read from the two output amplitudes")
print("through a fixed affine map; training shapes the field so those")
print("amplitudes become the coordinates.")
