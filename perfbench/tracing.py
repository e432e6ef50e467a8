"""Phase timers and layer spans for one benchmark repetition.

The pipeline in ``worker.py`` times its phases (set-up, training,
matched filter, output) with :meth:`Recorder.phase` in every run.  A
traced run additionally wraps the public functions of each emstack
module, as attributes of that module or class, so every call records a
span (name, start, end, parent) in memory.  Nothing under ``src/`` is
changed; the wrappers exist only inside the benchmark's own process.

Which end-to-end metric each layer should move, and on which workload:

- ``emfield.draw_sample``: ``setup_s``, every workload;
  ``emfield.rayleigh_sommerfeld_matrix``: ``setup_s`` on paper-train.
- ``simnet.forward`` (and ``.rows``), ``simnet.backward``:
  ``train_samples_per_s`` on paper-train; ``simnet.propagation_mb``:
  ``peak_rss_mb`` on paper-train.
- ``nonlin.value``, ``.derivative``, ``.bias_derivative``:
  ``train_samples_per_s`` on desk and desk-diode;
  ``nonlin.diode_activation``: ``setup_s`` on desk-diode only.
- ``trainer.train`` (loop self time), ``trainer.batch``,
  ``trainer.adam_step``, ``trainer.position_loss_and_cotangent``,
  ``trainer.evaluate``: ``train_samples_per_s`` on desk.
- ``baselines.steering_rows`` (and ``.rows``), ``baselines.ml_metric_map``,
  ``baselines.steering_rows_per_estimate``: ``wall_s`` on desk, zero
  elsewhere.
- ``cli.io`` (and ``.bytes``): ``wall_s`` on desk and desk-diode.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from emstack import baselines, cli, emfield, nonlin, simnet, trainer


def _rows(args, kwargs, result):
    """Leading-axis rows of a (..., M) field argument."""
    shape = np.shape(args[1] if len(args) > 1 else kwargs["input_field"])
    return int(np.prod(shape[:-1]))


def _steering_rows(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["r_values"]))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


class Recorder:
    """Phase totals for the end-to-end metrics, spans when tracing."""

    def __init__(self, trace: bool):
        self.active = trace
        self.totals = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []

    def _open(self, name):
        if not self.active:
            return None
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        end = perf_counter()
        if index is not None:
            self._stack.pop()
            self.spans[index][2] = end
        return end

    @contextmanager
    def phase(self, name):
        start = perf_counter()
        index = self._open(name)
        try:
            yield
        finally:
            self.totals[name] += self._close(index) - start

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a wrapper that records a span per
        call and adds ``count(args, kwargs, result)`` to ``<name>.<key>``."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                key, counter = count
                self.counts[f"{name}.{key}"] += counter(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def install(self):
        """Wrap the layer boundaries listed in BENCHMARK.json."""
        self.wrap(emfield, "draw_sample", "emfield.draw_sample")
        self.wrap(emfield, "rayleigh_sommerfeld_matrix", "emfield.rayleigh_sommerfeld_matrix")
        self.wrap(simnet, "forward", "simnet.forward", ("rows", _rows))
        self.wrap(simnet, "backward", "simnet.backward")
        self.wrap(nonlin, "diode_activation", "nonlin.diode_activation")
        pending = [nonlin.Activation]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for method in ("value", "derivative", "bias_derivative"):
                if method in vars(cls):
                    self.wrap(cls, method, f"nonlin.{method}")
        self.wrap(trainer, "train", "trainer.train")
        self.wrap(trainer.Dataset, "field_matrix", "trainer.batch")
        self.wrap(trainer.Dataset, "position_matrix", "trainer.batch")
        self.wrap(trainer, "adam_step", "trainer.adam_step")
        self.wrap(trainer, "position_loss_and_cotangent", "trainer.position_loss_and_cotangent")
        self.wrap(trainer, "evaluate", "trainer.evaluate")
        self.wrap(baselines, "steering_rows", "baselines.steering_rows", ("rows", _steering_rows))
        self.wrap(baselines, "ml_metric_map", "baselines.ml_metric_map")
        for owner, attr in ((simnet, "save_checkpoint"), (cli, "write_records_csv"), (cli, "svg_plot")):
            self.wrap(owner, attr, "cli.io", ("bytes", _file_bytes))

    def _self_times(self):
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layers(self) -> dict:
        """name -> {"self_s", "incl_s", "calls"}; self time excludes the
        time covered by child spans, inclusive time counts only the
        outermost span of a name."""
        out = {}
        for i, own in enumerate(self._self_times()):
            name, start, end, _ = self.spans[i]
            entry = out.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
            entry["self_s"] += own
            entry["calls"] += 1
            if not self._has_ancestor(i, name):
                entry["incl_s"] += end - start
        return out

    def self_time_under(self, names, ancestor) -> float:
        """Self time of spans named in ``names`` that run inside a span
        named ``ancestor``."""
        return sum(
            own
            for i, own in enumerate(self._self_times())
            if self.spans[i][0] in names and self._has_ancestor(i, ancestor)
        )
