"""The benchmark's three workloads: train, eval and ingest.

Each workload drives the package's public functions as a closed loop with
one caller: the next op starts when the previous one ends. Inputs come from
tsqa.data.generate_dataset at the default record shape (32 channels x 600
steps, patch 60, so L' = 10 tokens per series) with equal counts of the four
tasks, so half of all records carry 10 series. Data and model seeds are the
workload seed.

- train: Trainer.run, one epoch at a time, default batch 2, lr 2e-3, clip
  1.0, on a warm encoder cache. The only place backward, clipping, Adam and
  the frozen checksum do work. Op = one train step.
- eval: metrics.evaluate on mixed slices (see SLICE_SHARE), the model at its
  seeded initialisation and the cache warm. Closed records rank 2 or 5
  choices, open records decode greedily; nothing trains. Op = one record.
- ingest: cold QaModel.temporal_tokens over 10-series windows whose files
  the model has not encoded: series loading, patchify, the frozen encoder
  and TPE, the cost every train or eval process pays once per file.
  Op = one window.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from tsqa import metrics
from tsqa.data import generate_dataset
from tsqa.model import ModelConfig, QaModel, build_vocabulary
from tsqa.train import TrainConfig, Trainer

TASKS = ("understanding", "perception", "reasoning", "decision")
CHANNELS, STEPS = 32, 600
LOSS_WINDOW = (80, 100)  # train_loss_final averages steps 81..100
# Records per task in one eval slice. An open record decodes 40 tokens on
# the seeded model (~200 ms), a closed one ranks choices (~10-35 ms), so
# latency is bimodal. Two of each closed task put the median inside the
# 10-series reasoning mode and p90 inside the open-record mode, instead of
# on the gap between them, where it would swing from run to run.
SLICE_SHARE = {"understanding": 1, "perception": 2, "reasoning": 2, "decision": 1}


@dataclass(frozen=True)
class Size:
    engines: int
    cycles: int
    per_task: int  # records generated per task
    setups: int  # set-ups per run; setup_s is their median
    traced_ops: int  # ops in the traced phase, fixed so its counts repeat exactly


class OpLog:
    """Latency, work items and failures of the ops of one timed phase."""

    def __init__(self):
        self.seconds = []
        self.items = 0
        self.failures = []

    def add(self, seconds, items, failure=None):
        self.seconds.append(seconds)
        self.items += items
        if failure:
            self.failures.append(failure)

    @property
    def attempted(self):
        return len(self.seconds)

    @property
    def rate(self):
        """Items per second of op time."""
        return self.items / sum(self.seconds)


class _Stop(Exception):
    """Raised from a progress callback to end the phase."""


def for_seconds(seconds):
    """Phase limit: ops start until `seconds` have passed, at least one."""
    deadline = time.perf_counter() + seconds
    return lambda log: not log.attempted or time.perf_counter() < deadline


def for_ops(count):
    """Phase limit: exactly `count` ops (an eval slice finishes whole)."""
    return lambda log: log.attempted < count


def _forge(root, seed, size):
    records = generate_dataset(
        root, seed, engines=size.engines, cycles=size.cycles, channels=CHANNELS,
        length=STEPS, counts={task: size.per_task for task in TASKS},
    )
    return records, QaModel(ModelConfig(), build_vocabulary(records), seed)


def _warm(model, root, records):
    for series in sorted({s for rec in records for s in rec.series}):
        model.encode_series(os.path.join(root, series))


class Workload:
    """Set-up, timed loop and end-of-run checks of one workload."""

    item = "item"  # the unit of items_per_s
    op = "op"

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size

    def setup(self, root):
        raise NotImplementedError

    def run(self, log, more):
        """Run ops into `log` while `more(log)` holds; each phase starts afresh."""
        raise NotImplementedError

    def final_failures(self):
        """Run-level failures: no workload may move a frozen weight."""
        if self.model.frozen_checksum() != self.checksum:
            return ["frozen checksum differs before and after the run"]
        return []

    def quality(self):
        """Workload-specific (name, value, unit) lines beside the timings."""
        return []


class TrainWorkload(Workload):
    item, op = "records", "step"

    def setup(self, root):
        self.records, self.model = _forge(root, self.seed, self.size)
        _warm(self.model, root, self.records)
        self.trainer = Trainer(self.model, TrainConfig(epochs=1, seed=self.seed), root)
        if len(self.records) % self.trainer.cfg.batch_size:
            raise ValueError("record count must fill whole batches")
        self.checksum = self.model.frozen_checksum()
        self.losses = []

    def run(self, log, more):
        last = time.perf_counter()

        def progress(report):
            nonlocal last
            now = time.perf_counter()
            failure = None
            if not (math.isfinite(report.loss) and math.isfinite(report.grad_norm)):
                failure = f"step {report.step}: loss {report.loss}, grad norm {report.grad_norm}"
            elif not report.frozen_ok:
                failure = f"step {report.step}: frozen parameters changed"
            log.add(now - last, self.trainer.cfg.batch_size, failure)
            self.losses.append(report.loss)
            last = now
            if not more(log):
                raise _Stop

        while True:
            last = time.perf_counter()
            try:
                self.trainer.run(self.records, progress=progress)
            except _Stop:
                return
            except Exception as exc:  # a crashing step is a failed op, not a traceback
                log.add(time.perf_counter() - last, 0, f"train step raised {exc!r}")
                return

    def quality(self):
        lo, hi = LOSS_WINDOW
        window = self.losses[lo:hi] if len(self.losses) >= hi else self.losses[-(hi - lo):]
        return [("train_loss_final", sum(window) / len(window), "nats")]


class EvalWorkload(Workload):
    item, op = "records", "record"

    def setup(self, root):
        records, self.model = _forge(root, self.seed, self.size)
        _warm(self.model, root, records)
        self.root = root
        by_task = {task: [r for r in records if r.task == task] for task in TASKS}
        n = self.size.per_task
        self.slices = [
            [by_task[task][(k * i + j) % n] for task in TASKS
             for k in [SLICE_SHARE[task]] for j in range(k)]
            for i in range(n)
        ]
        self.checksum = self.model.frozen_checksum()

    def run(self, log, more):
        cursor = 0
        while more(log):
            batch = self.slices[cursor % len(self.slices)]
            cursor += 1
            marks = [time.perf_counter()]
            try:
                report = metrics.evaluate(self.model, batch, self.root,
                                          progress=lambda done: marks.append(time.perf_counter()))
                failure = _report_failure(report, batch)
            except Exception as exc:  # a crashing record fails its slice
                failure = f"evaluate raised {exc!r}"
            marks += [time.perf_counter()] * (len(batch) + 1 - len(marks))
            for start, end in zip(marks, marks[1:]):
                log.add(end - start, 1, failure)


def _report_failure(report, batch):
    want = {task: sum(r.task == task for r in batch) for task in TASKS}
    if set(report.tables) != set(want) or report.counts != want:
        return f"eval report tasks/counts {report.counts} != {want}"
    values = [v for table in report.tables.values() for v in table.values()]
    if not all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in values):
        return f"eval report has non-finite or out-of-range metrics {report.tables}"
    return None


class IngestWorkload(Workload):
    item, op = "series", "window"

    def setup(self, root):
        records, self.model = _forge(root, self.seed, self.size)
        windows = dict.fromkeys(
            tuple(os.path.join(root, s) for s in rec.series)
            for rec in records if len(rec.series) > 1
        )
        self.windows = list(windows)
        files = [path for window in self.windows for path in window]
        if len(set(files)) != len(files):
            raise ValueError("ingest windows must not share series files")
        self.cursor = 0
        self.checksum = self.model.frozen_checksum()
        self.expected = (len(self.windows[0]) * self.model.cfg.max_tokens_per_segment(),
                         CHANNELS, self.model.cfg.d)

    def run(self, log, more):
        if self.cursor:  # each phase starts on a model that has encoded nothing
            self.cursor = len(self.windows)
        while more(log):
            if self.cursor == len(self.windows):
                # a fresh model has encoded none of the files; its build is not timed
                self.model = QaModel(self.model.cfg, self.model.vocab, self.seed)
                self.cursor = 0
            paths = list(self.windows[self.cursor])
            self.cursor += 1
            start = time.perf_counter()
            try:
                tokens = self.model.temporal_tokens(paths).tokens.data
                failure = None
            except Exception as exc:  # a crashing window is a failed op
                tokens, failure = None, f"temporal_tokens raised {exc!r}"
            elapsed = time.perf_counter() - start
            if tokens is not None and (tokens.shape != self.expected
                                       or not np.isfinite(tokens).all()):
                failure = f"ingest output shape {tokens.shape} (want {self.expected}) or non-finite"
            log.add(elapsed, len(paths), failure)


WORKLOADS = {"train": TrainWorkload, "eval": EvalWorkload, "ingest": IngestWorkload}

# Full runs size the corpus so train and eval warm 48 series files in
# set-up; ingest keeps a pool of disjoint 10-file windows (cycles = 10, so
# each engine gives exactly one window) and rebuilds the model per pass.
# Ingest set-up takes ~0.1 s, so setup_s is the median of five.
SIZES = {
    "train": Size(engines=4, cycles=12, per_task=150, setups=3, traced_ops=100),
    "eval": Size(engines=4, cycles=12, per_task=24, setups=3, traced_ops=60),
    "ingest": Size(engines=10, cycles=10, per_task=25, setups=5, traced_ops=30),
}
SMOKE_SIZE = Size(engines=2, cycles=10, per_task=2, setups=1, traced_ops=6)


def set_up(workload, seed, work_dir, smoke):
    """Build the workload `setups` times from scratch; returns it and each set-up time."""
    size = SMOKE_SIZE if smoke else SIZES[workload]
    times = []
    for i in range(size.setups):
        root = os.path.join(work_dir, f"setup{i}")
        start = time.perf_counter()
        wl = WORKLOADS[workload](seed, size)
        wl.setup(root)
        times.append(time.perf_counter() - start)
        if i + 1 < size.setups:
            shutil.rmtree(root)
    return wl, times
