"""Built-in callbacks: JSONL run logs, console progress, guards, meters."""

from __future__ import annotations

import itertools
import json
import math
import os
import pathlib
import sys
import time
from typing import Dict, Iterator, Optional, Union

import numpy as np

from .events import Callback, TrainingDiverged

__all__ = [
    "CheckpointCallback",
    "ConsoleProgress",
    "EarlyDivergenceGuard",
    "JsonlLogger",
    "ThroughputMeter",
    "iter_records",
]

#: Disambiguates run files created within the same second of one process.
_RUN_COUNTER = itertools.count()


def _jsonify(value):
    """Best-effort conversion of numpy scalars/arrays for json.dumps."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


def iter_records(path: Union[str, pathlib.Path]) -> Iterator[Dict]:
    """Parse a JSONL run log back into dicts (skipping blank lines)."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


class JsonlLogger(Callback):
    """Append-only JSONL run log under a ``runs/``-style directory.

    Every event becomes one JSON line ``{"event": ..., "time": ...,
    "trainer": ..., **payload}``; lines are flushed as written so a
    crashed run still leaves a parseable prefix.  Extra non-lifecycle
    records (e.g. an op-profile summary) can be appended with
    :meth:`log`.
    """

    def __init__(
        self,
        directory: Union[str, pathlib.Path] = "runs",
        run_name: Optional[str] = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if run_name is None:
            run_name = (
                f"run-{time.strftime('%Y%m%d-%H%M%S')}"
                f"-{os.getpid()}-{next(_RUN_COUNTER):03d}"
            )
        self.run_name = run_name
        self.path = self.directory / f"{run_name}.jsonl"

    def log(self, event: str, payload: Dict) -> None:
        """Append one record outside the trainer lifecycle."""
        record = {"event": event, "time": time.time(), **payload}
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, default=_jsonify) + "\n")

    def _write(self, event: str, trainer, payload: Dict) -> None:
        self.log(event, {"trainer": type(trainer).__name__, **payload})

    def on_fit_start(self, trainer, payload: Dict) -> None:
        self._write("fit_start", trainer, payload)

    def on_epoch_start(self, trainer, payload: Dict) -> None:
        self._write("epoch_start", trainer, payload)

    def on_step(self, trainer, payload: Dict) -> None:
        self._write("step", trainer, payload)

    def on_epoch_end(self, trainer, payload: Dict) -> None:
        self._write("epoch_end", trainer, payload)

    def on_fit_end(self, trainer, payload: Dict) -> None:
        self._write("fit_end", trainer, payload)


class ConsoleProgress(Callback):
    """Per-epoch progress lines on stdout (or a supplied stream)."""

    def __init__(self, stream=None, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.stream = stream
        self.every = every

    def _print(self, message: str) -> None:
        print(message, file=self.stream or sys.stdout, flush=True)

    def on_fit_start(self, trainer, payload: Dict) -> None:
        self._print(
            f"[{type(trainer).__name__}] fit: {payload.get('epochs', '?')} epochs"
        )

    def on_epoch_end(self, trainer, payload: Dict) -> None:
        epoch = payload.get("epoch", 0)
        if (epoch + 1) % self.every == 0:
            self._print(
                f"[{type(trainer).__name__}] epoch {epoch + 1}: "
                f"loss={payload.get('loss', float('nan')):.4f}"
            )

    def on_fit_end(self, trainer, payload: Dict) -> None:
        history = payload.get("history", {})
        losses = history.get("loss", [])
        final = losses[-1] if losses else float("nan")
        self._print(f"[{type(trainer).__name__}] done: final loss={final:.4f}")


class EarlyDivergenceGuard(Callback):
    """Abort on NaN/inf or exploding loss with an explanatory error.

    The paper observes CQ-B can diverge with exploding gradients; this
    guard turns hours of garbage epochs into an immediate
    :class:`TrainingDiverged` naming the offending step.
    """

    def __init__(self, max_loss: float = 1e6) -> None:
        if max_loss <= 0:
            raise ValueError(f"max_loss must be > 0, got {max_loss}")
        self.max_loss = max_loss

    def _check(self, trainer, payload: Dict, what: str) -> None:
        loss = payload.get("loss")
        if loss is None:
            return
        where = (
            f"{type(trainer).__name__} epoch {payload.get('epoch', '?')}"
            + (f" step {payload['step']}" if "step" in payload else "")
        )
        if not math.isfinite(loss):
            raise TrainingDiverged(
                f"{what} loss is {loss!r} at {where}: training diverged "
                "(consider a smaller lr)"
            )
        if abs(loss) > self.max_loss:
            raise TrainingDiverged(
                f"{what} loss {loss:.3g} exceeds max_loss={self.max_loss:.3g} "
                f"at {where}: training diverged (consider a smaller lr)"
            )

    def on_step(self, trainer, payload: Dict) -> None:
        self._check(trainer, payload, "step")

    def on_epoch_end(self, trainer, payload: Dict) -> None:
        self._check(trainer, payload, "epoch")


class CheckpointCallback(Callback):
    """Save trainer state through a checkpoint store at epoch boundaries.

    ``checkpointer`` is duck-typed — anything with a
    ``save(state, step, metric=..., metadata=...)`` method works; in
    practice it is a :class:`repro.checkpoint.Checkpointer`.  The trainer
    must expose ``state_dict()`` (all trainers derived from
    :class:`~repro.contrastive.base.TrainerBase` do).

    Saves every ``every`` epochs, plus the final epoch at fit end unless
    it was just saved.  The step index is the number of *completed*
    epochs, which is also the resume point ``fit(resume_from=...)``
    continues from.
    """

    def __init__(self, checkpointer, every: int = 1, save_final: bool = True) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.checkpointer = checkpointer
        self.every = every
        self.save_final = save_final
        self._last_saved: Optional[int] = None

    def _save(self, trainer, epoch: int, loss) -> None:
        metadata = {"epoch": epoch, "trainer": type(trainer).__name__}
        self.checkpointer.save(
            trainer.state_dict(),
            step=epoch + 1,
            metric=None if loss is None else float(loss),
            metadata=metadata,
        )
        self._last_saved = epoch

    def on_fit_start(self, trainer, payload: Dict) -> None:
        self._last_saved = None

    def on_epoch_end(self, trainer, payload: Dict) -> None:
        epoch = int(payload.get("epoch", 0))
        if (epoch + 1) % self.every == 0:
            self._save(trainer, epoch, payload.get("loss"))

    def on_fit_end(self, trainer, payload: Dict) -> None:
        if not self.save_final:
            return
        history = payload.get("history", {})
        losses = history.get("loss", [])
        if not losses:
            return
        epoch = len(losses) - 1
        if self._last_saved != epoch:
            self._save(trainer, epoch, losses[-1])


class ThroughputMeter(Callback):
    """Measure images/sec and steps/sec across one fit() call.

    Results are readable as properties while training and are pushed
    into the trainer's metrics registry (``throughput_images_per_sec``,
    ``throughput_steps_per_sec`` gauges) at fit end.
    """

    def __init__(self) -> None:
        self.steps = 0
        self.images = 0
        self._start: Optional[float] = None
        self._elapsed = 0.0

    @property
    def elapsed_seconds(self) -> float:
        if self._start is not None:
            return time.perf_counter() - self._start
        return self._elapsed

    @property
    def steps_per_sec(self) -> float:
        elapsed = self.elapsed_seconds
        return self.steps / elapsed if elapsed > 0 else 0.0

    @property
    def images_per_sec(self) -> float:
        elapsed = self.elapsed_seconds
        return self.images / elapsed if elapsed > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "steps": self.steps,
            "images": self.images,
            "elapsed_seconds": self.elapsed_seconds,
            "steps_per_sec": self.steps_per_sec,
            "images_per_sec": self.images_per_sec,
        }

    def on_fit_start(self, trainer, payload: Dict) -> None:
        self.steps = 0
        self.images = 0
        self._elapsed = 0.0
        self._start = time.perf_counter()

    def on_step(self, trainer, payload: Dict) -> None:
        self.steps += 1
        self.images += int(payload.get("batch_size", 0))

    def on_fit_end(self, trainer, payload: Dict) -> None:
        if self._start is not None:
            self._elapsed = time.perf_counter() - self._start
            self._start = None
        metrics = getattr(trainer, "metrics", None)
        if metrics is not None:
            metrics.gauge("throughput_images_per_sec").set(self.images_per_sec)
            metrics.gauge("throughput_steps_per_sec").set(self.steps_per_sec)
