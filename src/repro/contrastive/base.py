"""Shared trainer plumbing: unified ``fit()`` API + telemetry events.

Every trainer in :mod:`repro.contrastive` mixes in :class:`TrainerBase`
and gains the same contract:

- ``fit(loader, epochs, *, scheduler=None, callbacks=())`` returning a
  history dict whose ``"loss"`` entry is the per-epoch mean loss — so
  downstream code treats the five trainers interchangeably;
- per-step / per-epoch event emission through
  :class:`repro.telemetry.EventBus` (``on_fit_start``,
  ``on_epoch_start``, ``on_step``, ``on_epoch_end``, ``on_fit_end``);
- a per-trainer :class:`repro.telemetry.MetricsRegistry` (``metrics``)
  recording step loss, epoch loss, and step/image counters.

Subclasses implement ``train_step(view1, view2) -> float`` and may
override :meth:`step_info` to enrich the ``on_step`` payload (the CQ
trainer adds the sampled precision pair and per-term losses).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..telemetry import EventBus, MetricsRegistry

__all__ = ["TrainerBase"]

#: Version tag for the trainer checkpoint tree layout.
TRAINER_STATE_FORMAT = 1


class TrainerBase:
    """Mixin giving trainers the unified fit/event/metrics contract."""

    def _init_telemetry(self) -> None:
        """Call from ``__init__`` before training starts."""
        self.history: List[float] = []
        self.metrics = MetricsRegistry()
        self._global_step = 0
        # Stashed during fit() so state_dict() can capture loader/scheduler
        # state when a CheckpointCallback fires at an epoch boundary.
        self._active_loader = None
        self._active_scheduler = None
        # Loader-RNG / loader / scheduler state loaded from a checkpoint
        # before the owning fit() call made those objects known.
        self._pending_loader_rng = None
        self._pending_loader_state = None
        self._pending_scheduler_state = None

    # -- hooks for subclasses ----------------------------------------------
    def train_step(self, view1: np.ndarray, view2: np.ndarray) -> float:
        raise NotImplementedError

    def _training_module(self):
        """The module whose ``train()`` mode gates an epoch."""
        return self.model

    def step_info(self) -> Dict[str, object]:
        """Extra JSON-friendly fields merged into each ``on_step`` payload."""
        return {}

    def _history_dict(self) -> Dict[str, List[float]]:
        """The dict ``fit()`` returns; always contains ``"loss"``."""
        return {"loss": list(self.history)}

    def _aux_state(self) -> Dict[str, object]:
        """Trainer-specific auxiliary state beyond model/optimizer.

        Overridden by trainers owning extra randomness or schedules (the
        CQ trainer's precision sampler, MoCo/SimSiam's view-shuffling
        RNG).  Must return a JSON-friendly tree (numpy arrays allowed).
        """
        return {}

    def _load_aux_state(self, aux: Dict[str, object]) -> None:
        """Restore the tree produced by :meth:`_aux_state`."""

    # -- checkpoint state --------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Everything needed to resume training bit-exactly.

        Captures model parameters/buffers (including EMA targets and
        queues registered as submodules/buffers), optimizer slots, the
        scheduler position and loader RNG of an in-flight ``fit()``, the
        full metrics registry, loss history, the global step counter,
        and trainer-specific auxiliary state.
        """
        from ..checkpoint import get_rng_state

        state: Dict[str, object] = {
            "format": TRAINER_STATE_FORMAT,
            "trainer": type(self).__name__,
            "model": self._training_module().state_dict(),
            # Monotonic per-parameter version counters (quant-cache keys);
            # an optional key so format-1 checkpoints stay readable.
            "param_versions": {
                name: int(param.version)
                for name, param in self._training_module().named_parameters()
            },
            "history": [float(v) for v in self.history],
            "global_step": int(self._global_step),
            "metrics": self.metrics.state_dict(),
            "aux": self._aux_state(),
        }
        optimizer = getattr(self, "optimizer", None)
        if optimizer is not None:
            state["optimizer"] = optimizer.state_dict()
        if self._active_scheduler is not None:
            state["scheduler"] = self._active_scheduler.state_dict()
        loader_rng = getattr(self._active_loader, "rng", None)
        if loader_rng is not None:
            state["loader_rng"] = get_rng_state(loader_rng)
        # Loaders with their own state (the order-independent seeded
        # DataLoader's epoch counter, proxied by PrefetchLoader) join the
        # checkpoint so prefetched runs resume bit-exactly too.
        loader_state_dict = getattr(self._active_loader, "state_dict", None)
        if callable(loader_state_dict):
            state["loader_state"] = loader_state_dict()
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` tree into this trainer.

        The loader RNG and scheduler position are stashed and applied by
        ``fit(resume_from=...)`` once it knows which loader/scheduler the
        resumed run uses; everything else is restored immediately.
        """
        saved = state.get("trainer")
        if saved is not None and saved != type(self).__name__:
            raise ValueError(
                f"checkpoint is for {saved}, not {type(self).__name__}"
            )
        fmt = state.get("format", TRAINER_STATE_FORMAT)
        if fmt != TRAINER_STATE_FORMAT:
            raise ValueError(
                f"unsupported trainer state format {fmt} "
                f"(this build reads format {TRAINER_STATE_FORMAT})"
            )
        self._training_module().load_state_dict(state["model"])
        versions = state.get("param_versions")
        if versions:
            params = dict(self._training_module().named_parameters())
            for name, version in versions.items():
                if name in params:
                    params[name]._version = int(version)
        # Cached quantized weights derive from pre-restore parameter data;
        # drop them so the next forward recomputes from the loaded values.
        cache = getattr(self, "quant_cache", None)
        if cache is not None:
            cache.clear()
        # Compiled plans capture pre-restore constants; retrace after load.
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.invalidate()
        optimizer = getattr(self, "optimizer", None)
        if optimizer is not None and "optimizer" in state:
            optimizer.load_state_dict(state["optimizer"])
        self.history[:] = [float(v) for v in state.get("history", [])]
        self._global_step = int(state.get("global_step", 0))
        if "metrics" in state:
            self.metrics.load_state_dict(state["metrics"])
        self._load_aux_state(state.get("aux", {}))
        self._pending_scheduler_state = state.get("scheduler")
        self._pending_loader_rng = state.get("loader_rng")
        self._pending_loader_state = state.get("loader_state")

    # -- epoch / fit loops -------------------------------------------------
    def train_epoch(self, loader) -> float:
        """One epoch without callbacks (legacy per-epoch driving loop)."""
        return self._run_epoch(loader, EventBus(()), epoch=len(self.history))

    def _run_epoch(self, loader, bus: EventBus, epoch: int) -> float:
        self._training_module().train()
        losses: List[float] = []
        # Any iterable of (view1, view2[, labels, ...]) batches works as a
        # batch source — DataLoader, PrefetchLoader, or a plain generator.
        # Timing the fetch separately from the step separates data stalls
        # from compute, which is the number the prefetch pipeline moves.
        batches = iter(loader)
        while True:
            wait_start = time.perf_counter()
            try:
                batch = next(batches)
            except StopIteration:
                break
            data_wait = time.perf_counter() - wait_start
            if not isinstance(batch, (tuple, list)) or len(batch) < 2:
                raise ValueError(
                    "batch source must yield (view1, view2[, labels]) "
                    f"tuples, got {type(batch).__name__}"
                )
            view1, view2 = batch[0], batch[1]
            compute_start = time.perf_counter()
            loss = self.train_step(view1, view2)
            compute = time.perf_counter() - compute_start
            losses.append(loss)
            batch_size = int(np.asarray(view1).shape[0])
            self.metrics.gauge("step_loss").set(loss)
            self.metrics.counter("steps").inc()
            self.metrics.counter("images").inc(batch_size)
            self.metrics.histogram("data_wait_seconds").observe(data_wait)
            self.metrics.histogram("step_compute_seconds").observe(compute)
            queue_depth = getattr(loader, "queue_depth", None)
            if queue_depth is not None:
                self.metrics.gauge("prefetch_queue_depth").set(queue_depth)
            payload = {
                "epoch": epoch,
                "step": self._global_step,
                "loss": loss,
                "batch_size": batch_size,
                "data_wait_seconds": data_wait,
                "compute_seconds": compute,
            }
            payload.update(self.step_info())
            self._global_step += 1
            bus.emit("on_step", self, payload)
        if not losses:
            # A silent nan in the history poisons every downstream mean
            # and comparison; an exhausted or misconstructed loader is a
            # caller bug and must fail loudly.
            raise ValueError("empty loader")
        epoch_loss = float(np.mean(losses))
        self.history.append(epoch_loss)
        self.metrics.gauge("epoch_loss").set(epoch_loss)
        return epoch_loss

    def fit(
        self,
        loader,
        epochs: int,
        *,
        scheduler=None,
        callbacks: Tuple = (),
        resume_from=None,
    ) -> Dict[str, List[float]]:
        """Run ``epochs`` of training, emitting telemetry events.

        Parameters
        ----------
        loader:
            Iterable of ``(view1, view2, labels)`` batches.
        epochs:
            Total passes over ``loader`` — when resuming, this is the
            overall target, not the number of *additional* epochs.
        scheduler:
            Optional LR scheduler with a ``step()`` method, stepped once
            per epoch before the epoch runs (matching the historical
            behaviour of the SimCLR/BYOL trainers).
        callbacks:
            Telemetry callbacks (see :mod:`repro.telemetry`); they
            receive the full event stream for this call.
        resume_from:
            Optional checkpoint source: a
            :class:`repro.checkpoint.Checkpointer`, a checkpoint
            directory, a single ``ckpt-*.npz`` path, or an
            already-loaded trainer state tree.  The trainer restores it
            (model, optimizer, RNG streams, history, metrics) and
            continues from the epoch after the checkpoint; the resumed
            run is bit-exact with the uninterrupted one.  An empty or
            fully corrupt checkpoint directory starts from scratch.
        """
        resumed = (
            resume_from is not None
            and self._restore_resume_source(resume_from)
        )
        self._active_loader = loader
        self._active_scheduler = scheduler
        try:
            if self._pending_loader_rng is not None:
                if getattr(loader, "rng", None) is not None:
                    from ..checkpoint import set_rng_state

                    set_rng_state(loader.rng, self._pending_loader_rng)
                self._pending_loader_rng = None
            if self._pending_loader_state is not None:
                if callable(getattr(loader, "load_state_dict", None)):
                    loader.load_state_dict(self._pending_loader_state)
                self._pending_loader_state = None
            if self._pending_scheduler_state is not None:
                if scheduler is not None:
                    scheduler.load_state_dict(self._pending_scheduler_state)
                self._pending_scheduler_state = None
            # Without a resume, epochs count from zero even if the trainer
            # has prior history (legacy repeated-fit behaviour).
            start_epoch = len(self.history) if resumed else 0
            bus = EventBus(callbacks)
            bus.emit(
                "on_fit_start",
                self,
                {
                    "epochs": int(epochs),
                    "trainer": type(self).__name__,
                    "start_epoch": start_epoch,
                },
            )
            for epoch in range(start_epoch, epochs):
                if scheduler is not None:
                    scheduler.step()
                bus.emit("on_epoch_start", self, {"epoch": epoch})
                epoch_loss = self._run_epoch(loader, bus, epoch)
                bus.emit(
                    "on_epoch_end", self, {"epoch": epoch, "loss": epoch_loss}
                )
            history = self._history_dict()
            bus.emit("on_fit_end", self, {"history": history})
            return history
        finally:
            self._active_loader = None
            self._active_scheduler = None

    def _restore_resume_source(self, resume_from) -> bool:
        """Load whatever ``resume_from`` names; True if state was restored."""
        if isinstance(resume_from, dict):
            self.load_state_dict(resume_from)
            return True
        from ..checkpoint import resolve_resume_state

        loaded = resolve_resume_state(resume_from)
        if loaded is None:
            return False
        self.load_state_dict(loaded.state)
        return True
