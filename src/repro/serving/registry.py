"""In-process model registry for the serving layer: one live model per name.

Serving code never holds a bare model: it asks the registry for a
:class:`ModelVersion` so every embedding can be attributed to the exact
weights that produced it.  A name holds only its live version:
``publish()`` replaces it and numbers the newcomer one past it, so a
superseded model is freed once nothing else refers to it.  Each
``publish()`` snapshots a *fingerprint* — the sorted
``(parameter_path, Parameter.version)`` pairs of the model — so the
registry can detect when somebody trains or edits a published model in
place (:meth:`ModelRegistry.is_stale`).  Converted integer models
(:mod:`repro.quant.lowered`) carry their weights in buffers, not
Parameters; their fingerprint is empty and they are frozen by
construction, so they can never go stale.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from ..nn.module import Module

__all__ = ["ModelRegistry", "ModelVersion", "fingerprint"]

Fingerprint = Tuple[Tuple[str, int], ...]


def fingerprint(model: Module) -> Fingerprint:
    """Sorted ``(path, Parameter.version)`` pairs identifying the weights.

    ``Parameter.data`` assignment bumps the version counter, so any
    optimizer step, EMA update, or quantization surgery on a published
    model changes its fingerprint.
    """
    return tuple(sorted(
        (path, p.version) for path, p in model.named_parameters()
    ))


class ModelVersion:
    """One published (name, version) snapshot: the model plus its identity."""

    def __init__(self, name: str, version: int, model: Module,
                 fp: Fingerprint, tags: Tuple[str, ...] = ()) -> None:
        self.name = name
        self.version = version
        self.model = model
        self.fingerprint = fp
        self.tags = tuple(tags)

    @property
    def key(self) -> Tuple[str, int]:
        return (self.name, self.version)

    def is_stale(self) -> bool:
        """True if the model's Parameters changed since ``publish()``."""
        return fingerprint(self.model) != self.fingerprint

    def __repr__(self) -> str:
        tag = f", tags={list(self.tags)}" if self.tags else ""
        return f"ModelVersion({self.name!r}, v{self.version}{tag})"


class ModelRegistry:
    """Thread-safe name → live :class:`ModelVersion`.

    Versions are monotonic per name, assigned at ``publish()`` time, and
    only the latest is kept.  ``get(name)`` resolves it, which is how a
    running :class:`~repro.serving.EmbeddingService` picks up a newly
    published model without restarting.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, ModelVersion] = {}

    def publish(self, name: str, model: Module,
                tags: Tuple[str, ...] = ()) -> ModelVersion:
        """Make ``model`` the live version of ``name``; returns its entry."""
        with self._lock:
            previous = self._entries.get(name)
            version = previous.version + 1 if previous is not None else 1
            entry = ModelVersion(name, version, model, fingerprint(model),
                                 tags)
            self._entries[name] = entry
            return entry

    def get(self, name: str) -> ModelVersion:
        """Resolve the live version of ``name``."""
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise KeyError(
                    f"no model published under {name!r}; "
                    f"known: {sorted(self._entries)}"
                ) from None

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def is_stale(self, name: str) -> bool:
        """True if the live snapshot no longer matches its weights."""
        return self.get(name).is_stale()

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
