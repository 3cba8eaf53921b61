"""ModelRegistry: versioning, resolution, and staleness detection."""

import gc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.serving import ModelRegistry, fingerprint


def linear(seed=0):
    return nn.Linear(4, 2, rng=np.random.default_rng(seed))


class TestPublishAndGet:
    def test_versions_are_monotonic_per_name(self):
        reg = ModelRegistry()
        assert reg.publish("enc", linear(0)).version == 1
        assert reg.publish("enc", linear(1)).version == 2
        assert reg.publish("other", linear(2)).version == 1

    def test_get_resolves_latest_by_default(self):
        reg = ModelRegistry()
        first, second = linear(0), linear(1)
        reg.publish("enc", first)
        reg.publish("enc", second)
        assert reg.get("enc").model is second

    def test_unknown_name_raises_with_candidates(self):
        reg = ModelRegistry()
        reg.publish("enc", linear())
        with pytest.raises(KeyError, match="typo.*enc|enc"):
            reg.get("typo")

    def test_publish_drops_the_superseded_model(self):
        reg = ModelRegistry()
        first = linear(0)
        reg.publish("enc", first)
        old = weakref.ref(first)
        del first
        entry = reg.publish("enc", linear(1))
        gc.collect()
        assert old() is None
        assert reg.get("enc") is entry

    def test_container_protocol(self):
        reg = ModelRegistry()
        reg.publish("enc", linear())
        reg.publish("enc", linear(1))
        assert "enc" in reg and "other" not in reg
        assert len(reg) == 1
        assert reg.names() == ["enc"]


class TestFingerprint:
    def test_covers_every_parameter_path(self):
        model = nn.Sequential(linear(0), nn.ReLU(), linear(1))
        paths = [path for path, _ in fingerprint(model)]
        assert paths == sorted(paths)
        assert len(paths) == len(list(model.parameters()))

    def test_parameter_edit_makes_snapshot_stale(self):
        reg = ModelRegistry()
        model = linear()
        entry = reg.publish("enc", model)
        assert not reg.is_stale("enc")
        model.weight.data = model.weight.data * 2.0  # noqa: RPR002 - version bump under test
        assert entry.is_stale()
        assert reg.is_stale("enc")

    def test_republish_clears_staleness(self):
        reg = ModelRegistry()
        model = linear()
        superseded = reg.publish("enc", model)
        model.weight.data = model.weight.data * 2.0  # noqa: RPR002 - version bump under test
        reg.publish("enc", model)
        assert not reg.is_stale("enc")       # latest snapshot is fresh
        assert superseded.is_stale()
