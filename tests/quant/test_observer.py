"""Range-observer tests."""

import numpy as np

from repro.quant import MinMaxObserver


class TestMinMaxObserver:
    def test_tracks_running_extremes(self):
        obs = MinMaxObserver()
        obs.update(np.array([0.0, 1.0]))
        lo, hi = obs.update(np.array([-2.0, 0.5]))
        assert (lo, hi) == (-2.0, 1.0)

    def test_range_never_shrinks(self, rng):
        obs = MinMaxObserver()
        ranges = []
        for _ in range(10):
            lo, hi = obs.update(rng.normal(size=50))
            ranges.append(hi - lo)
        assert all(a <= b + 1e-12 for a, b in zip(ranges, ranges[1:]))

    def test_reset(self):
        obs = MinMaxObserver()
        obs.update(np.array([5.0]))
        obs.reset()
        assert obs.min is None and obs.max is None
