"""Classification metric tests."""

import numpy as np
import pytest

from repro.eval import accuracy


class TestAccuracy:
    def test_perfect(self):
        logits = np.eye(4) * 10
        assert accuracy(logits, np.arange(4)) == 1.0

    def test_zero(self):
        logits = np.eye(2)[[1, 0]] * 10
        assert accuracy(logits, np.array([0, 1])) == 0.0

    def test_partial(self):
        logits = np.array([[5.0, 0.0], [5.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((3, 2)), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 2)), np.zeros(0))
