"""Global gradient norm tests."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import global_grad_norm


def params_with_grads(*grads):
    out = []
    for g in grads:
        p = Parameter(np.zeros_like(np.asarray(g, dtype=np.float32)))
        p.grad = np.asarray(g, dtype=np.float32)
        out.append(p)
    return out


class TestGlobalGradNorm:
    def test_single_vector(self):
        params = params_with_grads([3.0, 4.0])
        assert global_grad_norm(params) == pytest.approx(5.0)

    def test_across_parameters(self):
        params = params_with_grads([3.0], [4.0])
        assert global_grad_norm(params) == pytest.approx(5.0)

    def test_missing_grads_skipped(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        assert global_grad_norm([p]) == 0.0
