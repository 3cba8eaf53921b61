"""Optimizers and LR schedulers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import optim
from repro.nn.module import Parameter


def quadratic_param(start=5.0):
    return Parameter(np.array([start], dtype=np.float32))


def minimize(opt, param, steps=200):
    for _ in range(steps):
        param.grad = 2.0 * param.data  # d/dx x^2
        opt.step()
    return float(param.data[0])


class TestSGD:
    def test_plain_sgd_converges(self):
        p = quadratic_param()
        assert abs(minimize(optim.SGD([p], lr=0.1), p)) < 1e-3

    def test_momentum_converges(self):
        p = quadratic_param()
        assert abs(minimize(optim.SGD([p], lr=0.05, momentum=0.9), p)) < 1e-3

    def test_nesterov_converges(self):
        p = quadratic_param()
        opt = optim.SGD([p], lr=0.05, momentum=0.9, nesterov=True)
        assert abs(minimize(opt, p)) < 1e-3

    def test_single_step_matches_formula(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = optim.SGD([p], lr=0.1)
        p.grad = np.array([2.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [0.8], rtol=1e-6)

    def test_weight_decay_shrinks_params(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = optim.SGD([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [0.95], rtol=1e-6)

    def test_skips_params_without_grad(self):
        p1, p2 = quadratic_param(), quadratic_param()
        opt = optim.SGD([p1, p2], lr=0.1)
        p1.grad = np.ones(1, dtype=np.float32)
        opt.step()
        assert p2.data[0] == 5.0

    def test_zero_grad_clears(self):
        p = quadratic_param()
        opt = optim.SGD([p], lr=0.1)
        p.grad = np.ones(1, dtype=np.float32)
        opt.zero_grad()
        assert p.grad is None

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            optim.SGD([quadratic_param()], lr=0.1, nesterov=True)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            optim.SGD([quadratic_param()], lr=-0.1)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            optim.SGD([], lr=0.1)


class TestAdam:
    def test_converges(self):
        p = quadratic_param()
        assert abs(minimize(optim.Adam([p], lr=0.5), p)) < 1e-2

    def test_first_step_magnitude_is_lr(self):
        # With bias correction, the first Adam step is ~lr regardless of grad.
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = optim.Adam([p], lr=0.01)
        p.grad = np.array([1000.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [0.99], atol=1e-4)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            optim.Adam([quadratic_param()], betas=(1.0, 0.9))


class TestSchedulers:
    def _opt(self):
        return optim.SGD([quadratic_param()], lr=1.0)

    def test_constant(self):
        sched = optim.ConstantLR(self._opt())
        assert sched.step() == 1.0
        assert sched.step() == 1.0

    def test_cosine_endpoints(self):
        opt = self._opt()
        sched = optim.CosineAnnealingLR(opt, t_max=10)
        first = sched.step()
        assert first == pytest.approx(1.0)
        for _ in range(10):
            last = sched.step()
        assert last == pytest.approx(0.0, abs=1e-8)

    def test_cosine_monotone_decreasing(self):
        sched = optim.CosineAnnealingLR(self._opt(), t_max=20)
        lrs = [sched.step() for _ in range(21)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_cosine_min_lr(self):
        sched = optim.CosineAnnealingLR(self._opt(), t_max=5, min_lr=0.1)
        for _ in range(6):
            last = sched.step()
        assert last == pytest.approx(0.1)

    def test_scheduler_drives_optimizer(self):
        opt = self._opt()
        sched = optim.CosineAnnealingLR(opt, t_max=2)
        sched.step()
        sched.step()
        assert opt.lr == pytest.approx(0.5)


class TestEndToEndTraining:
    def test_linear_regression_learns(self, rng):
        true_w = np.array([[2.0, -3.0]], dtype=np.float32)
        x = rng.normal(size=(256, 2)).astype(np.float32)
        y = x @ true_w.T
        model = nn.Linear(2, 1, rng=rng)
        opt = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
        for _ in range(100):
            opt.zero_grad()
            loss = nn.losses.mse_loss(model(nn.Tensor(x)), nn.Tensor(y))
            loss.backward()
            opt.step()
        np.testing.assert_allclose(model.weight.data, true_w, atol=0.05)

    def test_classifier_overfits_small_batch(self, rng):
        x = rng.normal(size=(16, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=16)
        model = nn.Sequential(
            nn.Linear(8, 32, rng=rng), nn.ReLU(), nn.Linear(32, 3, rng=rng)
        )
        opt = optim.Adam(model.parameters(), lr=0.01)
        for _ in range(200):
            opt.zero_grad()
            loss = nn.losses.cross_entropy(model(nn.Tensor(x)), y)
            loss.backward()
            opt.step()
        preds = model(nn.Tensor(x)).data.argmax(axis=1)
        assert (preds == y).mean() == 1.0
