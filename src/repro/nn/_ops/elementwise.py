"""Elementwise differentiable operations (arithmetic and pointwise maps)."""

from __future__ import annotations

import numpy as np

from ..autograd import Function, unbroadcast


class Add(Function):
    def forward(self, a, b):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return a + b

    def backward(self, grad):
        grads = []
        if self.needs_input_grad and self.needs_input_grad[0]:
            grads.append(unbroadcast(grad, self.a_shape))
        else:
            grads.append(None)
        if len(self.needs_input_grad) > 1:
            if self.needs_input_grad[1]:
                grads.append(unbroadcast(grad, self.b_shape))
            else:
                grads.append(None)
        return tuple(grads)


class Sub(Function):
    def forward(self, a, b):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return a - b

    def backward(self, grad):
        grads = [unbroadcast(grad, self.a_shape)]
        if len(self.needs_input_grad) > 1:
            grads.append(unbroadcast(-grad, self.b_shape))
        return tuple(grads)


class RSub(Function):
    """scalar - tensor (the tensor is the only differentiable input)."""

    def forward(self, a, scalar):
        self.a_shape = np.shape(a)
        return scalar - a

    def backward(self, grad):
        return (unbroadcast(-grad, self.a_shape),)


class Mul(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return a * b

    def backward(self, grad):
        grads = [unbroadcast(grad * self.b, np.shape(self.a))]
        if len(self.needs_input_grad) > 1:
            grads.append(unbroadcast(grad * self.a, np.shape(self.b)))
        return tuple(grads)


class Div(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return a / b

    def backward(self, grad):
        grads = [unbroadcast(grad / self.b, np.shape(self.a))]
        if len(self.needs_input_grad) > 1:
            grads.append(
                unbroadcast(-grad * self.a / (self.b * self.b), np.shape(self.b))
            )
        return tuple(grads)


class RDiv(Function):
    """scalar / tensor."""

    def forward(self, a, scalar):
        self.a, self.scalar = a, scalar
        return scalar / a

    def backward(self, grad):
        return (unbroadcast(-grad * self.scalar / (self.a * self.a), np.shape(self.a)),)


class Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, grad):
        return (-grad,)


class Pow(Function):
    """tensor ** exponent for a constant scalar exponent."""

    def forward(self, a, exponent):
        self.a, self.exponent = a, exponent
        return a ** exponent

    def backward(self, grad):
        return (grad * self.exponent * self.a ** (self.exponent - 1),)


class Exp(Function):
    def forward(self, a):
        self.out = np.exp(a)
        return self.out

    def backward(self, grad):
        return (grad * self.out,)


class Log(Function):
    def forward(self, a):
        self.a = a
        return np.log(a)

    def backward(self, grad):
        return (grad / self.a,)


class Sqrt(Function):
    def forward(self, a):
        self.out = np.sqrt(a)
        return self.out

    def backward(self, grad):
        return (grad / (2.0 * self.out),)


class Abs(Function):
    def forward(self, a):
        self.sign = np.sign(a)
        return np.abs(a)

    def backward(self, grad):
        return (grad * self.sign,)


class Clip(Function):
    """Clamp; gradients flow only through the un-clipped region."""

    def forward(self, a, low, high):
        self.mask = (a >= low) & (a <= high)
        return np.clip(a, low, high)

    def backward(self, grad):
        return (grad * self.mask,)


class Maximum(Function):
    """Elementwise maximum of two tensors (ties split evenly)."""

    def forward(self, a, b):
        self.a, self.b = a, b
        return np.maximum(a, b)

    def backward(self, grad):
        a_wins = self.a > self.b
        tie = self.a == self.b
        ga = grad * (a_wins + 0.5 * tie)
        gb = grad * (~a_wins & ~tie) + grad * 0.5 * tie
        grads = [unbroadcast(ga, np.shape(self.a))]
        if len(self.needs_input_grad) > 1:
            grads.append(unbroadcast(gb, np.shape(self.b)))
        return tuple(grads)


class Identity(Function):
    def forward(self, a):
        return np.array(a, copy=True)

    def backward(self, grad):
        return (grad,)


class Relu(Function):
    def forward(self, a):
        self.mask = a > 0
        return a * self.mask

    def backward(self, grad):
        return (grad * self.mask,)


class AddRelu(Function):
    """``relu(a + b)``: the residual join and activation as one op.

    Byte-equal to ``Relu(Add(a, b))``, forward and input gradients: the
    same sum, the same ``> 0`` mask, and the mask's product unbroadcast
    to each operand's shape.
    """

    def forward(self, a, b):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        s = a + b
        self.mask = s > 0
        return s * self.mask

    def backward(self, grad):
        g = grad * self.mask
        grads = [unbroadcast(g, self.a_shape)]
        if len(self.needs_input_grad) > 1:
            grads.append(unbroadcast(g, self.b_shape))
        return tuple(grads)


class Relu6(Function):
    def forward(self, a):
        self.mask = (a > 0) & (a < 6.0)
        return np.clip(a, 0.0, 6.0)

    def backward(self, grad):
        return (grad * self.mask,)


class LeakyRelu(Function):
    def forward(self, a, negative_slope=0.01):
        self.mask = a > 0
        self.negative_slope = negative_slope
        return np.where(self.mask, a, negative_slope * a)

    def backward(self, grad):
        return (np.where(self.mask, grad, self.negative_slope * grad),)


class Sigmoid(Function):
    def forward(self, a):
        self.out = 1.0 / (1.0 + np.exp(-a))
        return self.out

    def backward(self, grad):
        return (grad * self.out * (1.0 - self.out),)


class Tanh(Function):
    def forward(self, a):
        self.out = np.tanh(a)
        return self.out

    def backward(self, grad):
        return (grad * (1.0 - self.out * self.out),)
