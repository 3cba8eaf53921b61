"""True integer inference kernels: the lowering target of ``convert()``.

:class:`IntConv2d` and :class:`IntLinear` are inference-only modules that
run the arithmetic a fixed-point deployment runtime would run.  Weights
are stored as uint8 *offset codes* (code minus the channel's lowest code)
with a per-output-channel integer zero offset and float step; activations
are quantized to the frozen calibrated range with
:func:`repro.quant.quantize_to_int`; and the GEMM accumulates integer
code products which a single per-channel requantization
(``step_w[c] * step_x * acc + bias``) turns back into real values.

Because both the weight grid and the activation grid are exactly the
grids the frozen-range fake-quant path uses, a lowered module's output
equals the fake-quant reference up to float rounding of the final
requantization — ``convert()`` verifies this on every model it lowers.

Accumulator selection
---------------------
NumPy has no int8-GEMM BLAS kernel; integer matmuls fall back to slow
generic loops.  But a float GEMM over integer-valued operands is *exact*
as long as every intermediate product and partial sum stays below the
mantissa capacity.  The engine therefore bounds
``max|w_code| * max|x_code| * K`` per layer and picks the cheapest exact
carrier: float32 BLAS when the bound fits 2^24, float64 BLAS below 2^53,
and int64 (exact but slow) beyond that.  The result is bit-identical to
an int64 accumulation — tested — while running on the same sgemm/dgemm
kernels as the float path, minus the dynamic range scans, the autograd
graph, and the fake-quant round trips.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..nn import autograd
from ..nn._ops.conv import _im2col, _pad_batch_last, conv2d_output_shape
from ..nn.layers.conv import _pair
from ..nn.module import Module
from ..nn.tensor import Tensor, forbid_silent_downcast
from .quantizer import integer_quantization_params, quantize_to_int

__all__ = ["LoweredModule", "IntConv2d", "IntLinear"]


def _choose_accumulator(w_abs_max: int, x_abs_max: int, terms: int):
    """Cheapest dtype whose GEMM is exact for the given magnitude bound.

    Every product is ``<= w_abs_max * x_abs_max`` and every partial sum of
    ``terms`` such products stays below the bound; if that fits the
    mantissa (24 bits for float32, 53 for float64) the float GEMM result
    is the exact integer answer.
    """
    bound = float(max(w_abs_max, 1)) * float(max(x_abs_max, 1)) * float(max(terms, 1))
    if bound < 2.0 ** 24:
        return np.float32
    if bound < 2.0 ** 53:
        return np.float64
    return np.int64


def _quantize_weight_per_channel(
    weight: np.ndarray, bits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize ``weight`` to per-output-channel integer codes.

    Returns ``(codes, zero, scale)``: signed int64 codes on the same grid
    as :func:`repro.quant.linear_quantize_per_channel` (dynamic range, no
    clipping — bit-for-bit the fake-quant weight), the per-channel lowest
    code (the storage zero offset), and the per-channel float step.  A
    constant channel ``c`` is represented exactly as ``scale=c, code=1``
    (or all-zero codes for ``c == 0``), mirroring the fake-quant path
    which leaves constant channels untouched.
    """
    weight = np.asarray(weight, dtype=np.float64)
    out_channels = weight.shape[0]
    flat = weight.reshape(out_channels, -1)
    codes = np.zeros_like(flat, dtype=np.int64)
    zero = np.zeros(out_channels, dtype=np.int64)
    scale = np.ones(out_channels, dtype=np.float64)
    for o in range(out_channels):
        row = flat[o]
        lo, hi = float(row.min()), float(row.max())
        step, _, _ = integer_quantization_params(lo, hi, bits)
        if step == 0.0:
            c = lo  # constant channel
            if c != 0.0:
                scale[o] = c
                codes[o] = 1
            continue
        # No clipping: the dynamic range covers the values, matching the
        # fake-quant grid exactly (clipping could perturb half-way ties).
        codes[o] = np.round(row / step).astype(np.int64)
        zero[o] = int(codes[o].min())
        scale[o] = step
    return codes.reshape(weight.shape), zero, scale


class LoweredModule(Module):
    """Base class for integer-kernel modules produced by ``convert()``.

    Inference-only: forwards return constant (non-differentiable) tensors
    and there are no Parameters — all state lives in buffers so
    ``state_dict`` round-trips through the usual Module machinery.  A
    forward under an active :mod:`repro.engine` trace fails that trace,
    so the engine serves the model eagerly instead of replaying a
    constant.
    """

    inference_only = True
    #: what forbid_silent_downcast names if the forward downcasts.
    _requant_grid = "the integer requantization grid"

    def __init__(
        self, weight_bits: int, act_bits: int, act_range: Tuple[float, float]
    ) -> None:
        super().__init__()
        lo, hi = float(act_range[0]), float(act_range[1])
        if not lo < hi or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(
                f"degenerate activation range ({lo}, {hi}); "
                f"calibrate() must observe a non-constant input"
            )
        self.register_buffer(
            "qconfig", np.array([int(weight_bits), int(act_bits)], dtype=np.int64)
        )
        self.register_buffer("act_range", np.array([lo, hi], dtype=np.float64))
        self._operand_cache = None  # (operand key, acc dtype, w_mat)

    # qconfig/act_range are read through properties (not stashed as plain
    # attrs) so load_state_dict updates take effect everywhere.
    @property
    def weight_bits(self) -> int:
        return int(self.qconfig[0])

    @property
    def act_bits(self) -> int:
        return int(self.qconfig[1])

    @property
    def act_lo(self) -> float:
        return float(self.act_range[0])

    @property
    def act_hi(self) -> float:
        return float(self.act_range[1])

    def _store_weight(self, codes: np.ndarray, zero: np.ndarray, scale: np.ndarray) -> None:
        offset = codes - zero.reshape((-1,) + (1,) * (codes.ndim - 1))
        span = int(offset.max()) if offset.size else 0
        store_dtype = np.uint8 if span <= np.iinfo(np.uint8).max else np.int32
        self.register_buffer("weight_q", offset.astype(store_dtype))
        self.register_buffer("weight_zero", zero.astype(np.int64))
        self.register_buffer("weight_scale", scale.astype(np.float64))

    def _operand_key(self):
        """Cache key for the GEMM operands: buffer ids *and* versions.

        Identity alone is not enough — ``load_state_dict`` may hand back
        an array at a recycled ``id()``, and ``set_buffer`` bumps the
        version even when numpy reuses storage — so the key pairs each
        buffer's id with its monotonic registration version.
        """
        return (
            id(self.weight_q),
            self.buffer_version("weight_q"),
            id(self.act_range),
            self.buffer_version("act_range"),
            self.buffer_version("qconfig"),
        )

    def _weight_operand(self):
        """Signed weight codes as a GEMM-ready matrix in the exact carrier.

        Cached per (buffer id, buffer version) so repeated forwards skip
        the reconstruction while any rebinding of the weight/range
        buffers — ``load_state_dict``, ``set_buffer``, re-registration —
        invalidates the cache even if the replacement array reuses the
        old storage address.
        """
        key = self._operand_key()
        cache = self._operand_cache
        if cache is not None and cache[0] == key:
            return cache[1], cache[2]
        codes = self.weight_q.astype(np.int64) + self.weight_zero.reshape(
            (-1,) + (1,) * (self.weight_q.ndim - 1)
        )
        _, x_lo, x_hi = integer_quantization_params(
            self.act_lo, self.act_hi, self.act_bits
        )
        w_abs = int(np.abs(codes).max()) if codes.size else 0
        x_abs = max(abs(x_lo), abs(x_hi))
        acc_dtype = _choose_accumulator(w_abs, x_abs, self._gemm_terms())
        w_mat = self._as_gemm_matrix(codes).astype(acc_dtype)
        self._operand_cache = (key, acc_dtype, w_mat)
        return acc_dtype, w_mat

    def forward(self, x) -> Tensor:
        tracer = autograd._active_tracer()
        if tracer is not None:
            # The integer kernels run off the autograd tape: a trace
            # would record this output as a constant, and every replay
            # would return the embedding of the traced input.
            tracer.fail(
                f"{type(self).__name__} computes off the autograd tape; "
                f"its output cannot be replayed"
            )
        with forbid_silent_downcast(self._requant_grid):
            return self._forward_exact(x)

    def _forward_exact(self, x) -> Tensor:
        raise NotImplementedError

    def _quantize_input(self, x) -> Tuple[np.ndarray, float]:
        arr = np.asarray(x.data if isinstance(x, Tensor) else x)
        codes, step, _ = quantize_to_int(arr, self.act_bits, self.act_lo, self.act_hi)
        return codes, step

    def _gemm_terms(self) -> int:
        raise NotImplementedError

    def _as_gemm_matrix(self, codes: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class IntConv2d(LoweredModule):
    """Integer conv2d: uint8 weight codes, im2col GEMM, per-channel requant.

    One copy pads the input codes, moves the batch axis last and casts
    them to the exact carrier; the float ``Conv2d``'s own ``_im2col``
    unfolds them (see :mod:`repro.nn._ops.conv` for the layout).  One GEMM
    per group then accumulates the code products for the whole batch,
    and the requantized result is copied back to NCHW.
    """

    _requant_grid = "the integer conv requantization grid"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        stride=1,
        padding=0,
        groups: int = 1,
        *,
        weight_bits: int,
        act_bits: int,
        act_range: Tuple[float, float],
        bias: bool = True,
    ) -> None:
        super().__init__(weight_bits, act_bits, act_range)
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"channels ({in_channels} -> {out_channels}) not divisible "
                f"by groups={groups}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.groups = groups
        kh, kw = self.kernel_size
        shape = (out_channels, in_channels // groups, kh, kw)
        self._store_weight(
            np.zeros(shape, dtype=np.int64),
            np.zeros(out_channels, dtype=np.int64),
            np.ones(out_channels, dtype=np.float64),
        )
        if bias:
            self.register_buffer("bias", np.zeros(out_channels, dtype=np.float64))
        else:
            self.bias = None

    @classmethod
    def from_qat(cls, q) -> "IntConv2d":
        """Lower a calibrated :class:`repro.quant.QConv2d`."""
        act_range = _require_deployable(q, "QConv2d")
        mod = cls(
            q.in_channels,
            q.out_channels,
            q.kernel_size,
            stride=q.stride,
            padding=q.padding,
            groups=q.groups,
            weight_bits=q.precision,
            act_bits=q.precision,
            act_range=act_range,
            bias=q.bias is not None,
        )
        codes, zero, scale = _quantize_weight_per_channel(
            q.weight.data, mod.weight_bits
        )
        mod._store_weight(codes, zero, scale)
        if q.bias is not None:
            mod.set_buffer("bias", np.asarray(q.bias.data, dtype=np.float64))
        return mod

    def _gemm_terms(self) -> int:
        kh, kw = self.kernel_size
        return (self.in_channels // self.groups) * kh * kw

    def _as_gemm_matrix(self, codes: np.ndarray) -> np.ndarray:
        return codes.reshape(
            self.groups, self.out_channels // self.groups, self._gemm_terms()
        )

    def _forward_exact(self, x) -> Tensor:
        x_codes, x_step = self._quantize_input(x)
        if x_codes.ndim != 4 or x_codes.shape[1] != self.in_channels:
            raise ValueError(
                f"IntConv2d expects (N, {self.in_channels}, H, W) input, "
                f"got {x_codes.shape}"
            )
        acc_dtype, w_mat = self._weight_operand()
        n, _, h, w = x_codes.shape
        kh, kw = self.kernel_size
        oh, ow = conv2d_output_shape(
            (h, w), self.kernel_size, self.stride, self.padding
        )
        # Pad, move the batch axis last and cast to the accumulator in
        # one copy, then unfold with the float Conv2d's own im2col.
        padded = _pad_batch_last(x_codes, *self.padding, dtype=acc_dtype)
        cols = _im2col(padded, kh, kw, *self.stride)
        cols = cols.reshape(self.groups, self._gemm_terms(), -1)
        acc = np.matmul(w_mat, cols)  # exact: see _choose_accumulator
        requant = (self.weight_scale * x_step).reshape(-1, 1, 1, 1)
        out = acc.reshape(self.out_channels, oh, ow, n) * requant
        out = np.ascontiguousarray(out.transpose(3, 0, 1, 2))
        if self.bias is not None:
            out += self.bias.reshape(1, self.out_channels, 1, 1)
        # float64 out (Tensor would downcast without dtype=): requantization
        # must not perturb inputs of the *next* integer layer, whose
        # rounding is sensitive at code boundaries.
        return Tensor(out, dtype=np.float64)

    def symbolic_shape(self, shape, dtype):
        """Shape-propagation hook for :mod:`repro.analysis` tracing."""
        if len(shape) != 4:
            raise ValueError(f"expects 4-d (N, C, H, W) input, got {shape}")
        if shape[1] != self.in_channels:
            raise ValueError(
                f"expects {self.in_channels} input channels, got {shape[1]}"
            )
        oh, ow = conv2d_output_shape(
            shape[2:], self.kernel_size, self.stride, self.padding
        )
        return (shape[0], self.out_channels, oh, ow), np.dtype(np.float64)

    def __repr__(self) -> str:
        return (
            f"IntConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, w{self.weight_bits}a{self.act_bits})"
        )


class IntLinear(LoweredModule):
    """Integer linear: uint8 weight codes, GEMM, per-channel requant."""

    _requant_grid = "the integer linear requantization grid"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        weight_bits: int,
        act_bits: int,
        act_range: Tuple[float, float],
        bias: bool = True,
    ) -> None:
        super().__init__(weight_bits, act_bits, act_range)
        self.in_features = in_features
        self.out_features = out_features
        self._store_weight(
            np.zeros((out_features, in_features), dtype=np.int64),
            np.zeros(out_features, dtype=np.int64),
            np.ones(out_features, dtype=np.float64),
        )
        if bias:
            self.register_buffer("bias", np.zeros(out_features, dtype=np.float64))
        else:
            self.bias = None

    @classmethod
    def from_qat(cls, q) -> "IntLinear":
        """Lower a calibrated :class:`repro.quant.QLinear`."""
        act_range = _require_deployable(q, "QLinear")
        mod = cls(
            q.in_features,
            q.out_features,
            weight_bits=q.precision,
            act_bits=q.precision,
            act_range=act_range,
            bias=q.bias is not None,
        )
        codes, zero, scale = _quantize_weight_per_channel(
            q.weight.data, mod.weight_bits
        )
        mod._store_weight(codes, zero, scale)
        if q.bias is not None:
            mod.set_buffer("bias", np.asarray(q.bias.data, dtype=np.float64))
        return mod

    def _gemm_terms(self) -> int:
        return self.in_features

    def _as_gemm_matrix(self, codes: np.ndarray) -> np.ndarray:
        return codes.reshape(self.out_features, self.in_features)

    def _forward_exact(self, x) -> Tensor:
        x_codes, x_step = self._quantize_input(x)
        if x_codes.ndim != 2 or x_codes.shape[1] != self.in_features:
            raise ValueError(
                f"IntLinear expects (N, {self.in_features}) input, "
                f"got {x_codes.shape}"
            )
        acc_dtype, w_mat = self._weight_operand()
        acc = np.matmul(x_codes.astype(acc_dtype), w_mat.T)
        out = acc * (self.weight_scale * x_step).reshape(1, -1)
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1)
        return Tensor(out, dtype=np.float64)

    def symbolic_shape(self, shape, dtype):
        """Shape-propagation hook for :mod:`repro.analysis` tracing."""
        if len(shape) != 2:
            raise ValueError(f"expects 2-d (N, features) input, got {shape}")
        if shape[1] != self.in_features:
            raise ValueError(
                f"expects {self.in_features} input features, got {shape[1]}"
            )
        return (shape[0], self.out_features), np.dtype(np.float64)

    def __repr__(self) -> str:
        return (
            f"IntLinear(in_features={self.in_features}, "
            f"out_features={self.out_features}, "
            f"w{self.weight_bits}a{self.act_bits})"
        )


def _require_deployable(q, kind: str) -> Tuple[float, float]:
    """Validate that a QAT module carries everything lowering needs."""
    if q.precision is None:
        raise ValueError(
            f"{kind} has no precision set; apply_precision() or pass "
            f"bits= to calibrate()"
        )
    rng = q.activation_range
    if rng is None:
        raise ValueError(
            f"{kind} has no calibrated activation range; run calibrate() "
            f"before convert()"
        )
    return rng
