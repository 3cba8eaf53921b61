"""IntConv2d's accumulator is exact through the shared float im2col.

``IntConv2d`` unfolds its input codes with the float ``Conv2d``'s own
pad and im2col helpers, then runs a float32 or float64 GEMM over the
integer codes.  With a unit activation step (range ``[-128, 127]`` on
the 8-bit grid), unit weight steps and no bias, the requantized output
*is* the accumulator, so it must equal an int64 reference conv over
the same codes byte for byte, in either carrier.
"""

import itertools

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.quant.lowered import IntConv2d

from ..helpers import conv2d_reference

C_IN, C_OUT, H, W = 4, 8, 7, 6
# carrier -> (weight bits, largest |weight code|).  The carrier bound is
# |w|·|x|·terms with terms = 36, 18 or 9 (groups 1, 2, 4): 127·128·36
# stays below 2^24 (float32); 30000·128·9 does not, but stays far below
# 2^53 (float64).
CARRIERS = {np.float32: (8, 127), np.float64: (16, 30000)}
GRID = list(itertools.product((1, 2, C_IN), (1, 2), (1, 5), CARRIERS))


@pytest.mark.parametrize("groups, stride, batch, carrier", GRID)
def test_int_conv_accumulator_equals_int64_reference(groups, stride, batch,
                                                     carrier):
    bits, w_max = CARRIERS[carrier]
    rng = np.random.default_rng(groups * 100 + stride * 10 + batch)
    mod = IntConv2d(C_IN, C_OUT, 3, stride=stride, padding=1, groups=groups,
                    weight_bits=bits, act_bits=8, act_range=(-128.0, 127.0),
                    bias=False)
    w_codes = rng.integers(-w_max, w_max + 1,
                           size=(C_OUT, C_IN // groups, 3, 3))
    w_codes[0, 0, 0, 0] = w_max  # pin the carrier's magnitude bound
    mod._store_weight(w_codes, w_codes.reshape(C_OUT, -1).min(axis=1),
                      np.ones(C_OUT))
    assert mod._weight_operand()[0] is carrier

    x_codes = rng.integers(-128, 128, size=(batch, C_IN, H, W))
    out = mod(Tensor(x_codes.astype(np.float64), dtype=np.float64)).data

    want = conv2d_reference(x_codes, w_codes, None, (stride, stride), (1, 1),
                            groups=groups)
    assert want.dtype == np.int64
    assert out.dtype == np.float64
    assert out.tobytes() == want.astype(np.float64).tobytes()
