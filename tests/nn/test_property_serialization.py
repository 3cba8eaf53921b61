"""Hypothesis property tests for serialization round-trips.

The checkpoint subsystem's bit-exactness guarantee bottoms out here: any
nested state tree written to disk must come back with identical dtypes,
shapes, and bit patterns, and optimizer/scheduler state dicts must
survive a round trip through a freshly built twin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam, CosineAnnealingLR
from repro.nn.serialization import pack_state, unpack_state

ARRAY_DTYPES = (np.float32, np.float64, np.int32, np.int64, np.uint8)

arrays = st.sampled_from(ARRAY_DTYPES).flatmap(
    lambda dtype: hnp.arrays(
        dtype=dtype,
        shape=hnp.array_shapes(min_dims=0, max_dims=3, max_side=5),
        elements=(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False,
                      width=32)
            if np.issubdtype(dtype, np.floating)
            else st.integers(0, 200)
        ),
    )
)

keys = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                           whitelist_characters="_."),
    min_size=1,
    max_size=12,
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 100), 2 ** 100),  # PCG64 state ints exceed 64 bits
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=10),
)

trees = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=12,
)


def assert_identical(a, b):
    """Deep equality with dtype/shape/bit-pattern checks for arrays."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray)
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, dict):
        assert isinstance(b, dict) and set(a) == set(b)
        for key in a:
            assert_identical(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert isinstance(b, list) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    elif isinstance(a, float):
        assert isinstance(b, float)
        assert a == b or (np.isnan(a) and np.isnan(b))
    else:
        assert type(a) is type(b) and a == b


class TestPackStateRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(trees)
    def test_in_memory_round_trip(self, tree):
        assert_identical(_tuples_to_lists(tree),
                         unpack_state(pack_state(tree)))

    @settings(max_examples=25, deadline=None)
    @given(trees)
    def test_npz_round_trip(self, tmp_path_factory, tree):
        """Through an actual compressed npz file, not just the dict."""
        path = tmp_path_factory.mktemp("pack") / "tree.npz"
        np.savez_compressed(path, **pack_state(tree))
        with np.load(path) as archive:
            loaded = unpack_state(archive)
        assert_identical(_tuples_to_lists(tree), loaded)

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            pack_state({1: np.zeros(2)})

    def test_unknown_leaf_rejected(self):
        with pytest.raises(TypeError, match="leaves"):
            pack_state({"bad": object()})


def _tuples_to_lists(node):
    """pack_state documents tuples coming back as lists; normalize."""
    if isinstance(node, dict):
        return {k: _tuples_to_lists(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_tuples_to_lists(v) for v in node]
    return node


def _params(rng, n=3):
    return [Parameter(rng.normal(size=(4, 2)).astype(np.float32))
            for _ in range(n)]


def _advance(optimizer, params, rng, steps=3):
    for _ in range(steps):
        for p in params:
            p.grad = rng.normal(size=p.data.shape).astype(np.float32)
        optimizer.step()


OPTIMIZERS = {
    "sgd": lambda ps: SGD(ps, lr=0.1, momentum=0.9),
    "adam": lambda ps: Adam(ps, lr=1e-3),
}


class TestOptimizerStateRoundTrip:
    @pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
    def test_slots_restored_bit_exact(self, kind, rng):
        params = _params(rng)
        source = OPTIMIZERS[kind](params)
        _advance(source, params, rng)
        state = source.state_dict()

        twin_params = _params(np.random.default_rng(0))
        twin = OPTIMIZERS[kind](twin_params)
        twin.load_state_dict(state)

        assert twin.step_count == source.step_count
        assert twin.lr == source.lr
        for name, slots in source._slot_arrays().items():
            for a, b in zip(slots, twin._slot_arrays()[name]):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_wrong_type_rejected(self, rng):
        params = _params(rng)
        state = SGD(params, lr=0.1, momentum=0.9).state_dict()
        with pytest.raises(ValueError, match="SGD"):
            Adam(_params(rng)).load_state_dict(state)

    def test_state_dict_is_a_snapshot(self, rng):
        """Mutating the optimizer after state_dict() must not leak into
        the captured state (arrays are copies, not views)."""
        params = _params(rng)
        optimizer = Adam(params, lr=1e-3)
        _advance(optimizer, params, rng)
        state = optimizer.state_dict()
        before = [m.copy() for m in state["slots"]["m"]]
        _advance(optimizer, params, rng)
        for a, b in zip(state["slots"]["m"], before):
            np.testing.assert_array_equal(a, b)


class TestSchedulerStateRoundTrip:
    @pytest.mark.parametrize("factory", [
        lambda opt: CosineAnnealingLR(opt, t_max=10),
    ])
    def test_position_and_lr_restored(self, factory, rng):
        params = _params(rng)
        source_sched = factory(SGD(params, lr=0.5, momentum=0.9))
        for _ in range(4):
            source_sched.step()
        state = source_sched.state_dict()

        twin_sched = factory(SGD(_params(rng), lr=0.5, momentum=0.9))
        twin_sched.load_state_dict(state)
        assert twin_sched.last_epoch == source_sched.last_epoch
        assert twin_sched.optimizer.lr == source_sched.optimizer.lr
        # The continuation draws the identical remaining schedule.
        assert [twin_sched.step() for _ in range(3)] == \
               [source_sched.step() for _ in range(3)]
