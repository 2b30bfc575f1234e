"""Sliding window semantics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rnacc import (
    DimensionMismatch,
    InvalidConfig,
    OrderingViolation,
    RnaConfig,
    SlidingBuffer,
    rna,
)


def test_eviction_keeps_newest():
    buf = SlidingBuffer(3)
    for epoch in range(1, 6):
        buf.push(epoch, [float(epoch), 0.0])
    assert buf.epochs == [3, 4, 5]
    np.testing.assert_array_equal(buf.as_matrix()[:, 0], [3.0, 4.0, 5.0])


def test_push_into_empty():
    buf = SlidingBuffer(4)
    buf.push(10, np.arange(3.0))
    assert len(buf) == 1
    np.testing.assert_array_equal(buf.last(), [0.0, 1.0, 2.0])


def test_steady_state_window_of_eleven():
    # Capacity K+1 = 11: after epoch 11 every snapshot has exactly 11 entries.
    buf = SlidingBuffer(11)
    for epoch in range(1, 201):
        buf.push(epoch, np.array([float(epoch)]))
        if epoch >= 11:
            assert len(buf) == 11
            assert buf.epochs == list(range(epoch - 10, epoch + 1))


def test_rejects_dimension_mismatch_and_stale_epochs():
    buf = SlidingBuffer(2)
    buf.push(1, np.zeros(2))
    with pytest.raises(DimensionMismatch):
        buf.push(2, np.zeros(3))
    with pytest.raises(OrderingViolation):
        buf.push(1, np.zeros(2))
    with pytest.raises(OrderingViolation):
        buf.push(0, np.zeros(2))


def test_rejects_tags_that_are_not_whole_numbers():
    # 1.5 then 1.7 would both be stored as 1, past the ordering test; every integer
    # tag stays accepted, negative ones too.
    buf = SlidingBuffer(4)
    for epoch in (-2, np.int64(0), 1.0):
        buf.push(epoch, np.zeros(2))
    for bad in (1.5, 1.7, float("nan"), float("inf"), "3", None):
        with pytest.raises(InvalidConfig, match="epoch must be an integer"):
            buf.push(bad, np.zeros(2))
    assert buf.epochs == [-2, 0, 1]
    assert all(type(epoch) is int for epoch in buf.epochs)


def test_capacity_validation_and_clear():
    with pytest.raises(InvalidConfig):
        SlidingBuffer(0)
    buf = SlidingBuffer(2)
    with pytest.raises(InvalidConfig):
        buf.as_matrix()
    buf.push(1, np.ones(2))
    buf.clear()
    assert len(buf) == 0
    buf.push(1, np.ones(2))  # epoch counter resets with the window
    assert buf.epochs == [1]


def test_snapshots_are_copies():
    buf = SlidingBuffer(2)
    vec = np.ones(2)
    buf.push(1, vec)
    vec[0] = 99.0
    np.testing.assert_array_equal(buf.last(), [1.0, 1.0])
    snap = buf.as_matrix()
    snap[0, 0] = -5.0
    np.testing.assert_array_equal(buf.last(), [1.0, 1.0])


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=30))
def test_window_always_holds_last_min_n_capacity(capacity, pushes):
    buf = SlidingBuffer(capacity)
    values = []
    for epoch in range(pushes):
        buf.push(epoch, np.array([float(epoch), float(epoch) ** 2]))
        values.append(epoch)
        expected = values[-min(len(values), capacity):]
        assert buf.epochs == expected


def test_buffer_feeds_rna_directly():
    rng = np.random.default_rng(2)
    buf = SlidingBuffer(6)
    seq = rng.standard_normal((9, 4))
    for epoch, row in enumerate(seq):
        buf.push(epoch, row)
    via_buffer, _ = rna(buf.as_matrix(), RnaConfig(window=5, lam=1e-8))
    direct, _ = rna(seq[-6:], RnaConfig(window=5, lam=1e-8))
    np.testing.assert_array_equal(via_buffer, direct)
