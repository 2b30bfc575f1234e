"""Sliding window of (epoch, parameter vector) pairs.

The acceleration protocol stores one parameter snapshot per epoch and
extrapolates from the most recent K+1 of them; this buffer is that
store. Single writer; snapshots taken via :meth:`as_matrix` are copies
and safe to read concurrently.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, OrderingViolation, _read, _require_int


class SlidingBuffer:
    """Fixed-capacity window that evicts its oldest entry when full."""

    def __init__(self, capacity: int):
        capacity = _require_int("capacity", capacity)
        entries = _read("capacity", capacity, lambda c: deque(maxlen=c), "fit in a C ssize_t")
        self._entries: deque[tuple[int, np.ndarray]] = entries

    @property
    def capacity(self) -> int:
        return self._entries.maxlen

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def epochs(self) -> list[int]:
        """Epoch tags currently in the window, oldest first."""
        return [epoch for epoch, _ in self._entries]

    def push(self, epoch: int, theta) -> None:
        """Append a snapshot, evicting the oldest entry if at capacity.

        Raises InvalidConfig unless ``epoch`` is a whole number,
        DimensionMismatch if ``theta`` does not match the stored
        dimension and OrderingViolation unless ``epoch`` exceeds the
        last stored tag.
        """
        epoch = _require_int("epoch", epoch, minimum=None)
        vec = np.array(theta, dtype=np.float64).ravel()
        if self._entries:
            last_epoch, last_vec = self._entries[-1]
            if vec.shape != last_vec.shape:
                raise DimensionMismatch(
                    f"snapshot has dimension {vec.size}, buffer holds {last_vec.size}"
                )
            if epoch <= last_epoch:
                raise OrderingViolation(
                    f"epoch {epoch} does not follow last stored epoch {last_epoch}"
                )
        self._entries.append((epoch, vec))

    def last(self) -> np.ndarray:
        """Copy of the most recent snapshot."""
        return self._entries[-1][1].copy()

    def as_matrix(self) -> np.ndarray:
        """Stack the window into an (m, d) matrix, oldest row first."""
        if not self._entries:
            raise InvalidConfig("buffer is empty")
        return np.vstack([vec for _, vec in self._entries])

    def clear(self) -> None:
        self._entries.clear()
