"""Small lock-backed atomic primitives shared by the concurrent modules.

CPython's GIL makes single bytecode operations atomic, but read-modify-write
sequences (``x += 1``, compare-and-swap) are not. These helpers provide the
atomic operations the scheduler's claim protocol relies on.
"""

from __future__ import annotations

import threading


class AtomicIntArray:
    """Fixed-size integer array with atomic add and compare-and-swap per slot.

    Slots are guarded by striped locks so concurrent updates to different
    indices rarely contend. Plain reads go through the GIL unlocked.
    """

    __slots__ = ("_values", "_locks")

    def __init__(self, values: list[int], *, stripes: int = 64) -> None:
        self._values = list(values)
        size = len(self._values)
        self._locks = [threading.Lock() for _ in range(max(1, min(stripes, size or 1)))]

    def __len__(self) -> int:
        return len(self._values)

    def get(self, index: int) -> int:
        return self._values[index]

    def add(self, index: int, delta: int) -> int:
        with self._locks[index % len(self._locks)]:
            value = self._values[index] + delta
            self._values[index] = value
            return value

    def compare_and_swap(self, index: int, expected: int, new: int) -> bool:
        with self._locks[index % len(self._locks)]:
            if self._values[index] != expected:
                return False
            self._values[index] = new
            return True

    def snapshot(self) -> list[int]:
        return list(self._values)
