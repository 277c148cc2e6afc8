"""Bounded ingestion buffers with an explicit, observable overflow policy.

A streaming tracker that buffers scans unboundedly dies slowly under burst
traffic; one that drops silently lies about its inputs. These buffers do
neither: capacity is fixed at construction, overflow policy is explicit
(*drop-oldest* — the newest measurement is always the most valuable for a
tracker), and every shed sample is counted locally, signalled as
``service.shed.<name>`` and logged (first shed per buffer at WARNING, the
rest at DEBUG so a sustained storm cannot flood the log).
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections import deque
from typing import (
    Any, Callable, Deque, Generic, Iterable, Iterator, List, Optional,
    TypeVar,
)

from repro import obs
from repro.errors import ConfigurationError

__all__ = ["DROP_OLDEST", "BoundedBuffer"]

logger = logging.getLogger("repro.service")

#: The only overflow policy implemented: evict the oldest buffered item.
DROP_OLDEST = "drop-oldest"

T = TypeVar("T")


class BoundedBuffer(Generic[T]):
    """A fixed-capacity FIFO that sheds the oldest item on overflow."""

    def __init__(self, maxlen: int, name: str = "buffer"):
        if maxlen < 1:
            raise ConfigurationError("buffer maxlen must be >= 1")
        self.maxlen = int(maxlen)
        self.name = name
        self.policy = DROP_OLDEST
        self.shed = 0
        self._items: Deque[T] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.maxlen

    def _shed_oldest(self) -> None:
        """Evict the oldest item: count, signal and log it.

        Every shed path (``append``, ``extend``, ``insert_by``) funnels
        through here, so per-item shed accounting is identical no matter
        how the item arrived — the parity the gateway's queue reuse and
        ``tests/test_service.py`` depend on.
        """
        self._items.popleft()
        self.shed += 1
        obs.signal(
            f"service.shed.{self.name}",
            severity="warning" if self.shed == 1 else "debug",
            maxlen=self.maxlen,
            shed_total=self.shed,
            policy=self.policy,
        )
        level = logging.WARNING if self.shed == 1 else logging.DEBUG
        logger.log(
            level,
            "buffer %r full (maxlen=%d): shed oldest sample "
            "(%d shed so far, policy=%s)",
            self.name, self.maxlen, self.shed, self.policy,
        )

    def append(self, item: T) -> None:
        """Add one item, shedding the oldest when at capacity."""
        if len(self._items) >= self.maxlen:
            self._shed_oldest()
        self._items.append(item)

    def extend(self, items: Iterable[T]) -> int:
        """Append many items; returns how many were added.

        Exactly equivalent to calling :meth:`append` per item: each
        overflow sheds (and counts, and events) individually, so a batch
        arrival is indistinguishable from the same items arriving one by
        one in every ledger.
        """
        n = 0
        for item in items:
            self.append(item)
            n += 1
        return n

    def last(self) -> Optional[T]:
        """The newest buffered item, or ``None`` when empty."""
        return self._items[-1] if self._items else None

    def insert_by(self, item: T, key: "Callable[[T], Any]") -> None:
        """Insert keeping non-decreasing ``key`` order (late stragglers).

        Equal keys insert *after* existing ones, preserving arrival order
        among ties. Overflow semantics match :meth:`append` exactly: at
        capacity the oldest item is shed first — which may be the inserted
        item itself if it would sort before everything buffered (a
        straggler older than the whole ring is dropped, counted, the same
        way capacity pressure drops it).
        """
        keys = [key(existing) for existing in self._items]
        self._items.insert(bisect_right(keys, key(item)), item)
        if len(self._items) > self.maxlen:
            self._shed_oldest()

    def items(self) -> List[T]:
        """A snapshot list, oldest first."""
        return list(self._items)

    def drop_while(self, pred: "Callable[[T], bool]") -> int:
        """Evict leading items matching ``pred`` (time-based aging, not shed).

        Returns the number evicted. Aged-out items are *expected* attrition
        (they left the estimation window) and are deliberately not counted
        as shed — shed means capacity pressure.
        """
        n = 0
        while self._items and pred(self._items[0]):
            self._items.popleft()
            n += 1
        return n

    def clear(self) -> None:
        self._items.clear()

    def stats(self) -> "dict[str, Any]":
        return {
            "name": self.name,
            "len": len(self._items),
            "maxlen": self.maxlen,
            "shed": self.shed,
            "policy": self.policy,
        }
