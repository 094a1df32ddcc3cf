"""Queues for the simulation kernel.

:class:`Store` is a bounded FIFO with blocking ``put``/``get`` events plus
non-blocking ``try_put``/``try_get``.  The MinatoLoader model's slow-task
workers look for work with ``try_get`` -- at the instants Algorithm 1's
10 ms sleep loop would look, without sleeping through the empty ones: a
worker that finds nothing parks, and the store's ``on_change`` callback is
what tells the loader to wake it on its next poll tick (see
``sim/loaders.py``).  Looking instead of waiting also sidesteps the classic
pitfall of abandoned ``get`` events consuming items.

:class:`PriorityStore` orders retrieval by a key, used by models that need
deadline- or size-ordered queues (e.g. the ablation benchmarks).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Optional

from ..contracts import interval
from .kernel import Environment, Event

__all__ = ["Store", "PriorityStore"]


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, env: Environment, item: Any) -> None:
        super().__init__(env)
        self.item = item


class StoreGet(Event):
    __slots__ = ()


class Store:
    """Process-safe FIFO queue living in virtual time.

    A pending ``get()`` whose process is interrupted still consumes the
    next item put.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        interval("capacity", capacity, 0, math.inf, "right")  # inf: unbounded
        self.env = env
        self.capacity = capacity
        self.items: deque = deque()
        self._getters: deque = deque()
        self._putters: deque = deque()
        #: optional callback(now, size) fired on every size change
        self.on_change: Optional[Callable[[float, int], None]] = None

    def __len__(self) -> int:
        return len(self.items)

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change(self.env.now, len(self.items))

    # subclasses override the storage primitives, not the dispatch logic
    def _add_item(self, item: Any) -> None:
        self.items.append(item)

    def _pop_item(self) -> Any:
        return self.items.popleft()

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                put_event = self._putters.popleft()
                self._add_item(put_event.item)
                put_event.succeed()
                progressed = True
            while self._getters and self.items:
                get_event = self._getters.popleft()
                get_event.succeed(self._pop_item())
                progressed = True
        self._notify()

    # the public operations fast-path the waiter-free common case (after
    # every dispatch, pending getters imply an empty store and pending
    # putters imply a full one, so a lone put/get with no opposing waiter
    # can never unblock more than one queue scan) -- the loaders hit
    # try_get/try_put once per look for work, which made the unconditional
    # double scan a kernel hot spot

    def put(self, item: Any) -> StorePut:
        """Blocking put; the returned event fires once the item is enqueued."""
        event = StorePut(self.env, item)
        if not self._putters and len(self.items) < self.capacity:
            self._add_item(item)
            event.succeed()
            if self._getters:
                self._dispatch()
            else:
                self._notify()
        else:
            self._putters.append(event)
            self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Blocking get; the returned event fires with the item as value."""
        event = StoreGet(self.env)
        if self.items and not self._getters:
            event.succeed(self._pop_item())
            if self._putters:
                self._dispatch()
            else:
                self._notify()
        else:
            self._getters.append(event)
            self._dispatch()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put.  Returns ``False`` when the store is full."""
        if len(self.items) >= self.capacity and not self._getters:
            return False
        self._add_item(item)
        if self._getters:
            self._dispatch()
        else:
            self._notify()
        return True

    def try_get(self) -> Any:
        """Non-blocking get.  Returns ``None`` when the store is empty.

        Items must therefore never be ``None``; loader models wrap payloads
        in records, so this is not a restriction in practice.
        """
        if not self.items:
            return None
        item = self._pop_item()
        if self._putters:
            self._dispatch()
        else:
            self._notify()
        return item


class PriorityStore(Store):
    """Store retrieving the smallest item first (heap-ordered).

    Items are ``(key, payload)`` tuples; ties broken by insertion order.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        self.items: list = []
        self._seq = 0

    def _push(self, item: Any) -> None:
        key, payload = item
        self._seq += 1
        heapq.heappush(self.items, (key, self._seq, payload))

    # the shared dispatch/fast-path logic applies unchanged: only the
    # storage primitives differ
    def _add_item(self, item: Any) -> None:
        self._push(item)

    def _pop_item(self) -> Any:
        key, _seq, payload = heapq.heappop(self.items)
        return (key, payload)
