"""Run-list event scheduler for the serving loop.

The serving simulation keeps only a handful of events in flight at any
moment — one pending arrival per tenant plus one completion per busy
shard — so a binary heap pays ``O(log n)`` sift overhead (and heapq's
call dispatch) for ordering that a tiny sorted list provides with an
``O(1)`` ``list.pop()`` and a short ``bisect.insort`` memmove.

Events are stored as ``(-time_ns, -seq, kind, index)`` tuples kept in
ascending order, so the *end* of the list is always the earliest
``(time_ns, seq)`` event.  ``seq`` increments on every push and is
therefore unique: tuple comparison never reads past the second element,
and the dequeue order is exactly the ``(time_ns, seq)`` total order a
``heapq`` of ``(time_ns, seq, kind, index)`` tuples would produce —
:mod:`tests.test_engine_speed` property-checks that equivalence.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Tuple


class EventScheduler:
    """Deterministic ``(time, seq)``-ordered scheduler on a run-list.

    Hot loops may bind ``scheduler.events`` (the raw list), pop negated
    tuples directly and inline :meth:`push`'s two statements (the
    serving loop does, at its two per-op push sites);
    :meth:`push`/:meth:`pop` are the readable wrappers with identical
    semantics.
    """

    __slots__ = ("events", "seq")

    def __init__(self) -> None:
        self.events: List[Tuple[int, int, int, int]] = []
        self.seq = 0

    def push(self, time_ns: int, kind: int, index: int) -> None:
        """Schedule an event; later pushes at equal times dequeue later."""
        self.seq += 1
        insort(self.events, (-time_ns, -self.seq, kind, index))

    def pop(self) -> Tuple[int, int, int, int]:
        """Remove and return the earliest event as (time_ns, seq, kind, index)."""
        neg_time, neg_seq, kind, index = self.events.pop()
        return (-neg_time, -neg_seq, kind, index)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __repr__(self) -> str:
        return f"EventScheduler(pending={len(self.events)}, seq={self.seq})"
