"""A fixed reference computation that measures how fast the host is right now.

Shared hosts drift: on a 2-vCPU VM the same code ran 10-60% slower for
minutes at a time while CPU time still equalled wall time.  The median
over reps removes rep-to-rep noise but not that drift.  So each timed rep
is paired with one run of :func:`kernel` just before it, and host times
are reported as ``time * REFERENCE_S / kernel time``: seconds on a host
where the kernel takes :data:`REFERENCE_S`.  The kernel mixes what the
simulator spends its time on (a heap-driven event loop over small
objects and dicts, and small int64 NumPy array operations) and never
depends on ``repro``, so a change to the simulator moves only the
numerator.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List

import numpy as np

#: Median kernel time on the host the bounds were set on (2-vCPU Intel
#: Xeon VM at 2.0 GHz, Python 3.11.7, NumPy 2.4.6).
REFERENCE_S = 0.037

_RNG = np.random.default_rng(0)
_WEIGHTS = _RNG.integers(-128, 128, (64, 3, 3, 64))
_IFMAP = _RNG.integers(-128, 128, (64, 16, 16))


class _Event:
    __slots__ = ("t", "kind", "payload")

    def __init__(self, t: float, kind: int, payload: Dict[str, float]) -> None:
        self.t = t
        self.kind = kind
        self.payload = payload


def _event_loop(events: int = 30000) -> float:
    heap: List[tuple] = []
    queues: Dict[int, List[Dict[str, float]]] = {}
    for i in range(64):
        heapq.heappush(heap, (i * 0.37, i, _Event(i * 0.37, i % 3, {"id": i})))
    now = 0.0
    for seq in range(64, 64 + events):
        now, _, event = heapq.heappop(heap)
        queue = queues.setdefault(event.kind, [])
        queue.append(event.payload)
        if len(queue) > 4:
            queue.pop(0)
        payload = {"id": seq, "w": now * 0.5}
        heapq.heappush(heap, (now + 1.0 + (seq % 7) * 0.13, seq, _Event(now, seq % 3, payload)))
    return now


def _array_ops(steps: int = 200) -> int:
    acc = 0
    for k in range(steps):
        padded = np.zeros((64, 18, 18), dtype=np.int64)
        padded[:, 1:17, 1:17] = _IFMAP
        acc += int((padded[:, k % 16 : k % 16 + 3, :] * 3).sum())
        acc += int((_WEIGHTS[:, :, :, k % 64].sum(axis=(1, 2)) * _IFMAP[:, k % 16, k % 16]).sum())
    return acc


def kernel() -> None:
    _event_loop()
    _array_ops()


def measure() -> float:
    """Seconds one :func:`kernel` run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
