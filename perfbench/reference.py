"""A fixed piece of pure-Python work that measures the host's speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, and every host time of a run (scenario runs and
set-up alike) drifts with it. The measuring process therefore also times
this reference work between its passes, and the host-time end-to-end
metrics are scaled by ``REFERENCE_S / <measured reference time>``: they
read as seconds on a host that does this work in ``REFERENCE_S``.

The work touches nothing of the program under test, so a change to the
program moves the scaled metrics exactly as it moves the raw ones. It
mixes what the simulator spends its time on: a heap of timed callbacks,
scans of a store of small tuples against templates, and small dicts.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Dict, List, Tuple

#: A typical time of the reference work on a shared 2-vCPU Intel Xeon
#: virtual machine at 2.1 GHz, where it took 0.023 s to 0.041 s depending
#: on the machine's load. It only sets the scale of the scaled metrics.
REFERENCE_S = 0.03


def _work() -> int:
    acc = 0
    heap: List[Tuple[float, int, Callable[[], int]]] = []
    state: Dict[int, int] = {}

    def callback(i: int) -> Callable[[], int]:
        def fire() -> int:
            state[i % 257] = state.get(i % 257, 0) + i
            return i & 7
        return fire

    for i in range(12000):
        heapq.heappush(heap, ((i * 7919) % 10007 * 1e-3, i, callback(i)))
        if len(heap) > 128:
            acc += heapq.heappop(heap)[2]()
    store: List[Tuple[Any, ...]] = [
        ("msg", i % 31, f"room{i % 13}", i * 0.5) for i in range(1500)]
    template = ("msg", None, "room7", None)
    for _ in range(16):
        for candidate in store:
            for pattern, value in zip(template, candidate):
                if pattern is not None and pattern != value:
                    break
            else:
                acc += 1
    for i in range(10000):
        message = {"src": i, "dst": i + 1, "kind": "data", "seq": i & 255}
        acc += len(message) + message["seq"]
    return acc


def reference_sample() -> float:
    """Host seconds for one round of the reference work."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started
