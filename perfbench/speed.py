"""Same-core speed sampling, which takes the host's speed swings out of the times.

On a shared host the CPU the benchmark gets runs at a speed that swings by
up to a factor of two, in phases of seconds to hours. The load average does
not show it, and CPU time swings with it, so neither takes it out. While a
child runs, the parent (pinned to the
same CPU) wakes every ``INTERVAL_S`` and times ``probe``, a fixed piece of
pure-Python graph and allocation work of about a millisecond. The child's
time is then scaled to the reference speed: multiplied by the mean of
``REFERENCE_MS / probe_ms`` over the samples, which is the mean speed
relative to the reference over the child's lifetime. A slow sample from a
probe that was itself preempted barely moves a mean of speeds.

On a two-vCPU Intel Xeon VM this cut the variation of ``expand``'s wall time
between repetitions from 9-18% to about 4%, and of ``analyze``'s from 7-10%
to 2-5%.
"""

from __future__ import annotations

import statistics
import time

# Median probe time on a two-vCPU Intel Xeon VM in its fast phase, in ms.
REFERENCE_MS = 0.6
INTERVAL_S = 0.05

# A fixed edge list over 150 nodes, from a linear congruential sequence.
_EDGES = []
_x = 12345
for _ in range(400):
    _x = (1103515245 * _x + 12345) % 2**31
    _a = _x % 150
    _x = (1103515245 * _x + 12345) % 2**31
    _EDGES.append((_a, _x % 150))


def probe() -> float:
    """Seconds a fixed piece of graph, arithmetic and allocation work takes."""
    start = time.perf_counter()
    adj: dict = {}
    for a, b in _EDGES:
        adj.setdefault(a, {})[b] = {"w": 1}
        adj.setdefault(b, {})[a] = {"w": 1}
    seen = {0}
    queue = [0]
    for u in queue:
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    total = 0
    for i in range(1500):
        total += i * i % 7
    rows = [{"a": i, "b": str(i)} for i in range(300)]
    rows.sort(key=lambda r: r["b"])
    return time.perf_counter() - start


class Sampler:
    """Probe times taken while one child runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(probe())

    @property
    def spent_s(self) -> float:
        return sum(self.samples)

    def speed(self) -> float:
        """Mean speed over the samples relative to the reference speed."""
        return statistics.fmean(REFERENCE_MS / (1000 * s) for s in self.samples)


def probe_ms() -> float:
    """Median of 30 probe times now, in ms."""
    return 1000 * statistics.median(probe() for _ in range(30))
