"""A fixed pure-Python loop that gauges how fast the machine runs Python right now.

On a shared host the speed of the same interpreter code drifts (on the
2-core box this was built on: ±20% over minutes, 25% between neighbouring
seconds).  The benchmark runs one `chunk()` after every request and before
every start, outside the timed intervals, and scales each pass's times by
REFERENCE_CHUNK_S / (mean chunk time in that pass).  Times are therefore
reported in reference seconds: the seconds they would take when a chunk
takes REFERENCE_CHUNK_S.  The chunk never touches ssrank, so a change to
the code under test cannot move it.
"""

from __future__ import annotations

from time import perf_counter

# Mean chunk time on the box the benchmark was built on (Xeon, CPython 3.11.7).
REFERENCE_CHUNK_S = 0.00078


def chunk() -> float:
    """Seconds taken by a fixed loop of dict stores and integer arithmetic."""
    t0 = perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(5000):
        table[i & 255] = acc
        acc += (i * i) % 7
    return perf_counter() - t0


def speed_factor(chunk_times) -> float:
    """Multiplier that turns seconds measured alongside these chunks into reference seconds."""
    times = list(chunk_times)
    return REFERENCE_CHUNK_S * len(times) / sum(times)
