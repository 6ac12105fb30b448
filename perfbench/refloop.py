"""Reference loop that calibrates timings against machine drift.

On a shared machine the same pass can take 15-30% longer from one minute
to the next, for reasons outside the program: other tenants, CPU
frequency, memory bandwidth. The reference loop is a fixed amount of work
of the two kinds the workloads do, timed separately:

* ``python_s``: bytecode, dict and list traffic, and many numpy calls on
  tiny arrays, the shape of scoring, assignment and pairing;
* ``memory_s``: fresh allocations and streaming passes over arrays of
  tens of MB, the shape of dense grid encoding and TMLF I/O.

The two do not slow down together: interpreter work follows the CPU
clock, array streaming follows memory bandwidth. So each pass is scaled
by the slowdown of each part, measured just before and just after it,
weighted by the share of the pass that does that kind of work (a
property of the workload, from its traced layer profile).

The loop belongs to the benchmark, never to the program, so no change to
``src/`` can move it. ``NOMINAL_S`` holds constants, so corrected times
stay comparable between commits; they are the median part times over 382
loops on a 2-CPU x86-64 container (Python 3.11, numpy 2.4) and are not
re-measured.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = {"python_s": 0.18, "memory_s": 0.12}


def _python_work() -> float:
    acc = 0
    table: dict[int, int] = {}
    items: list[int] = []
    for i in range(400_000):
        k = i % 97
        table[k] = table.get(k, 0) + i
        acc += (i * 7) % 13
        if k == 0:
            items.append(acc)
    u = (np.arange(20, dtype=np.float64) + 0.5) / 20.0
    pts = np.empty((20, 2))
    grid = np.zeros((64, 64, 2))
    direction = np.array([0.6, 0.8])
    total = float(acc + len(items) + table[5])
    for i in range(2_500):
        pts[:, 0] = (1.0 - u) * (i % 60) + u * 3.0
        pts[:, 1] = (1.0 - u) * 7.0 + u * (i % 50)
        ix = np.clip(np.rint(pts[:, 0]).astype(np.int64), 0, 63)
        iy = np.clip(np.rint(pts[:, 1]).astype(np.int64), 0, 63)
        total += float(np.sum(grid[iy, ix] @ direction))
    return total


def _memory_work() -> float:
    total = 0.0
    for i in range(3):
        sums = np.zeros((4, 480, 640, 2))
        counts = np.zeros((4, 480, 640), dtype=np.int32)
        counts[:, ::3, ::2] = i + 1
        sums[:, ::3, ::2, 0] = 1.5
        nz = counts > 0
        means = np.zeros(sums.shape)
        means[nz] = sums[nz] / counts[nz][:, None]
        total += float(means[..., 0].sum())
    return total


def reference_loop() -> dict[str, float]:
    """Run the fixed reference work once; return each part's time in seconds."""
    t0 = time.perf_counter()
    _python_work()
    t1 = time.perf_counter()
    _memory_work()
    t2 = time.perf_counter()
    return {"python_s": t1 - t0, "memory_s": t2 - t1}


def slowdown(before: dict, after: dict, memory_share: float) -> float:
    """How many times slower than nominal the machine ran around a pass."""

    def part(key: str) -> float:
        return (before[key] + after[key]) / 2.0 / NOMINAL_S[key]

    return (1.0 - memory_share) * part("python_s") + memory_share * part("memory_s")


def corrected(raw_s: float, before: dict, after: dict, memory_share: float) -> float:
    """A raw time scaled to the nominal machine speed."""
    return raw_s / slowdown(before, after, memory_share)
