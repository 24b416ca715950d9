"""Host-speed calibration: fixed reference kernels timed between operations.

The benchmark was sized on a 2-CPU virtual machine shared with other
tenants.  Their load slowed the same operation by up to 75% for minutes at
a time, so raw wall times swung more between runs than any bound a
regression check could use (interquartile range up to 0.3 of the median
over ten runs).  Each measured pass therefore times two small kernels
between its operations, and the run reports every duration scaled by
``REFERENCE_S[kind] / median(kernel time)`` for the kernel of the same kind
of work: milliseconds on a host running at the reference speed.  The raw
figures are printed alongside.

* ``interp`` — a reverse breadth-first search drawing coins node by node,
  then JSON encoding: interpreter work and small NumPy calls, like the
  scalar samplers, the selection loop and the request paths;
* ``array`` — passes over a dense boolean matrix larger than the caches
  and a large sort: memory-bound NumPy work, like the batched samplers.

Contention slows these two kinds of work by different amounts, so one
kernel cannot stand in for both.  The kernels import nothing from ``src/``,
so no change to the program can make them faster.
"""

from __future__ import annotations

import gc
import statistics
import json
import time
from typing import Dict, List

import numpy as np

#: median kernel times on the 2-CPU host the benchmark was sized on, when
#: quiet: reported durations are close to raw ones there
REFERENCE_S: Dict[str, float] = {"interp": 0.022, "array": 0.044}

_NODES, _DEGREE = 4_000, 4
#: back-to-back runs of each kernel per sample
_TRIES = 3


def _graph():
    rng = np.random.default_rng(20_200_817)
    sources = rng.integers(0, _NODES, size=(_NODES, _DEGREE))
    probs = np.full(_DEGREE, 1.0 / _DEGREE)
    return [sources[v] for v in range(_NODES)], probs


def _interp(sources, probs) -> None:
    rng = np.random.default_rng(7)
    for root in range(0, _NODES, 40):  # reverse BFS, one coin draw per node
        visited, queue = {root}, [root]
        while queue:
            node = queue.pop()
            hits = sources[node][rng.random(_DEGREE) < probs]
            for source in hits.tolist():
                if source not in visited:
                    visited.add(source)
                    queue.append(source)
    json.loads(json.dumps([{"id": i, "budgets": {"i": i % 50, "j": 7}}
                           for i in range(2_000)]))  # protocol-sized JSON


def _array(mask: np.ndarray, keys: np.ndarray) -> None:
    visited = mask.copy()
    for _ in range(3):  # visited-matrix passes, as in the batched BFS
        rows, cols = np.nonzero(visited)
        visited[rows[::5], (cols[::5] + 1) % visited.shape[1]] = True
    np.argsort(keys, kind="stable")


class Calibrator:
    """Times both kernels on demand and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20_200_818)
        self._graph = _graph()
        self._arrays = (rng.random((48, 40_000)) < 0.02,
                        rng.integers(0, 1 << 30, 120_000))
        self.samples: Dict[str, List[float]] = {"interp": [], "array": []}
        self._run()  # warm caches and the allocator
        self.samples = {"interp": [], "array": []}

    def _run(self) -> None:
        for kind, kernel, args in (("interp", _interp, self._graph),
                                   ("array", _array, self._arrays)):
            times = []
            for _ in range(_TRIES):
                started = time.perf_counter()
                kernel(*args)
                times.append(time.perf_counter() - started)
            # contention only ever adds time: the fastest try is the
            # steadiest reading of the host's current speed
            self.samples[kind].append(min(times))

    def sample(self) -> None:
        # no collections inside the timing: their cost grows with the
        # program's live objects, which would leak into the reference
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._run()
        finally:
            if enabled:
                gc.enable()

    def factor(self, kind: str) -> float:
        """Durations of ``kind`` work times this read as at the reference
        speed."""
        return REFERENCE_S[kind] / statistics.median(self.samples[kind])
