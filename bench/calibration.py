"""A fixed loop that measures how fast the host runs this process right now.

The benchmark shares a few cores of its host with other tenants, which slow
this process by up to 1.8x for seconds to minutes at a time while its CPU
time still equals its wall time. ``calibration_loop`` does a small, fixed
amount of the kind of work dppdml's hot paths do: component scans of a
graph in pure Python, as ``kappa_upper`` makes, and products of small
numpy arrays, as training makes. It calls no dppdml code, so a change to
the program cannot move it; only the host can.

``host_speed`` turns the fastest loop time of a run into the share of the
reference speed the host gave the run: 1 on the quiet reference host,
below 1 on a busy one.
"""

from __future__ import annotations

import random
import time

import numpy as np

#: Fastest time of one ``calibration_loop`` on a quiet 2-vCPU Intel Xeon
#: at 2.1 GHz (CPython 3.11, numpy 2.4 with OpenBLAS), over a few hundred
#: loops.
REFERENCE_S = 0.0053


def _graph(nodes: int = 400, degree: int = 4) -> list[list[int]]:
    rnd = random.Random(7)
    adj: list[set[int]] = [set() for _ in range(nodes)]
    for u in range(nodes):
        for _ in range(degree // 2):
            v = rnd.randrange(nodes)
            if v != u:
                adj[u].add(v)
                adj[v].add(u)
    return [sorted(a) for a in adj]


_ADJ = _graph()
_X = np.linspace(0.0, 1.0, 200).reshape(100, 2)


def calibration_loop() -> float:
    """Wall time of one pass of the fixed loop, in seconds."""
    start = time.perf_counter()
    n = len(_ADJ)
    for skip in range(0, n, 5):
        # count the components left when node ``skip`` is removed
        seen = [False] * n
        seen[skip] = True
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            stack = [root]
            while stack:
                for v in _ADJ[stack.pop()]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
    w = np.eye(2)
    for _ in range(50):
        w = w - 0.01 * (_X @ w).T @ _X / len(_X)
    return time.perf_counter() - start


def host_speed(loop_times: list[float]) -> float:
    """Reference loop time over the fastest loop time of a run."""
    return REFERENCE_S / min(loop_times)
