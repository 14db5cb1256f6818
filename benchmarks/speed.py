"""The speed of the machine at the moment, from a fixed reference task.

On a shared host the same op takes 10-60% more or less CPU time from one
minute to the next (other guests share the core, its caches and its
clock), which swamps the differences the benchmark exists to show. The
harness runs a fixed piece of pure-Python work before every timed op,
outside the timed region, and scales the run's times by

    NOMINAL_S / median(reference CPU times of the run)

so a time reads as it would on a machine where the reference takes
NOMINAL_S. The reference does not touch the library: a change to the
library leaves it alone, and the scaled times move with the library's
own speed only. It is set and dict work on a small fixed graph, the kind
of work the library does.
"""

from __future__ import annotations

import random
import statistics
import time

# Reference CPU time that defines the scaled clock: about its median on
# the 2-vCPU x86-64 virtual machine (Python 3.11) the benchmark was built
# on, so scaled times there read close to CPU times.
NOMINAL_S = 0.8e-3


def _graph(n: int = 80, p: float = 0.15) -> dict:
    rng = random.Random(0)
    adj = {v: {v} for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


GRAPH = _graph()


def reference_work() -> int:
    """Domination tests, a sort and pair intersections on GRAPH."""
    nb = {v: frozenset(s) for v, s in GRAPH.items()}
    dominated = [(v, u) for v in nb for u in nb[v]
                 if u != v and nb[v] <= nb[u]]
    order = sorted(nb, key=lambda v: (len(nb[v]), tuple(sorted(nb[v]))))
    pairs = {(u, v): len(nb[u] & nb[v]) for u in order[:40] for v in nb[u]}
    return len(dominated) + len(pairs)


def probe() -> float:
    """CPU seconds of one run of the reference work. A first, untimed run
    loads its data into the caches, so the timed one does not depend on
    what the op before it left there."""
    reference_work()
    t0 = time.process_time()
    reference_work()
    return time.process_time() - t0


def factor(samples) -> float:
    """Scale from CPU seconds to nominal seconds, given reference times."""
    return NOMINAL_S / statistics.median(samples)
