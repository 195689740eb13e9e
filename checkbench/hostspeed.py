"""Host-speed probes, so that wall times from a drifting host compare.

A shared host runs the same work at different speeds from minute to
minute: on one 2-CPU host a cold Property I BMC pass took 24.4 s and,
half an hour later, 33.3 s; the buggy-core Property II pass read 11.5 s
and 8.6 s as the medians of two sets of five runs.  So each measured
unit of work (a set-up, one property of the cold pass, a re-check) is
bracketed by short probes, and a timer runs one more every
:data:`INTERVAL_S` inside it.  A probe is a fixed pure-Python BDD
computation that shares no code with the program, run with the cyclic
GC paused so the program's heap cannot slow it.  A unit's time is
reported in *reference-host seconds*: its wall seconds, less the time
its inside probes took, times the ratio of :data:`REFERENCE_PROBE_S` to
the mean of its probes raised to :data:`ELASTICITY`.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from typing import List

#: Median probe time over 235 probes on the reference host (2-CPU
#: x86_64 VM, Python 3.11.7): a unit probed at this speed reports its
#: wall seconds.
REFERENCE_PROBE_S = 0.0135

#: How much slower the program runs when the probe runs slower: the
#: slope of log wall time on log mean probe time of the cold pass, over
#: 20 runs of each workload on the reference host while its speed swung
#: 1.9x (0.76 on ste-p2, 0.87 on bmc-p1, 0.83 on bug-recheck;
#: correlation 0.95 to 0.996): the probe slows more than the program
#: does when the host slows.
ELASTICITY = 0.8

#: Seconds between the probes a timer takes inside a unit (one probe
#: costs about 3% of that).
INTERVAL_S = 0.5


def _bdd_workload(nvars: int = 20, nclauses: int = 70, seed: int = 7) -> int:
    """Conjoin seeded random 3-clauses in a dict-based ROBDD."""
    rng = random.Random(seed)
    unique = {}
    nodes = [(nvars, 0, 0), (nvars, 1, 1)]

    def mk(var, low, high):
        if low == high:
            return low
        key = (var, low, high)
        node = unique.get(key)
        if node is None:
            node = unique[key] = len(nodes)
            nodes.append(key)
        return node

    memo = {}

    def conj(f, g):
        if f == 0 or g == 0:
            return 0
        if f == 1:
            return g
        if g == 1 or f == g:
            return f
        if f > g:
            f, g = g, f
        hit = memo.get((f, g))
        if hit is not None:
            return hit
        vf, lf, hf = nodes[f]
        vg, lg, hg = nodes[g]
        var = min(vf, vg)
        f0, f1 = (lf, hf) if vf == var else (f, f)
        g0, g1 = (lg, hg) if vg == var else (g, g)
        out = memo[(f, g)] = mk(var, conj(f0, g0), conj(f1, g1))
        return out

    f = 1
    for _ in range(nclauses):
        clause = 0
        for var in sorted(rng.sample(range(nvars), 3), reverse=True):
            clause = mk(var, clause, 1) if rng.random() < 0.5 \
                else mk(var, 1, clause)
        f = conj(f, clause)
    return len(nodes)


def probe() -> float:
    """Seconds one probe takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _bdd_workload()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Phase:
    """Wall times of consecutive units of work, each with the probes
    taken before, during and after it.  Use as a context manager; with
    *probing* off (the traced run keeps its region free of benchmark
    work) no probe runs and times stay in wall seconds."""

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.walls: List[float] = []
        #: per unit: its probe times (before, the timer's, after)
        self.samples: List[List[float]] = []
        self._inside: List[float] = []
        self._stolen = 0.0
        self._busy = False
        self._before = 0.0
        self._handler = None

    def __enter__(self) -> "Phase":
        if self.probing:
            self._before = probe()
            self._handler = signal.signal(signal.SIGALRM, self._tick)
            # Restart interrupted system calls (sqlite's I/O) instead of
            # failing them with EINTR.
            signal.siginterrupt(signal.SIGALRM, False)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._handler)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        t0 = time.perf_counter()
        self._inside.append(probe())
        self._stolen += time.perf_counter() - t0

    def lap(self) -> None:
        """Close the current unit and start the next."""
        self.walls.append(time.perf_counter() - self._t0 - self._stolen)
        if self.probing:
            self._busy = True
            after = probe()
            self._busy = False
            self.samples.append([self._before, *self._inside, after])
            self._before = after
            self._inside = []
        self._stolen = 0.0
        self._t0 = time.perf_counter()

    def scaled(self) -> List[float]:
        """Each unit's time in reference-host seconds (wall seconds
        when not probing)."""
        if not self.probing:
            return list(self.walls)
        return [wall * (REFERENCE_PROBE_S * len(probes) / sum(probes))
                ** ELASTICITY
                for wall, probes in zip(self.walls, self.samples)]
