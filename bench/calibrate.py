"""Machine-speed calibration: a fixed pure-Python loop timed next to the ops.

The host shares its cores with other tenants, and its speed for a single
Python process drifts by up to a factor of two over tens of seconds, while
the process stays on the CPU the whole time.  Wall-clock figures of one run
then say more about the neighbours than about the package.  So the benchmark
times :func:`_round`, a fixed loop of the same kind of work the package does
(dicts of sets keyed by small ints, tuple keys, sorts, set intersections),
in a slice right after every op, and divides each op's time by the speed it
saw: the mean round time of the slices just before and just after the op,
relative to :data:`REF_ROUND_S`.  The result is the op's time in reference
seconds (unit ``ref_s``): the time the op would take on a machine where one
round takes :data:`REF_ROUND_S`.  The loop shares no code with the package,
so a change to the package moves the figures and a change of machine speed
does not.
"""

from __future__ import annotations

import time

REF_ROUND_S = 0.0005
"""Seconds per round at the reference speed (a quiet x86-64 core running
CPython 3.11); it only sets the scale of the ``ref_s`` unit."""

SHARE = 0.1
"""Calibration time after an op, as a share of the op's own time."""

MIN_ROUNDS = 2

_EMPTY: frozenset = frozenset()


def _round() -> int:
    adj: dict[int, set[int]] = {}
    for i in range(300):
        u, v = i % 53, (i * 7 + 3) % 89 + 60
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen: dict[tuple[int, int], int] = {}
    for v in sorted(adj, key=lambda x: (len(adj[x]), x)):
        near = adj[v]
        for w in sorted(near):
            key = (v, w) if v < w else (w, v)
            seen[key] = seen.get(key, 0) + len(near & adj.get(w, _EMPTY))
    return len(seen)


class Calibrator:
    """Turns wall seconds into reference seconds, slice by slice."""

    def __init__(self):
        self.prev = self.slice(0.0)

    def slice(self, busy_s: float) -> float:
        """Run rounds for SHARE of ``busy_s`` (MIN_ROUNDS at least) and
        return the mean wall time of one round."""
        clock = time.perf_counter
        rounds = 0
        start = clock()
        while True:
            _round()
            rounds += 1
            spent = clock() - start
            if rounds >= MIN_ROUNDS and spent >= SHARE * busy_s:
                return spent / rounds

    def to_ref(self, wall_s: float) -> float:
        """``wall_s``, just measured, in reference seconds: scaled by the
        speed of the slice before it and of a new slice after it."""
        after = self.slice(wall_s)
        round_s = (self.prev + after) / 2
        self.prev = after
        return wall_s * REF_ROUND_S / round_s
