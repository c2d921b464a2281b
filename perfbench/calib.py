"""Host-speed calibration for the host-time metrics.

The host's speed drifts: on a shared 2-vCPU VM the same round runs up
to 30% faster or slower from one minute to the next, which no amount of
repetition inside a 30-second run averages out.  ``run.py`` therefore
times a fixed pure-Python loop (:class:`Calibrator`) next to every
host-time measurement and scales the measurement to a host that runs
that loop at ``REFERENCE_SPEED`` iterations per second.  The loop does
what the simulator does most — chases pointers through a heap larger
than the caches, looks up dicts, resumes generators and allocates small
objects — so it slows down when the simulator does.  It shares no code
with ``src/``, so a change that speeds up the simulator moves the scaled
numbers exactly as it moves the raw ones.
"""

import random
import time

#: Iterations per second of the loop on the reference host.
REFERENCE_SPEED = 400_000.0

#: Iterations per reading (about 15 ms on the reference host).
ITERATIONS = 6000

_NODES = 100_000


class _Node:
    __slots__ = ("key", "next")

    def __init__(self, key):
        self.key = key
        self.next = None


def _count(n):
    for i in range(n):
        yield i


class Calibrator:
    """The calibration loop's heap, built once per run."""

    def __init__(self):
        rng = random.Random(0)
        nodes = [_Node(i) for i in range(_NODES)]
        order = list(range(_NODES))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            nodes[a].next = nodes[b]
        self.table = {(i * 2654435761) & 0xFFFFFFFF: node
                      for i, node in enumerate(nodes)}
        self.keys = list(self.table)
        self.head = nodes[order[0]]

    def speed(self):
        """Iterations per host second of the calibration loop, right now."""
        table, keys, head = self.table, self.keys, self.head
        node = head
        work = 0
        t0 = time.perf_counter()
        for _ in range(ITERATIONS):
            node = node.next or head
            entry = table[keys[node.key]]
            for step in _count(4):
                work += step
            work += len({"a": [entry.key, work], "b": node})
        return ITERATIONS / (time.perf_counter() - t0)

    def scale(self, before, after):
        """Factor taking a rate measured between two :meth:`speed`
        readings to the reference host."""
        return REFERENCE_SPEED / ((before + after) / 2.0)
