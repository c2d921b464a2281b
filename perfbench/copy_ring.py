"""``copy_ring``: one process streams ``amemcpy``s into a ring of slots.

A single simulated process copies seeded 16–64 KB chunks of a random
source pool into a ring of ``RING_SLOTS`` 64 KB destination slots.
Before it reuses a slot it csyncs that slot and checks its bytes against
the chunk it copied there; after the last op it csyncs and checks every
slot still holding an unchecked copy (after one ``csync_all``).  Submission costs far fewer
simulated cycles than a copy, so the backlog of unfinished copies (the
client's ``task_index``) stays near the ring size and every csync walks
it.  The first pass over the ring is the warm-up; the measured ops are
the ``MEASURED_OPS`` copies after it.

The seed picks the order of the size ladder, the source offsets and the
pool bytes; every seed copies the same multiset of sizes.  An op's
simulated latency runs from its submission to its retirement (the
``on_retire`` hook of ``CopierClient.amemcpy``).
"""

from repro.kernel.system import System

from workload import Workload

RING_SLOTS = 1024
SLOT_BYTES = 64 * 1024
SIZES = tuple(range(16 * 1024, 64 * 1024 + 1, 4 * 1024))
MEASURED_OPS = RING_SLOTS
POOL_BYTES = 1 << 20
#: Measured ops between host-time marks (``ops_per_s`` windows).
MARK_EVERY = 128
RUN_LIMIT = 50_000_000_000


class CopyRing(Workload):
    name = "copy_ring"
    loop = "closed loop, 1 client, %d-slot ring" % RING_SLOTS
    slo_limit_cycles = 4_000_000

    def setup(self):
        rng = self.rng
        frames = (RING_SLOTS * SLOT_BYTES + 2 * POOL_BYTES) // 4096 + 4096
        system = self.system = System(n_cores=4, copier=True,
                                      phys_frames=frames)
        self.add_machine(system)
        proc = self.proc = system.create_process("ring")
        self.trace_process(system, proc)
        self.pool = self.random_bytes(POOL_BYTES)
        self.pool_va = proc.mmap(POOL_BYTES, populate=True)
        proc.write(self.pool_va, self.pool)
        self.ring_va = proc.mmap(RING_SLOTS * SLOT_BYTES, populate=True)
        n_ops = RING_SLOTS + MEASURED_OPS
        sizes = list(SIZES) * (n_ops // len(SIZES) + 1)
        rng.shuffle(sizes)
        self.ops = [(size, rng.randrange(POOL_BYTES - size))
                    for size in sizes[:n_ops]]
        self.submitted_at = [None] * n_ops
        self.retired = [None] * n_ops
        self.slot_op = [None] * RING_SLOTS
        run = self.traced(system, self._stream, "bench.ring")
        warm = proc.spawn(run(0, RING_SLOTS), affinity=0)
        system.env.run_until(warm.terminated, limit=RUN_LIMIT)

    def measure(self):
        system, env = self.system, self.system.env
        start = env.now
        run = self.traced(system, self._stream, "bench.ring")
        proc = self.proc.spawn(run(RING_SLOTS, len(self.ops), drain=True),
                               affinity=0)
        env.run_until(proc.terminated, limit=RUN_LIMIT)
        self.sim_cycles = env.now - start
        for i in range(RING_SLOTS, len(self.ops)):
            self.attempted += 1
            outcome = self.retired[i]
            if outcome is None or outcome[0] != "done":
                self.failed += 1
            else:
                self.latencies.append(outcome[1] - self.submitted_at[i])

    def _stream(self, first, stop, drain=False):
        client = self.proc.client
        env = self.system.env
        tracer = self.tracer
        for i in range(first, stop):
            if drain and (i - first) % MARK_EVERY == 0:
                self.mark(i - first)
            if tracer is not None:
                tracer.set_op(i)
            slot = i % RING_SLOTS
            dst = self.ring_va + slot * SLOT_BYTES
            if self.slot_op[slot] is not None:
                yield from self._check_slot(slot)
            size, offset = self.ops[i]
            self.submitted_at[i] = env.now
            yield from client.amemcpy(dst, self.pool_va + offset, size,
                                      on_retire=self._on_retire(i))
            self.slot_op[slot] = i
        if drain:
            self.mark(stop - first)
            yield from client.csync_all()
            for slot in range(RING_SLOTS):
                if self.slot_op[slot] is not None:
                    self._verify_slot(slot)

    def _check_slot(self, slot):
        """csync a slot, then compare it with the copy last sent there."""
        size = self.ops[self.slot_op[slot]][0]
        yield from self.proc.client.csync(self.ring_va + slot * SLOT_BYTES,
                                          size)
        self._verify_slot(slot)

    def _verify_slot(self, slot):
        size, offset = self.ops[self.slot_op[slot]]
        dst = self.ring_va + slot * SLOT_BYTES
        if self.proc.read(dst, size) != self.pool[offset:offset + size]:
            self.mismatches += 1
        self.slot_op[slot] = None

    def _on_retire(self, i):
        env = self.system.env

        def hook(_task, outcome):
            self.retired[i] = (outcome, env.now)
        return hook

    def teardown(self):
        self.shutdown_copier(self.system)
