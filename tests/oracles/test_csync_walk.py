"""Differential test: csync's last-writer map against the full-history walk.

A seeded Hypothesis state machine drives one client through its API —
``amemcpy`` with overlapping and recycled destinations, lazy copies,
deadlines and shed (synchronously executed) copies, ``csync`` (with and
without a deadline), ``csync_all``, ``abort``, ``cancel``, and an
``munmap`` of a destination buffer while copies into it are in flight
(EFAULT).  Every readiness evaluation the
client makes, the fast check and each spin of the slow path, is compared
against :func:`tests.oracles.csync_walk.range_ready` run over the whole
submission history: both must return the same ``True``/``False`` or raise
the same exception type.  After every step ``task_index`` must hold
exactly the unfinished tasks, in submission order, and the writer map
must be disjoint and free of DONE tasks.
"""

from collections import Counter

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from repro.copier import task as task_mod
from repro.copier.errors import CopyAborted, DeadlineMissed
from repro.copier.task import CopyTask, Region
from repro.sim import Timeout
from tests.copier.conftest import Setup
from tests.copier.test_admission import ShedEverything
from tests.oracles.csync_walk import (assert_writer_map_sound, outcome,
                                      range_ready)

SLOT = 512
N_SLOTS = 12
BUF = SLOT * N_SLOTS
STEP_LIMIT = 50_000_000  # cycles any one step may take

#: Readiness outcomes seen across the whole run (the coverage check).
SEEN = Counter()

_slot = st.integers(min_value=0, max_value=N_SLOTS - 1)
_span = st.integers(min_value=1, max_value=4)
_trim = st.sampled_from([0, 0, 100])
_buf = st.sampled_from(["dst", "dst", "victim"])


class ShedWrite:
    """History entry for a shed copy: its bytes landed at submission."""

    state = task_mod.DONE
    is_finished = True
    segments_covering = CopyTask.segments_covering

    def __init__(self, dst, descriptor):
        self.dst = dst
        self.descriptor = descriptor


class CsyncOracleMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # Pin the admission policy: the shed rule switches it explicitly.
        self.setup = Setup(admission="always")
        self.client = client = self.setup.client
        aspace = self.setup.aspace
        self.src = aspace.mmap(BUF, populate=True)
        aspace.write(self.src, bytes(i % 251 for i in range(BUF)))
        self.bufs = {"dst": aspace.mmap(BUF, populate=True),
                     "victim": aspace.mmap(BUF, populate=True)}
        self.victim_mapped = True
        self.history = []
        real = client._range_ready

        def checked(region):
            expect = outcome(range_ready, self.history, region)
            try:
                ready = real(region)
            except CopyAborted as exc:
                SEEN[type(exc).__name__] += 1
                assert expect == ("raise", type(exc)), (region, expect)
                raise
            SEEN[ready] += 1
            assert expect == ("ok", ready), (region, expect)
            return ready

        client._range_ready = checked

    def _run(self, gen):
        env = self.setup.env
        proc = env.spawn(gen, name="app", affinity=0)
        env.run_until(proc.terminated, limit=env.now + STEP_LIMIT)
        return proc.result

    def _range(self, buf, slot, span, trim):
        start = self.bufs[buf] + slot * SLOT + trim
        end = self.bufs[buf] + min(N_SLOTS, slot + span) * SLOT
        return start, end - start

    @rule(buf=_buf, slot=_slot, span=_span, trim=_trim,
          src_slot=_slot, lazy=st.booleans(),
          deadline=st.sampled_from([None, None, None, 3_000, 60_000]),
          seg=st.sampled_from([None, 256, 1024]),
          shed=st.sampled_from([False, False, False, True]))
    def amemcpy(self, buf, slot, span, trim, src_slot, lazy, deadline,
                seg, shed):
        va, n = self._range(buf, slot, span, trim)
        src = self.src + min(src_slot * SLOT, BUF - n)
        env, client = self.setup.env, self.client
        due = None if deadline is None else env.now + deadline
        admission = self.setup.service.admission
        policy = admission.policy
        if shed:  # sheds when legal: not lazy, no overlapping in-flight work
            admission.policy = ShedEverything()
        sheds = client.stats.shed_tasks

        def gen():
            return (yield from client.amemcpy(va, src, n, lazy=lazy,
                                              deadline=due,
                                              segment_bytes=seg))

        try:
            descriptor = self._run(gen())
        finally:
            admission.policy = policy
        if client.stats.shed_tasks > sheds:
            SEEN["shed"] += 1
            self.history.append(ShedWrite(Region(self.setup.aspace, va, n),
                                          descriptor))
        else:
            assert descriptor.owner is not None
            self.history.append(descriptor.owner)

    @rule(buf=_buf, slot=_slot, span=_span, trim=_trim,
          deadline=st.sampled_from([None, None, 2_000]))
    def csync(self, buf, slot, span, trim, deadline):
        va, n = self._range(buf, slot, span, trim)
        env, client = self.setup.env, self.client
        due = None if deadline is None else env.now + deadline

        def gen():
            try:
                yield from client.csync(va, n, deadline=due)
            except (CopyAborted, DeadlineMissed):
                pass

        self._run(gen())

    @rule()
    def csync_all(self):
        self._run(self.client.csync_all())

    @rule(buf=_buf, slot=_slot, span=_span)
    def abort(self, buf, slot, span):
        va, n = self._range(buf, slot, span, 0)
        self._run(self.client.abort(va, n))

    @rule(buf=_buf, slot=_slot, span=_span)
    def cancel(self, buf, slot, span):
        va, n = self._range(buf, slot, span, 0)
        self._run(self.client.cancel(va, n))

    @rule(cycles=st.sampled_from([500, 5_000, 50_000]))
    def advance(self, cycles):
        def gen():
            yield Timeout(cycles)

        self._run(gen())

    @precondition(lambda self: self.victim_mapped)
    @rule()
    def munmap_victim(self):
        self.setup.aspace.munmap(self.bufs["victim"], BUF)
        self.victim_mapped = False

    @invariant()
    def index_holds_exactly_the_unfinished_tasks(self):
        assert list(self.client.task_index) == [
            t for t in self.history if not t.is_finished]

    @invariant()
    def writer_map_sound(self):
        assert_writer_map_sound(self.client)

    @invariant()
    def whole_buffer_agrees(self):
        for buf in ("dst", "victim"):
            region = Region(self.setup.aspace, self.bufs[buf], BUF)
            try:
                self.client._range_ready(region)
            except CopyAborted:
                pass

    def teardown(self):
        report = self.setup.service.shutdown()
        assert report["leaked_pins"] == 0


def test_writer_map_matches_full_history_walk():
    SEEN.clear()
    run_state_machine_as_test(
        CsyncOracleMachine,
        settings=settings(max_examples=200, stateful_step_count=20,
                          deadline=None, derandomize=True, database=None,
                          suppress_health_check=[HealthCheck.too_slow]))
    # The run must have exercised every answer csync can give.
    for answer in (True, False, "CopyAborted", "TaskEFault", "shed"):
        assert SEEN[answer] > 0, (answer, dict(SEEN))
