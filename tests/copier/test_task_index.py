"""``CopierClient`` per-submission bookkeeping stays current without prunes.

``task_index`` holds exactly the unfinished tasks and the last-writer map
holds each destination byte's newest unretired writer; both are updated at
submission and at retirement.  These tests pin the invariants that make
csync cost independent of backlog depth: a client that submits forever
without csyncing keeps no finished task indexed and no DONE writer mapped,
the map stays disjoint, and an aborted range keeps raising at csync however
many unrelated csyncs come between.
"""

import pytest

from repro.copier import task as task_mod
from repro.copier.deps import LastWriterMap
from repro.copier.errors import CopyAborted
from repro.copier.task import Region
from repro.sim import Timeout
from tests.copier.conftest import Setup
from tests.copier.test_admission import ShedEverything
from tests.oracles.csync_walk import assert_writer_map_sound

N_TASKS = 10_000


def test_no_finished_task_indexed_across_10k_submissions():
    setup = Setup()
    client, aspace = setup.client, setup.aspace
    src = aspace.mmap(4096, populate=True)
    dst = aspace.mmap(4096, populate=True)

    def gen():
        for i in range(N_TASKS):
            # Eight overlapping 256-byte destinations, recycled round-robin.
            yield from client.amemcpy(dst + (i % 8) * 128, src, 256)
            if i % 512 == 511:
                # Never csync — just pause so the service drains the ring.
                assert all(not t.is_finished for t in client.task_index)
                assert_writer_map_sound(client)
                yield Timeout(50_000)

    setup.run_process(gen(), limit=500_000_000)
    setup.env.run(until=setup.env.now + 1_000_000)
    assert client.stats.submitted == N_TASKS
    assert client.stats.completed > 0
    assert all(not t.is_finished for t in client.task_index)
    assert_writer_map_sound(client)
    if not client.task_index:
        assert client.writers.intervals() == []


def test_aborted_range_still_raises_after_many_unrelated_csyncs():
    setup = Setup()
    client, aspace = setup.client, setup.aspace
    src = aspace.mmap(64 * 1024, populate=True)
    dst = aspace.mmap(64 * 1024, populate=True)
    victim = aspace.mmap(4096, populate=True)

    def gen():
        # A lazy copy waits for its period; the abort discards it unrun.
        yield from client.amemcpy(victim, src, 4096, lazy=True)
        yield from client.abort(victim, 4096)
        yield Timeout(20_000)
        for i in range(100):
            yield from client.amemcpy(dst + (i % 64) * 1024, src, 1024)
        for i in range(100):
            yield from client.csync(dst + (i % 64) * 1024, 1024)
        with pytest.raises(CopyAborted):
            yield from client.csync(victim, 4096)

    setup.run_process(gen())
    assert client.stats.aborted == 1


def test_newer_submission_covers_an_aborted_range():
    setup = Setup()
    client, aspace = setup.client, setup.aspace
    src = aspace.mmap(4096, populate=True)
    dst = aspace.mmap(4096, populate=True)
    aspace.write(src, bytes(range(256)) * 16)

    def gen():
        yield from client.amemcpy(dst, src, 4096, lazy=True)
        yield from client.abort(dst, 4096)
        yield Timeout(20_000)
        with pytest.raises(CopyAborted):
            yield from client.csync(dst + 1024, 1024)
        # Re-copying part of the range retires the aborted writer there.
        yield from client.amemcpy(dst, src, 2048)
        yield from client.csync(dst, 2048)
        with pytest.raises(CopyAborted):
            yield from client.csync(dst + 2048, 1)

    setup.run_process(gen())
    assert aspace.read(dst, 2048) == aspace.read(src, 2048)


def test_shed_copy_supersedes_an_aborted_range():
    setup = Setup(admission=ShedEverything())
    client, aspace = setup.client, setup.aspace
    src = aspace.mmap(4096, populate=True)
    dst = aspace.mmap(4096, populate=True)
    aspace.write(src, bytes(range(256)) * 16)

    def gen():
        yield from client.amemcpy(dst, src, 4096, lazy=True)  # never shed
        yield from client.abort(dst, 4096)
        yield Timeout(20_000)
        yield from client.amemcpy(dst, src, 1024)  # shed: no in-flight overlap
        assert client.stats.shed_tasks == 1
        yield from client.csync(dst, 1024)
        with pytest.raises(CopyAborted):
            yield from client.csync(dst + 1024, 1024)

    setup.run_process(gen())
    assert aspace.read(dst, 1024) == aspace.read(src, 1024)


def test_sweep_retires_filled_tasks_in_pending_order():
    setup = Setup()
    # Gate the service so only this test moves tasks along.
    setup.service.polling = "scenario"
    setup.service.scenario_active = False
    client, aspace = setup.client, setup.aspace
    src = aspace.mmap(4096, populate=True)
    dst = aspace.mmap(4096, populate=True)
    retired = []

    def gen():
        for i in range(4):
            yield from client.amemcpy(
                dst + i * 1024, src, 1024,
                on_retire=lambda task, outcome: retired.append(task))

    setup.run_process(gen())
    setup.service.executor.ingest(client)
    tasks = list(client.pending)
    assert len(tasks) == 4
    for task in (tasks[2], tasks[3], tasks[1]):  # out of order; not the first
        task.descriptor.mark_range(0, task.descriptor.n_segments - 1)
    setup.service.completion.sweep(client)
    assert retired == tasks[1:]
    assert list(client.task_index) == tasks[:1]
    assert client.filled == []
    assert [i[3] for i in client.writers.intervals()] == tasks[:1]


class _Space:
    def __init__(self, asid):
        self.asid = asid


class _Task:
    def __init__(self, aspace, start, end):
        self.dst = Region(aspace, start, end - start)
        self.state = task_mod.PENDING


def test_writer_map_claim_trims_and_release_drops():
    space, other = _Space(1), _Space(2)
    writers = LastWriterMap()
    old = _Task(space, 0, 100)
    new = _Task(space, 20, 30)
    far = _Task(other, 20, 30)
    writers.claim(old.dst, 1, old)
    writers.claim(new.dst, 2, new)
    writers.claim(far.dst, 3, far)
    assert writers.intervals() == [(1, 0, 20, old), (1, 20, 30, new),
                                   (1, 30, 100, old), (2, 20, 30, far)]
    assert [p[:3] for p in writers.overlapping(Region(space, 10, 40))] == [
        (10, 20, 1), (20, 30, 2), (30, 50, 1)]
    writers.release(old)
    assert writers.intervals() == [(1, 20, 30, new), (2, 20, 30, far)]
    # A writer whose bytes are already in place only trims.
    writers.claim(Region(space, 25, 200), 4)
    assert writers.intervals() == [(1, 20, 25, new), (2, 20, 30, far)]
    assert writers.overlapping(Region(space, 25, 0)) == []
    writers.clear()
    assert writers.intervals() == []
