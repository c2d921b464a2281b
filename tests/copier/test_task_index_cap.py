"""Regression test: ``CopierClient.task_index`` stays bounded.

The index exists for csync address lookups, so a client that submits
forever without ever csyncing used to grow it without bound.  The index
now holds exactly the unfinished tasks (retirement removes each one), so
its size tracks the in-flight backlog, never the submission count, and
nothing still running is ever dropped from it.
"""

import pytest

from repro.sim import Timeout
from tests.copier.conftest import Setup

N_TASKS = 10_000

#: The bound the index was held to when finished entries were pruned at
#: a fixed cap; removal at retirement must keep it at least this tight.
INDEX_BOUND = 2048


# The bound only covers a service that keeps up; under injected faults it
# legitimately lags with more unfinished tasks in flight.
@pytest.mark.faultfree
def test_index_bounded_across_10k_submissions():
    setup = Setup()
    client, aspace = setup.client, setup.aspace
    src = aspace.mmap(4096, populate=True)
    dst = aspace.mmap(4096, populate=True)
    peak = 0

    def gen():
        nonlocal peak
        for i in range(N_TASKS):
            yield from client.amemcpy(dst, src, 256)
            peak = max(peak, len(client.task_index))
            if i % 512 == 511:
                # Never csync — just pause so the service drains the ring.
                yield Timeout(50_000)

    setup.run_process(gen(), limit=500_000_000)
    assert client.stats.submitted == N_TASKS
    assert peak <= INDEX_BOUND
    assert len(client.task_index) <= INDEX_BOUND
    # The copies actually ran, and retirement took each one off the index.
    assert client.stats.completed > 0
    assert all(not t.is_finished for t in client.task_index)


def test_forced_prune_keeps_unfinished_tasks():
    setup = Setup()
    # Gate the service so nothing completes: every submitted task stays
    # unfinished and therefore stays indexed and mapped as a writer.
    setup.service.polling = "scenario"
    setup.service.scenario_active = False
    client, aspace = setup.client, setup.aspace
    src = aspace.mmap(4096, populate=True)
    dst = aspace.mmap(4096, populate=True)
    submitted = []

    def gen():
        for _ in range(40):
            before = set(client.task_index)
            yield from client.amemcpy(dst, src, 256)
            submitted.extend(t for t in client.task_index if t not in before)

    setup.run_process(gen())
    assert len(submitted) == 40
    assert list(client.task_index) == submitted
    assert all(not t.is_finished for t in submitted)
    # Every task writes the same bytes, so the newest one owns them all.
    assert [(s, e, t) for _asid, s, e, t in client.writers.intervals()] \
        == [(dst, dst + 256, submitted[-1])]
