"""Self-tests of the benchmark's own arithmetic and tracer.

    python3 -m pytest perfbench -q

They cover percentiles and sample counts, span self time, and the
transparency of the generator and coroutine wrappers; only the sample
count check imports the workloads (and so the simulator in ``src/``).
"""

import asyncio
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from stats import (diff_counters, flatten, min_samples_for,  # noqa: E402
                   percentile)
from tracer import Tracer  # noqa: E402
from workload import depth_bucket  # noqa: E402


# ------------------------------------------------------------ percentiles

def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7], 99) == 7
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)
    with pytest.raises(ValueError):
        percentile([1], 101)


def _beyond(samples, q):
    cut = percentile(samples, q)
    return sum(1 for s in samples if s > cut)


def test_p99_needs_1000_samples_for_ten_beyond():
    assert min_samples_for(99) == 1000
    assert _beyond(list(range(1000)), 99) == 10
    assert _beyond(list(range(999)), 99) == 9
    assert min_samples_for(50, tail=1) == 2


def test_every_workload_sizes_p99_with_ten_samples_beyond():
    import copy_ring
    import fleet_lossy
    import kv_mix
    import kv_sockets
    need = min_samples_for(99)
    assert kv_mix.N_CLIENTS * len(kv_mix.SIZES) * 2 * kv_mix.SETS_PER_KEY \
        >= need
    assert copy_ring.MEASURED_OPS >= need
    assert fleet_lossy.EPISODES * fleet_lossy.OPS_PER_EPISODE >= need
    assert kv_sockets.N_CONNS * kv_sockets.PAIRS_PER_CONN * 2 >= need


def test_counter_flatten_and_diff():
    a = flatten({"x": {"b": 1, "a": [2, 3]}})
    assert a == {"x.a.0": 2, "x.a.1": 3, "x.b": 1}
    diffs, n = diff_counters(a, dict(a, **{"x.b": 5}))
    assert n == 1 and diffs == ["x.b: 1 != 5"]


def test_depth_buckets():
    assert depth_bucket(0) == "le64"
    assert depth_bucket(64) == "le64"
    assert depth_bucket(65) == "le512"
    assert depth_bucket(512) == "le512"
    assert depth_bucket(513) == "gt512"


# -------------------------------------------------------------- self time

class FakeClock:
    """A host clock the test advances by hand (ns)."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    import tracer as tracer_mod
    fake = FakeClock()
    monkeypatch.setattr(tracer_mod, "_now_ns", fake)
    return fake


def test_self_time_subtracts_child_spans(clock):
    t = Tracer()
    sim = lambda: 0  # noqa: E731

    def leaf():
        clock.now += 30

    traced_leaf = t.traced(leaf, "mem.leaf", sim)

    def outer():
        clock.now += 10
        traced_leaf()
        clock.now += 5
        traced_leaf()

    t.traced(outer, "copier.outer", sim)()
    assert t.totals["copier.outer"].host_ns == 75
    assert t.totals["copier.outer"].self_ns == 15
    assert t.totals["mem.leaf"].calls == 2
    assert t.self_ns_by_prefix("mem.") == 60
    # Self times add up to the time spent inside any span.
    assert t.self_ns_by_prefix("") == 75
    parent = [s for s in t.records if s.name == "copier.outer"][0]
    assert all(s.parent == parent.sid for s in t.records
               if s.name == "mem.leaf")


def test_generator_host_time_is_the_sum_of_its_slices(clock):
    t = Tracer()
    sim_now = [100]

    def work():
        clock.now += 7
        yield "a"
        clock.now += 3
        yield "b"
        clock.now += 1

    gen = t.traced(work, "sim.work", lambda: sim_now[0])()
    assert next(gen) == "a"
    clock.now += 1000          # other processes run in between
    sim_now[0] = 250
    assert gen.send(None) == "b"
    with pytest.raises(StopIteration):
        gen.send(None)
    span = t.records[0]
    assert span.host_ns == 11
    assert (span.sim_start, span.sim_end) == (100, 250)


# ------------------------------------------------------------ transparency

def _echo():
    """Yields what it is sent, handles a thrown error, returns a value."""
    got = yield "first"
    try:
        got = yield ("echo", got)
    except KeyError as exc:
        got = yield ("caught", exc.args[0])
    return ("done", got)


def _drive(gen, actions):
    out = []
    try:
        out.append(next(gen))
        for kind, value in actions:
            if kind == "send":
                out.append(gen.send(value))
            else:
                out.append(gen.throw(value))
    except StopIteration as stop:
        out.append(("return", stop.value))
    except Exception as exc:  # noqa: BLE001 - compared across both runs
        out.append(("raised", type(exc).__name__, exc.args))
    return out


@pytest.mark.parametrize("actions", [
    [("send", 1), ("send", 2)],
    [("send", 1), ("throw", KeyError("k")), ("send", 3)],
    [("throw", ValueError("v"))],
])
def test_generator_wrapper_is_transparent(actions):
    t = Tracer()
    plain = _drive(_echo(), actions)
    traced = _drive(t.traced(_echo, "bench.echo", lambda: 0)(), actions)
    assert traced == plain
    assert t.totals["bench.echo"].calls == 1


def test_generator_wrapper_through_yield_from_and_close():
    t = Tracer()
    inner = t.traced(_echo, "bench.inner", lambda: 0)

    def outer():
        result = yield from inner()
        return result

    gen = t.traced(outer, "bench.outer", lambda: 0)()
    assert next(gen) == "first"
    assert gen.send(5) == ("echo", 5)
    with pytest.raises(StopIteration) as stop:
        gen.send(6)
    assert stop.value.value == ("done", 6)
    inner_span = [s for s in t.records if s.name == "bench.inner"][0]
    outer_span = [s for s in t.records if s.name == "bench.outer"][0]
    assert inner_span.parent == outer_span.sid

    gen = t.traced(_echo, "bench.closed", lambda: 0)()
    next(gen)
    gen.close()
    assert t.totals["bench.closed"].calls == 1


def test_op_id_follows_its_generator():
    t = Tracer()
    leaf = t.traced(lambda: None, "mem.leaf", lambda: 0)

    def client(op):
        t.set_op(op)
        yield
        leaf()

    a = t.traced(client, "bench.client", lambda: 0)("a")
    b = t.traced(client, "bench.client", lambda: 0)("b")
    next(a)
    next(b)
    for gen in (a, b):
        with pytest.raises(StopIteration):
            next(gen)
    assert sorted(s.op for s in t.records if s.name == "mem.leaf") \
        == ["a", "b"]
    assert t.op is None


def test_coroutine_wrapper_is_transparent():
    t = Tracer()

    async def add(x, y):
        await asyncio.sleep(0)
        return x + y

    async def boom():
        await asyncio.sleep(0)
        raise KeyError("k")

    async def main():
        assert await t.traced(add, "serve.add", lambda: 0)(2, 3) == 5
        with pytest.raises(KeyError):
            await t.traced(boom, "serve.boom", lambda: 0)()

    asyncio.run(main())
    assert t.totals["serve.add"].calls == 1
    assert t.totals["serve.boom"].calls == 1


def test_wrap_shadows_one_instance_only():
    class Thing:
        def f(self):
            return 1

    a, b = Thing(), Thing()
    t = Tracer()
    t.wrap(a, "f", "bench.f", lambda: 0)
    assert a.f() == 1 and b.f() == 1
    assert t.totals["bench.f"].calls == 1
