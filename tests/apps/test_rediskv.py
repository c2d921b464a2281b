"""Redis-like KV server tests (§6.2.1)."""

import pytest

from repro.apps.rediskv import RedisClient, RedisServer, run_benchmark
from repro.kernel import System


def _mk(mode):
    copier = mode == "copier"
    return System(n_cores=4, copier=copier, phys_frames=65536)


@pytest.mark.parametrize("mode", ["copier"])
@pytest.mark.parametrize("value_len", [256, 1024, 4096])
def test_small_value_roundtrip_below_breakeven(mode, value_len):
    """Values below the §4.6 break-even take the sync fallback paths but
    must still return correct data (the lazy recv is csynced first)."""
    system = _mk(mode)
    from repro.kernel.net import socket_pair

    server = RedisServer(system, mode=mode)
    listen_rx, listen_tx = socket_pair(system)
    reply_a, reply_b = socket_pair(system)
    client = RedisClient(system, 0, listen_tx, reply_b)
    client.proc.write(client.tx + 80, bytes([7]) * value_len)

    server.proc.spawn(server.serve(listen_rx, {0: reply_a}, 2), affinity=0)
    cp = client.proc.spawn(
        client.run([("SET", b"s", value_len), ("GET", b"s", value_len)]),
        affinity=1)
    system.env.run_until(cp.terminated, limit=10_000_000_000)
    assert client.proc.read(client.rx + 64, value_len) == bytes([7]) * value_len


def test_small_set_after_large_set_and_get():
    """A sub-break-even SET after a large SET and GET must not csync the
    aborted tail of the earlier lazy recv: its own recv was synchronous,
    so its bytes are already in place (it used to raise CopyAborted out
    of ``serve()``)."""
    system = _mk("copier")
    from repro.kernel.net import socket_pair

    server = RedisServer(system, mode="copier")
    listen_rx, listen_tx = socket_pair(system)
    reply_a, reply_b = socket_pair(system)
    client = RedisClient(system, 0, listen_tx, reply_b)
    big, small = 64 * 1024, 1024
    big_value = bytes(range(256)) * (big // 256)
    small_value = bytes([0xA5, 0x5A]) * (small // 2)
    replies = []

    def run():
        for op, value, n in (("SET", big_value, big), ("GET", None, big),
                             ("SET", small_value, small),
                             ("GET", None, small)):
            if value is not None:
                client.proc.write(client.tx + 80, value)
            yield from client.run([(op, b"k", n)])
            length = 64 + (n if op == "GET" else 0)
            replies.append(client.proc.read(client.rx, length))

    server.proc.spawn(server.serve(listen_rx, {0: reply_a}, 4), affinity=0)
    cp = client.proc.spawn(run(), affinity=1)
    system.env.run_until(cp.terminated, limit=10_000_000_000)
    assert [r[:3] for r in replies] == [b"+OK"] * 4
    assert replies[1][64:] == big_value
    assert replies[3][64:] == small_value
    assert server.requests_served == 4
    assert server.timeouts == 0


@pytest.mark.parametrize("mode", ["sync", "copier", "zio", "ub"])
def test_set_get_roundtrip(mode):
    """A SET followed by a GET returns the stored value in every mode."""
    system = _mk(mode)
    from repro.kernel.net import socket_pair

    server = RedisServer(system, mode=mode)
    listen_rx, listen_tx = socket_pair(system)
    reply_a, reply_b = socket_pair(system)
    client = RedisClient(system, 0, listen_tx, reply_b)
    value_len = 16 * 1024

    server_proc = server.proc.spawn(
        server.serve(listen_rx, {0: reply_a}, 2), affinity=0)
    cp = client.proc.spawn(
        client.run([("SET", b"k", value_len), ("GET", b"k", value_len)]),
        affinity=1)
    system.env.run_until(cp.terminated, limit=10_000_000_000)

    # The GET reply payload equals the value the client SET.
    sent_value = client.proc.read(client.tx + 80, value_len)
    reply = client.proc.read(client.rx, 64 + value_len)
    assert reply[:3] == b"+OK"
    assert reply[64:] == sent_value
    assert server.requests_served == 2


@pytest.mark.faultfree
@pytest.mark.parametrize("op", ["SET", "GET"])
def test_copier_beats_baseline_latency(op):
    """Fig. 11's headline: Copier cuts Redis latency at 16 KB values."""
    value_len = 16 * 1024
    results = {}
    for mode in ("sync", "copier"):
        system = _mk(mode)
        _server, merged, _elapsed = run_benchmark(
            system, mode, op, value_len, n_requests=12, n_clients=2)
        results[mode] = merged.mean
    assert results["copier"] < results["sync"], results


def test_value_integrity_across_many_requests():
    """Distinct values per client survive the async machinery intact."""
    system = _mk("copier")
    from repro.kernel.net import socket_pair

    server = RedisServer(system, mode="copier")
    listen_rx, listen_tx = socket_pair(system)
    n_clients = 3
    value_len = 8 * 1024
    clients = []
    reply_socks = {}
    for cid in range(n_clients):
        ra, rb = socket_pair(system)
        reply_socks[cid] = ra
        clients.append(RedisClient(system, cid, listen_tx, rb))

    server.proc.spawn(server.serve(listen_rx, reply_socks, n_clients * 2),
                      affinity=0)
    cps = []
    for cid, client in enumerate(clients):
        # Each client stores a distinctive value then reads it back.
        client.proc.write(client.tx + 80, bytes([cid + 1]) * value_len)
        key = b"key-%d" % cid
        cps.append(client.proc.spawn(
            client.run([("SET", key, value_len), ("GET", key, value_len)]),
            affinity=1 + cid % 2))
    for cp in cps:
        system.env.run_until(cp.terminated, limit=10_000_000_000)
    for cid, client in enumerate(clients):
        reply = client.proc.read(client.rx + 64, value_len)
        assert reply == bytes([cid + 1]) * value_len, "client %d" % cid


def test_copier_mode_absorbs_on_get_path():
    """The GET chain (value→io_out→skb) short-circuits via absorption."""
    system = _mk("copier")
    server, merged, _ = run_benchmark(system, "copier", "GET", 16 * 1024,
                                      n_requests=6, n_clients=1)
    assert server.proc.client.stats.bytes_absorbed > 0


def test_zio_indirection_on_get():
    system = _mk("zio")
    server, merged, _ = run_benchmark(system, "zio", "GET", 16 * 1024,
                                      n_requests=5, n_clients=1)
    assert server.zio.stats["indirect"] > 0


def test_zio_materializes_on_set_buffer_reuse():
    """Redis's recycled input buffer forces zIO's fault-copy path (§6.2.1)."""
    system = _mk("zio")
    server, merged, _ = run_benchmark(system, "zio", "SET", 16 * 1024,
                                      n_requests=5, n_clients=1)
    assert server.zio.stats["fault_copies"] > 0


def test_throughput_reporting():
    system = _mk("sync")
    _server, merged, elapsed = run_benchmark(system, "sync", "SET", 4096,
                                             n_requests=10, n_clients=2)
    assert merged.count == 20
    assert merged.throughput(elapsed) > 0
    assert merged.p99 >= merged.mean * 0.5
