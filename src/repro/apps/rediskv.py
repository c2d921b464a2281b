"""Redis-like KV server and closed-loop clients (§6.2.1, Fig. 11/14).

The server reproduces Redis's five Copier-relevant copies:

1. recv(): kernel skb → input I/O buffer;
2. SET: input buffer → the value's storage buffer (Redis re-buffers after
   parsing to avoid protocol-fragmenting the value);
3. GET: value buffer → output I/O buffer;
4. send(): output buffer → kernel skb;
5. an internal key/metadata copy during processing.

Copier mode follows the paper's port: recv is a Lazy Task (only header+key
are csynced for parsing), the value copy absorbs straight from the kernel
buffer, the GET reply chain absorbs value→skb, and leftover intermediate
copies are aborted — with proactive fault handling keeping page faults off
the critical path.
"""

from repro.apps.common import (
    HEADER_LEN,
    KEY_LEN,
    LatencyRecorder,
    decode_header,
    encode_get,
    encode_set,
)
from repro.baselines.ub import ub_compute
from repro.baselines.zio import ZIO
from repro.copier.errors import AdmissionReject, CopyAborted, DeadlineMissed
from repro.kernel.net import recv, send
from repro.sim import Compute

REQ_META = HEADER_LEN + KEY_LEN  # header + key prefix of every request

# Application compute costs (cycles), calibrated so the copy cycle share
# matches Fig. 2-a's Redis bars at 16 KB / 256 KB values.
PARSE_CYCLES = 500
SET_BOOKKEEPING_CYCLES = 900
GET_LOOKUP_CYCLES = 600
PER_REQUEST_CYCLES = 800


class RedisServer:
    """A single-threaded KV server in one of the evaluated modes.

    Modes: ``"sync"`` (baseline), ``"copier"``, ``"zio"``, ``"ub"``,
    ``"zerocopy"`` (MSG_ZEROCOPY replies for GETs).
    """

    def __init__(self, system, mode="sync", name="redis",
                 io_buf_bytes=1 << 20, arena_bytes=1 << 24,
                 request_timeout_cycles=None):
        self.system = system
        self.mode = mode
        # Copier mode: optional per-SET copy budget.  The value copy's
        # deadline is submit time + this; a SET whose copy misses it is
        # dropped (key removed, ``timeouts`` bumped) instead of blocking
        # the serve loop — the overload-protection story for Fig. 11.
        self.request_timeout_cycles = request_timeout_cycles
        self.timeouts = 0
        self.proc = system.create_process(name)
        self.io_in = self.proc.mmap(io_buf_bytes, populate=True,
                                    name="redis-io-in")
        self.io_out = self.proc.mmap(io_buf_bytes, populate=True,
                                     name="redis-io-out")
        self.arena = self.proc.mmap(arena_bytes, name="redis-arena")
        self._arena_cursor = 0
        self._arena_bytes = arena_bytes
        self.db = {}  # key -> (va, length)
        self.zio = ZIO(system, self.proc) if mode == "zio" else None
        self._pending_set = None  # (va, length) awaiting csync+abort
        self._get_was_lazy = False
        # MSG_ZEROCOPY ownership management (§2.2): a ring of reply
        # buffers, each unusable until its completion is reaped.
        if mode == "zerocopy":
            self._zc_ring = [self.io_out] + [
                self.proc.mmap(io_buf_bytes, populate=True,
                               name="redis-io-zc%d" % i) for i in range(3)]
        else:
            self._zc_ring = [self.io_out]
        self._zc_idx = 0
        self._zc_pending = {}
        # Adaptive recv: async recv only pays off when the payload is big
        # enough to absorb/overlap; track the last message size (§4.6).
        self._last_msg_len = 1 << 20
        self.requests_served = 0

    # -------------------------------------------------------------- helpers

    def _alloc_value(self, length):
        # Page-align allocations: real Redis uses jemalloc size classes;
        # alignment is also what gives zIO's steal path a chance.
        aligned = (length + 4095) & ~4095
        if self._arena_cursor + aligned > self._arena_bytes:
            self._arena_cursor = 0  # recycle (benchmarks overwrite keys)
        va = self.arena + self._arena_cursor
        self._arena_cursor += aligned
        return va

    def _compute(self, cycles):
        if self.mode == "ub":
            return ub_compute(self.system, self.proc, cycles)
        return self.system.app_compute(self.proc, cycles)

    # ------------------------------------------------------------ main loop

    def serve(self, sock, reply_socks, n_requests, affinity=None):
        """Generator: serve ``n_requests`` then return."""
        system, proc, mode = self.system, self.proc, self.mode
        syscall_mode = mode if mode in ("copier", "ub") else "sync"
        for _ in range(n_requests):
            if mode == "copier" and self._pending_set is not None:
                # Guideline: sync the value copy and retire the lazy recv
                # before the input buffer is reused by the next recv.
                (va, length, src_off, recv_was_async,
                 key, deadline) = self._pending_set
                try:
                    yield from proc.client.csync(va, length,
                                                 deadline=deadline)
                except (CopyAborted, DeadlineMissed):
                    # The value copy blew its budget: the entry is torn,
                    # so the whole SET is dropped (a request timeout).
                    self.db.pop(key, None)
                    self.timeouts += 1
                if recv_was_async:
                    yield from proc.client.abort(self.io_in + src_off, length)
                self._pending_set = None
            if mode == "zio":
                yield from self.zio.before_write(self.io_in, 1 << 20)
            if mode == "zerocopy":
                # Rotate reply buffers; reap the recycled slot's completion
                # before reuse (the §2.2 ownership-management burden).
                self._zc_idx = (self._zc_idx + 1) % len(self._zc_ring)
                self.io_out = self._zc_ring[self._zc_idx]
                completion = self._zc_pending.pop(self._zc_idx, None)
                if completion is not None:
                    from repro.kernel.net import zerocopy_reap
                    yield from zerocopy_reap(system, proc, completion)
            use_async_recv = (mode == "copier" and self._last_msg_len
                              >= system.params.copier_user_min_bytes)
            recv_mode = syscall_mode if (mode != "copier" or use_async_recv) \
                else "sync"
            got = yield from recv(system, proc, sock, self.io_in, 1 << 20,
                                  mode=recv_mode,
                                  lazy=(mode == "copier"))
            self._last_msg_len = got
            if mode == "copier" and use_async_recv:
                yield from proc.client.csync(self.io_in, REQ_META)
            yield self._compute(PARSE_CYCLES)
            header = proc.read(self.io_in, REQ_META)
            op, key, value_len = decode_header(header)
            client_id = header[4]
            yield self._compute(PER_REQUEST_CYCLES)
            if op == "SET":
                yield from self._handle_set(key, value_len, use_async_recv)
                reply_len = HEADER_LEN
                self._write_reply_header(client_id, 0, ok=True)
            else:
                reply_len = yield from self._handle_get(key, client_id)
            yield from self._send_reply(reply_socks[client_id], reply_len)
            self.requests_served += 1

    def _write_reply_header(self, client_id, value_len, ok=True):
        header = (b"+OK" if ok else b"-ER") + bytes([0, client_id])
        header = header.ljust(HEADER_LEN - 8, b"\x00")
        header += value_len.to_bytes(8, "little")
        self.proc.write(self.io_out, header)

    def _handle_set(self, key, value_len, recv_was_async=True):
        proc, system = self.proc, self.system
        # jemalloc-style reuse: overwriting a key with a same-size value
        # recycles its buffer (so steady-state SETs fault only once).
        existing = self.db.get(bytes(key))
        if existing is not None and existing[1] == value_len:
            va = existing[0]
        else:
            va = self._alloc_value(value_len)
        src = self.io_in + REQ_META
        # Copy 5: internal key/metadata copy (small: below break-even,
        # so even the Copier port keeps it synchronous, §4.6).
        yield Compute(system.params.cpu_copy_cycles(KEY_LEN, engine="avx"),
                      tag="copy")
        if (self.mode == "copier"
                and value_len >= system.params.copier_user_min_bytes):
            deadline = None
            if self.request_timeout_cycles is not None:
                deadline = system.env.now + self.request_timeout_cycles
            try:
                yield from proc.client.amemcpy(va, src, value_len,
                                               deadline=deadline)
            except AdmissionReject:
                # The overload valve refused the copy outright: the SET
                # times out now rather than queueing to miss later.
                self.timeouts += 1
                yield self._compute(SET_BOOKKEEPING_CYCLES)
                return
            self._pending_set = (va, value_len, REQ_META, recv_was_async,
                                 bytes(key), deadline)
        elif self.mode == "zio":
            yield from self.zio.copy(va, src, value_len)
        else:
            if self.mode == "copier" and recv_was_async:
                # Guideline (§5.1.1): sync the lazy recv's bytes before a
                # direct read of the input buffer.  A synchronous recv
                # already put them in place, and a csync would only find
                # the aborted tail of an earlier lazy recv there.
                yield from proc.client.csync(src, value_len)
            yield from system.sync_copy(proc, proc.aspace, src,
                                        proc.aspace, va, value_len,
                                        engine="avx")
        yield self._compute(SET_BOOKKEEPING_CYCLES)
        self.db[bytes(key)] = (va, value_len)

    def _handle_get(self, key, client_id):
        proc, system = self.proc, self.system
        yield self._compute(GET_LOOKUP_CYCLES)
        entry = self.db.get(bytes(key))
        if entry is None:
            self._write_reply_header(client_id, 0, ok=False)
            return HEADER_LEN
        va, length = entry
        self._write_reply_header(client_id, length)
        out = self.io_out + HEADER_LEN
        if (self.mode == "copier"
                and length >= system.params.copier_user_min_bytes):
            # Lazy: the send chain absorbs value→skb; abort the leftover.
            yield from proc.client.amemcpy(out, va, length, lazy=True)
            self._get_was_lazy = True
        elif self.mode == "copier":
            # Below the §4.6 break-even: plain sync copy, async send still
            # applies downstream.
            yield from system.sync_copy(proc, proc.aspace, va,
                                        proc.aspace, out, length,
                                        engine="avx")
        elif self.mode == "zio":
            yield from self.zio.before_write(out, length)
            yield from self.zio.copy(out, va, length)
        else:
            yield from system.sync_copy(proc, proc.aspace, va,
                                        proc.aspace, out, length,
                                        engine="avx")
        return HEADER_LEN + length

    def _send_reply(self, sock, reply_len):
        proc, system = self.proc, self.system
        if self.mode == "copier" and reply_len > HEADER_LEN:
            yield from send(system, proc, sock, self.io_out, reply_len,
                            mode="copier")
            if self._get_was_lazy:
                yield from proc.client.abort(self.io_out + HEADER_LEN,
                                             reply_len - HEADER_LEN)
                self._get_was_lazy = False
        elif self.mode == "zio" and reply_len > HEADER_LEN:
            # zIO interposes send: transmit the value from its original
            # buffer (no materialization), kernel copy unchanged.
            src_va, ind = self.zio.send_source(self.io_out + HEADER_LEN,
                                               reply_len - HEADER_LEN)
            if ind is not None:
                value = proc.read(src_va, reply_len - HEADER_LEN)
                proc.write(self.io_out + HEADER_LEN, value)
                self.zio.drop(ind)
            yield from send(system, proc, sock, self.io_out, reply_len)
        elif self.mode == "zerocopy" and reply_len >= 10 * 1024:
            completion = yield from send(system, proc, sock, self.io_out,
                                         reply_len, mode="zerocopy")
            self._zc_pending[self._zc_idx] = completion
        else:
            mode = "ub" if self.mode == "ub" else "sync"
            yield from send(system, proc, sock, self.io_out, reply_len,
                            mode=mode)


class RedisClient:
    """A closed-loop redis-benchmark-style client."""

    def __init__(self, system, client_id, server_sock, reply_sock,
                 name="redis-client"):
        self.system = system
        self.client_id = client_id
        self.server_sock = server_sock
        self.reply_sock = reply_sock
        self.proc = system.create_process("%s-%d" % (name, client_id))
        self.tx = self.proc.mmap(1 << 20, populate=True)
        self.rx = self.proc.mmap(1 << 20, populate=True)
        self.latency = LatencyRecorder()

    def run(self, ops):
        """ops: iterable of ("SET"|"GET", key, value_len)."""
        system, proc = self.system, self.proc
        for op, key, value_len in ops:
            request = self._encode(op, key, value_len)
            total = len(request) + (value_len if op == "SET" else 0)
            proc.write(self.tx, request)
            t0 = system.env.now
            yield from send(system, proc, self.server_sock, self.tx, total)
            yield from recv(system, proc, self.reply_sock, self.rx, 1 << 20)
            self.latency.record(system.env.now - t0)

    def _encode(self, op, key, value_len):
        msg = encode_set(key, value_len) if op == "SET" else encode_get(key)
        msg = bytearray(msg)
        msg[4] = self.client_id
        return bytes(msg)


def run_benchmark(system, mode, op, value_len, n_requests, n_clients=8,
                  server_affinity=0, limit=20_000_000_000):
    """Spin up one server + n closed-loop clients; returns the recorders.

    Mirrors the paper's redis-benchmark setup (8 parallel closed-loop
    clients, §6.2.1).  SETs pre-populate implicitly; GETs pre-SET the key.
    """
    server = RedisServer(system, mode=mode)
    server_rx, server_tx_side = _server_socket(system)
    clients = []
    reply_socks = {}
    for cid in range(n_clients):
        from repro.kernel.net import socket_pair
        reply_a, reply_b = socket_pair(system, "reply-%d" % cid)
        client = RedisClient(system, cid, server_tx_side, reply_b)
        clients.append(client)
        reply_socks[cid] = reply_a

    total = n_requests * n_clients
    warm = 0
    ops_per_client = []
    for cid, client in enumerate(clients):
        key = b"key-%02d" % cid
        ops = []
        if op == "GET":
            ops.append(("SET", key, value_len))
            warm += 1
        ops.extend((op, key, value_len) for _ in range(n_requests))
        ops_per_client.append(ops)

    server_proc = server.proc.spawn(
        server.serve(server_rx, reply_socks, total + warm),
        affinity=server_affinity)
    client_procs = []
    for i, (client, ops) in enumerate(zip(clients, ops_per_client)):
        affinity = None if system.env.cores.n_cores <= 2 else \
            1 + (i % max(1, system.env.cores.n_cores - 2))
        client_procs.append(client.proc.spawn(client.run(ops),
                                              affinity=affinity))
    t0 = system.env.now
    for p in client_procs:
        system.env.run_until(p.terminated, limit=limit)
    elapsed = system.env.now - t0
    recorders = [c.latency for c in clients]
    merged = LatencyRecorder()
    for r in recorders:
        if op == "GET":
            merged.samples.extend(r.samples[1:])  # drop the warm-up SET
        else:
            merged.samples.extend(r.samples)
    return server, merged, elapsed


def _server_socket(system):
    from repro.kernel.net import socket_pair
    rx, tx = socket_pair(system, "redis-listen")
    return rx, tx
