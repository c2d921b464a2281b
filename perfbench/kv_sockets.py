"""``kv_sockets``: the async Redis frontend over two real localhost sockets.

``serve.RedisSocketServer`` runs behind a ``SimDriver`` with the
deterministic ``gate`` pacing; two asyncio client connections in this
process each run a closed loop of SET+GET pairs of 16 KB values on
their own ``KEYS_PER_CONN`` keys, and check every GET reply byte for
byte against the pair's SET.  The seed picks the key of each pair and
the value bytes.  A round's setup starts the server, connects both
clients and SETs every key once.

An op's simulated latency is the simulated clock at its reply minus the
clock when it was written: the gate advances the simulator only while
both sessions are parked on simulated work, so neither reading depends
on host scheduling.
"""

import asyncio

from repro.apps.common import encode_get, encode_set
from repro.kernel.system import System
from repro.serve import RedisSocketServer, SimDriver, encode_hello

from workload import Workload

N_CONNS = 2
KEYS_PER_CONN = 4
VALUE_BYTES = 16 * 1024
PAIRS_PER_CONN = 384
POOL_BYTES = 1 << 20
STATUS_OK = b"+"
#: Connection 0's pairs between host-time marks (``ops_per_s`` windows).
MARK_EVERY = 48


class KvSockets(Workload):
    name = "kv_sockets"
    loop = "closed loop, %d socket connections" % N_CONNS
    slo_limit_cycles = 60_000

    def setup(self):
        rng = self.rng
        self.pool = self.random_bytes(POOL_BYTES)
        self.scripts = [
            [(rng.randrange(KEYS_PER_CONN),
              rng.randrange(POOL_BYTES - VALUE_BYTES))
             for _ in range(PAIRS_PER_CONN)]
            for _ in range(N_CONNS)]
        self.loop = asyncio.new_event_loop()
        # Before Python 3.10, asyncio objects made outside a running loop
        # bind to the current loop, so the driver's must be this one.
        asyncio.set_event_loop(self.loop)
        system = self.system = System(n_cores=4, phys_frames=65536)
        self.add_machine(system)
        self.driver = SimDriver(system=system, pacing="gate",
                                expected_sessions=N_CONNS)
        self.server = RedisSocketServer(
            system, self.driver, max_conns=N_CONNS,
            conn_buf_bytes=VALUE_BYTES,
            store_bytes=KEYS_PER_CONN * VALUE_BYTES)
        self.trace_process(system, self.server.proc)
        if self.tracer is not None:
            clock = lambda: system.env.now  # noqa: E731
            for attr in ("amemcpy", "csync"):
                self.tracer.wrap(self.server.copier, attr, "serve.op", clock)
        self.loop.run_until_complete(self._start())

    async def _start(self):
        self.driver_task = self.loop.create_task(self.driver.run())
        port = await self.server.start()
        self.conns = []
        for cid in range(N_CONNS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_hello(cid))
            self.conns.append((reader, writer))
        await asyncio.gather(*[
            self._client(cid, [(k, 0) for k in range(KEYS_PER_CONN)],
                         record=False, warm=True)
            for cid in range(N_CONNS)])

    def measure(self):
        env = self.system.env
        start = env.now
        self.loop.run_until_complete(self._run_clients())
        self.sim_cycles = env.now - start

    async def _run_clients(self):
        await asyncio.gather(*[
            self._client(cid, self.scripts[cid], record=True)
            for cid in range(N_CONNS)])

    async def _request(self, reader, writer, payload):
        """One request on the wire; returns (status, value, sim cycles)."""
        env = self.system.env
        t0 = env.now
        writer.write(payload)
        await writer.drain()
        status = await reader.readexactly(1)
        length = int.from_bytes(await reader.readexactly(8), "little")
        data = await reader.readexactly(length) if length else b""
        return status, data, env.now - t0

    async def _client(self, cid, script, record, warm=False):
        reader, writer = self.conns[cid]
        for seq, (k, offset) in enumerate(script):
            if record and cid == 0 and seq % MARK_EVERY == 0:
                self.mark(self.attempted)
            key = b"c%d-k%d" % (cid, k)
            value = self.pool[offset:offset + VALUE_BYTES]
            status, data, set_lat = await self._request(
                reader, writer, encode_set(key, VALUE_BYTES) + value)
            set_ok = status == STATUS_OK and data == b""
            if warm:
                self.check(set_ok, "warm-up SET failed")
                continue
            status, data, get_lat = await self._request(
                reader, writer, encode_get(key))
            get_ok = status == STATUS_OK and data == value
            if not record:
                continue
            for ok, lat in ((set_ok, set_lat), (get_ok, get_lat)):
                self.attempted += 1
                if ok:
                    self.latencies.append(lat)
                else:
                    self.mismatches += 1

    async def _stop(self):
        for _reader, writer in self.conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        await self.server.stop()
        self.driver.stop()
        await self.driver_task

    def abandon(self):
        try:
            self.loop.run_until_complete(self._stop())
        finally:
            self.loop.close()
            asyncio.set_event_loop(None)

    def teardown(self):
        self.abandon()
        self.check(self.driver.parked_ops == 0,
                   "%d serve ops still parked" % self.driver.parked_ops)
        self.check(self.server.timeouts == 0, "server timed out requests")
        self.shutdown_copier(self.system)

    def sim_counters(self):
        counters = super().sim_counters()
        # Host-paced: how often the driver found nothing to step.
        del counters["m0.copier.serve.idle_polls"]
        return counters

    def layer_counters(self):
        out = super().layer_counters()
        snap = self.driver.snapshot()
        steps = snap["steps"]
        out.update({
            "serve.steps": steps,
            "serve.events_per_step": snap["events_per_step"],
            "serve.idle_poll_ratio": snap["idle_polls"] / steps if steps
            else 0.0,
        })
        return out
