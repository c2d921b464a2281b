"""``kv_mix``: the Redis port in Copier mode under a closed-loop SET/GET mix.

Eight simulated clients, each a process on the same machine, talk to one
``RedisServer(mode="copier")`` over ``kernel.net`` sockets.  Each client
owns eight keys whose value sizes are one of each of the ladder below
(2 KB to 256 KB).  A round warms up by SETting every key once, then
each client issues ``SETS_PER_KEY`` blocks, each one SET and one GET
of every key in seeded order: the seed changes the order, the keys'
sizes and the value bytes, never the mix, so every seed moves the same
bytes at a similar pace.  Every GET reply is checked against the bytes
of that key's last SET.

A key keeps one value size for its life: the server's value arena hands
out space with a cursor that wraps when full (``RedisServer`` recycles it
for benchmarks that overwrite keys), and a same-size SET reuses the
key's buffer, so the live keys never share arena space.

The ladder starts at the Copier's user-mode break-even
(``MachineParams.copier_user_min_bytes``, 2 KB) because smaller values
hit a defect in the Copier-mode server: a SET below 2 KB that follows a
large SET and a GET raises ``CopyAborted`` out of ``RedisServer.serve``
(its csync of the input buffer finds the aborted tail of the earlier lazy
recv).  Once that is fixed the ladder should go down to 512 B.
"""

from repro.apps.common import HEADER_LEN, encode_get, encode_set
from repro.apps.rediskv import RedisServer
from repro.kernel import net
from repro.kernel.system import System

from workload import Workload

N_CLIENTS = 8
SIZES = (2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144)
SETS_PER_KEY = 8
POOL_BYTES = 1 << 20
#: Client 0's ops between host-time marks (``ops_per_s`` windows); the
#: other clients' completions in between count too.
MARK_EVERY = 16
RUN_LIMIT = 50_000_000_000


class KvMix(Workload):
    name = "kv_mix"
    loop = "closed loop, %d clients" % N_CLIENTS
    slo_limit_cycles = 250_000

    def setup(self):
        rng = self.rng
        self.pool = self.random_bytes(POOL_BYTES)
        system = self.system = System(n_cores=4, copier=True,
                                      phys_frames=65536)
        self.add_machine(system)
        self.server = RedisServer(system, mode="copier")
        self.trace_process(system, self.server.proc)
        listen_rx, listen_tx = net.socket_pair(system, "listen")
        self.send = self.traced(system, net.send, "kernel.send")
        self.recv = self.traced(system, net.recv, "kernel.recv")
        reply_socks = {}
        self.clients = []
        for cid in range(N_CLIENTS):
            reply_srv, reply_cli = net.socket_pair(system, "reply-%d" % cid)
            reply_socks[cid] = reply_srv
            proc = system.create_process("client-%d" % cid)
            self.trace_process(system, proc)
            tx = proc.mmap(1 << 20, populate=True)
            rx = proc.mmap(1 << 20, populate=True)
            sizes = list(SIZES)
            rng.shuffle(sizes)
            keys = [(b"c%d-k%d" % (cid, i), size)
                    for i, size in enumerate(sizes)]
            ops = []
            for _ in range(SETS_PER_KEY):
                block = [(kind, i) for kind in ("SET", "GET")
                         for i in range(len(keys))]
                rng.shuffle(block)
                ops += [(kind, i, rng.randrange(POOL_BYTES - keys[i][1]))
                        for kind, i in block]
            self.clients.append(dict(cid=cid, proc=proc, tx=tx, rx=rx,
                                     to_server=listen_tx, reply=reply_cli,
                                     keys=keys, ops=ops, last={}))
        n_keys = sum(len(c["keys"]) for c in self.clients)
        n_ops = sum(len(c["ops"]) for c in self.clients)
        serve = self.traced(system, self.server.serve, "apps.redis.serve")
        self.server_proc = self.server.proc.spawn(
            serve(listen_rx, reply_socks, n_keys + n_ops), affinity=0)
        # Warm-up: every key is SET once before the first measured op.
        warm = [self._spawn(c, [("SET", i, rng.randrange(POOL_BYTES - size))
                                for i, (_k, size) in enumerate(c["keys"])],
                            record=False)
                for c in self.clients]
        for proc in warm:
            system.env.run_until(proc.terminated, limit=RUN_LIMIT)

    def measure(self):
        env = self.system.env
        start = env.now
        procs = [self._spawn(c, c["ops"], record=True) for c in self.clients]
        for proc in procs:
            env.run_until(proc.terminated, limit=RUN_LIMIT)
        self.sim_cycles = env.now - start

    def _spawn(self, client, ops, record):
        cid = client["cid"]
        affinity = 1 + cid % 2
        run = self.traced(self.system, self._client, "bench.client")
        return client["proc"].spawn(run(client, ops, record),
                                    affinity=affinity)

    def _client(self, c, ops, record):
        system, proc = self.system, c["proc"]
        env = system.env
        tracer = self.tracer
        for seq, (kind, key_i, offset) in enumerate(ops):
            key, size = c["keys"][key_i]
            if tracer is not None:
                tracer.set_op("%d.%d" % (c["cid"], seq))
            if kind == "SET":
                msg = bytearray(encode_set(key, size))
                msg[4] = c["cid"]
                proc.write(c["tx"], bytes(msg) + self.pool[offset:
                                                           offset + size])
                total = len(msg) + size
            else:
                msg = bytearray(encode_get(key))
                msg[4] = c["cid"]
                proc.write(c["tx"], bytes(msg))
                total = len(msg)
            t0 = env.now
            yield from self.send(system, proc, c["to_server"], c["tx"], total)
            got = yield from self.recv(system, proc, c["reply"], c["rx"],
                                       1 << 20)
            latency = env.now - t0
            reply = proc.read(c["rx"], got)
            good = reply[:3] == b"+OK"
            if kind == "SET":
                c["last"][key_i] = offset
            else:
                length = int.from_bytes(reply[HEADER_LEN - 8:HEADER_LEN],
                                        "little")
                last = c["last"][key_i]
                good = good and length == size and (
                    reply[HEADER_LEN:HEADER_LEN + length]
                    == self.pool[last:last + size])
            if not record:
                continue
            if c["cid"] == 0 and seq % MARK_EVERY == 0:
                self.mark(self.attempted)
            self.attempted += 1
            if good:
                self.latencies.append(latency)
            else:
                self.mismatches += 1

    def teardown(self):
        system = self.system
        self.check(not self.server_proc.is_alive,
                   "server did not serve every request")
        self.check(self.server.timeouts == 0,
                   "server dropped %d SETs" % self.server.timeouts)
        # The processes exit before the drain, as a server does when it
        # stops: the exit reaps the lazy recv of the final SET, which the
        # server would only retire on reading a next request.
        for proc in list(system.processes):
            system.exit_process(proc)
        self.shutdown_copier(system)
