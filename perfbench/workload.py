"""What every workload shares: the run protocol, the gates and the tracing
of one simulated machine.

A workload object is one *round*: :meth:`Workload.setup` builds the
machine(s), maps and fills buffers and warms up; :meth:`Workload.measure`
runs the fixed, seed-generated op sequence; :meth:`Workload.finish`
snapshots the counters and applies the correctness gates.  ``run.py``
repeats rounds with fresh objects, so every round of one seed must
produce the same simulated counters, bit for bit.
"""

import random
import time

from stats import flatten, ratio

#: Span names are ``<layer>.<what>``, the layer being the repo module the
#: wrapped function lives in.  These hot leaves (called per byte run or
#: per worker iteration) are kept only as aggregates.
HOT_LEAVES = ("mem.copy_run", "mem.read_run", "mem.write_run",
              "mem.translate_run", "copier.sweep", "copier.build_round",
              "copier.ingest", "hw.cpu_copy")

#: ``task_index`` depth buckets for csync host cost (upper bounds).
DEPTH_BUCKETS = ((64, "le64"), (512, "le512"), (None, "gt512"))

#: What :meth:`Workload.finish` keeps of a round.
_RESULTS = frozenset(("latencies", "attempted", "failed", "mismatches",
                      "sim_cycles", "errors", "depths", "copy_bytes",
                      "counters", "layers", "marks", "calibrator"))


def depth_bucket(depth):
    for bound, label in DEPTH_BUCKETS:
        if bound is None or depth <= bound:
            return label


class Workload:
    """Base class; subclasses set the class attributes and the hooks."""

    name = ""
    #: Loop type, stated in the docs and printed with the results.
    loop = ""
    #: Fixed simulated-latency limit for ``slo_ok_ratio`` (cycles).
    slo_limit_cycles = 0

    def __init__(self, seed, calibrator, tracer=None):
        self.seed = seed
        self.rng = random.Random("%s/%d" % (self.name, seed))
        self.calibrator = calibrator
        self.tracer = tracer
        self.latencies = []      # cycles, one per op that succeeded
        self.attempted = 0
        self.failed = 0          # failed, abandoned or refused ops
        self.mismatches = 0      # ops whose bytes did not verify
        self.sim_cycles = 0      # simulated cycles of the measured phase
        self.errors = []         # failed correctness gates
        self.depths = []         # task_index depth at each traced csync
        self.machines = []       # every System the round built
        self.copy_bytes = 0      # bytes through the traced mem movers
        self.marks = []          # measured-phase progress, see mark()

    def random_bytes(self, n):
        """``n`` seeded bytes; the same bytes ``self.rng.randbytes(n)``
        gives, which Python 3.8 lacks."""
        return self.rng.getrandbits(n * 8).to_bytes(n, "little")

    def mark(self, done):
        """Record measured-phase progress (``done`` ops by now) and take a
        host-speed reading, which the windows on either side share."""
        stop = time.perf_counter()
        speed = self.calibrator.speed()
        self.marks.append((stop, time.perf_counter(), done, speed))

    def window_rates(self):
        """Ops per reference-host second between consecutive marks."""
        scale = self.calibrator.scale
        return [(d1 - d0) / (stop - start) * scale(v0, v1)
                for (_s, start, d0, v0), (stop, _t, d1, v1)
                in zip(self.marks, self.marks[1:]) if d1 > d0]

    # ---------------------------------------------------------- round API

    def setup(self):
        raise NotImplementedError

    def measure(self):
        raise NotImplementedError

    def finish(self):
        """Snapshot the counters, tear down through the gates, then drop
        the machines so a run's memory does not grow with its rounds."""
        self.counters = self.sim_counters()
        self.layers = self.layer_counters()
        self.teardown()
        for name in list(vars(self)):
            if name not in _RESULTS:
                delattr(self, name)

    def teardown(self):
        raise NotImplementedError

    def abandon(self):
        """Release a round that was set up but never measured."""

    def shutdown_copier(self, system):
        """Drain-and-stop gate: a clean drain and zero leaked pins."""
        report = system.copier.shutdown()
        self.check(report["drained"], "copier shutdown did not drain: %r"
                   % (report,))
        self.check(system.leaked_pins() == 0, "leaked page pins")
        self.counters.update(("shutdown." + k, v) for k, v in report.items())

    def sim_counters(self):
        """Every simulated counter the program exposes, flattened."""
        out = {}
        for i, system in enumerate(self.machines):
            out.update(("m%d.%s" % (i, k), v)
                       for k, v in _system_counters(system).items())
        return out

    def layer_counters(self):
        """Simulated per-layer metrics (name -> value) for the traced run."""
        return _machine_layers(self.machines)

    # ------------------------------------------------------------ results

    @property
    def ok(self):
        return self.attempted - self.failed - self.mismatches

    def slo_ok(self):
        return sum(1 for lat in self.latencies
                   if lat <= self.slo_limit_cycles)

    def check(self, condition, message):
        if not condition:
            self.errors.append(message)

    # ------------------------------------------------------------ tracing

    def add_machine(self, system):
        """Register a ``System``; traced, wrap its per-layer entry points."""
        self.machines.append(system)
        tracer = self.tracer
        if tracer is None:
            return
        env = system.env
        clock = _clock(env)
        tracer.wrap(env, "run_until", "sim.run_until", clock)
        tracer.wrap(env, "step", "sim.step", clock)
        tracer.wrap(env, "run", "sim.run", clock)
        phys = system.phys
        for attr in ("copy_run", "read_run", "write_run"):
            tracer.wrap(phys, attr, self._mover_namer("mem." + attr), clock)
        self.trace_aspace(system, system.kernel_as)
        service = system.copier
        if service is not None:
            tracer.wrap(service.executor, "execute_plan",
                        "copier.execute_plan", clock)
            tracer.wrap(service.executor, "ingest", "copier.ingest", clock)
            tracer.wrap(service.executor, "write_spans", "hw.cpu_copy",
                        clock)
            tracer.wrap(service.completion, "sweep", "copier.sweep", clock)
            tracer.wrap(service.dispatcher, "build_round",
                        "copier.build_round", clock)

    def _mover_namer(self, name):
        # Every PhysicalMemory run mover takes ``nbytes`` last.
        def namer(*args):
            self.copy_bytes += args[-1]
            return name
        return namer

    def traced(self, system, fn, name):
        """``fn`` traced against ``system``'s clock (untraced: ``fn``)."""
        if self.tracer is None:
            return fn
        return self.tracer.traced(fn, name, _clock(system.env))

    def trace_aspace(self, system, aspace):
        if self.tracer is not None:
            self.tracer.wrap(aspace, "translate_run", "mem.translate_run",
                             _clock(system.env))

    def trace_process(self, system, proc):
        """Wrap one process's address space and Copier client."""
        tracer = self.tracer
        if tracer is None:
            return
        self.trace_aspace(system, proc.aspace)
        client = proc.client
        if client is None:
            return
        clock = _clock(system.env)
        depths = self.depths

        def csync_name(*_args, **_kwargs):
            depth = len(client.task_index)
            depths.append(depth)
            return "copier.csync.depth_" + depth_bucket(depth)

        tracer.wrap(client, "csync", csync_name, clock)
        tracer.wrap(client, "csync_region", "copier.ksync", clock)
        tracer.wrap(client, "submit_copy", "copier.submit", clock)


def _machine_layers(systems):
    """Simulated ``sim``/``mem``/``hw``/``copier`` layer metrics."""
    agg = dict(rounds=0, copied=0, absorbed=0, aborted=0, hits=0,
               misses=0, avx=0, dma=0, batches=0, busy=0, faults=0,
               wait_n=0, wait_t=0, s2c_n=0, s2c_t=0, syncs=0, events=0)
    for system in systems:
        agg["events"] += system.env.events_executed
        agg["faults"] += sum(sum(a.fault_counts.values())
                             for a in _aspaces(system))
        service = system.copier
        if service is None:
            continue
        snap = service.stats_snapshot()
        agg["rounds"] += service.rounds_executed
        for client in snap["clients"].values():
            agg["copied"] += client["bytes_copied"]
            agg["absorbed"] += client["bytes_absorbed"]
            agg["aborted"] += client["aborted"]
            agg["syncs"] += client["sync_tasks"]
        agg["hits"] += snap["atcache"]["hits"]
        agg["misses"] += snap["atcache"]["misses"]
        agg["avx"] += snap["dispatcher"]["bytes_to_avx"]
        agg["dma"] += snap["dispatcher"]["bytes_to_dma"]
        if snap["dma"] is not None:
            agg["batches"] += snap["dma"]["batches"]
            agg["busy"] += snap["dma"]["busy_cycles"]
        stages = service.stage_stats.stages
        agg["wait_n"] += stages["ingest_to_execute"].count
        agg["wait_t"] += stages["ingest_to_execute"].total
        agg["s2c_n"] += stages["submit_to_complete"].count
        agg["s2c_t"] += stages["submit_to_complete"].total
    moved = agg["copied"] + agg["absorbed"]
    return {
        "sim.events": agg["events"],
        "mem.faults": agg["faults"],
        "hw.avx_bytes": agg["avx"],
        "hw.dma_bytes": agg["dma"],
        "hw.dma_share": ratio(agg["dma"], agg["avx"] + agg["dma"]),
        "hw.dma_batches": agg["batches"],
        "hw.dma_busy_cycles": agg["busy"],
        "copier.rounds": agg["rounds"],
        "copier.bytes_copied": agg["copied"],
        "copier.bytes_absorbed": agg["absorbed"],
        "copier.absorb_ratio": ratio(agg["absorbed"], moved),
        "copier.aborted_tasks": agg["aborted"],
        "copier.atcache.hit_rate": ratio(agg["hits"],
                                         agg["hits"] + agg["misses"]),
        "copier.queue_wait_mean_cycles": ratio(agg["wait_t"],
                                               agg["wait_n"]),
        "copier.submit_to_complete_mean_cycles": ratio(agg["s2c_t"],
                                                       agg["s2c_n"]),
        "copier.sync_tasks": agg["syncs"],
    }


def _system_counters(system):
    """Flattened public counters of one machine (determinism check)."""
    env = system.env
    out = {"env.now": env.now, "env.events": env.events_executed,
           "phys.frames_in_use": system.phys.frames_in_use}
    cycles = {}
    for per_tag in env.stats.cycles.values():
        for tag, n in per_tag.items():
            cycles[tag] = cycles.get(tag, 0) + n
    out.update(flatten(cycles, "cycles_by_tag."))
    for i, aspace in enumerate(_aspaces(system)):
        out.update(flatten(aspace.fault_counts, "faults.%d." % i))
    if system.copier is not None:
        snap = system.copier.stats_snapshot()
        # Client names embed no ids, but keep only values: clients are
        # listed in creation order, which is deterministic.
        snap["clients"] = list(snap["clients"].values())
        out.update(flatten(snap, "copier."))
    return out


def _clock(env):
    return lambda: env.now


def _aspaces(system):
    yield system.kernel_as
    for proc in system.processes:
        yield proc.aspace
