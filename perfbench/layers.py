"""Per-layer metrics of a traced round.

Host-time metrics come from the tracer's spans; simulated ones from the
program's public counters (``Workload.layer_counters``).  The names,
units and order are those of ``per_layer`` in ``BENCHMARK.json``; every
workload reports every name, and a layer a workload does not exercise
reports 0.
"""

from stats import ratio

#: Span-name prefixes of the copier client (the rest of ``copier.`` is
#: the service side).
_CLIENT_PREFIXES = ("copier.csync", "copier.ksync", "copier.submit")


def per_layer(work, tracer, untraced_ops_per_s, traced_ops_per_s, names):
    """Per-layer metric values of one traced round, ``{name: value}``."""
    values = dict.fromkeys(names, 0)
    values.update(work.layers)
    t = tracer
    events = values["sim.events"]
    sim_ns = t.self_ns_by_prefix("sim.")
    copy_names = ("mem.copy_run", "mem.read_run", "mem.write_run")
    copy_ns = sum(t.totals[n].host_ns for n in copy_names if n in t.totals)
    client_ns = sum(t.self_ns_by_prefix(p) for p in _CLIENT_PREFIXES)
    csyncs = t.calls("copier.csync")
    sync_tasks = values.pop("copier.sync_tasks", 0)
    depths = work.depths
    send = t.totals.get("kernel.send")
    values.update({
        "sim.self_s": sim_ns / 1e9,
        "sim.ns_per_event": ratio(sim_ns, events),
        "mem.translate_run.calls": t.calls("mem.translate_run"),
        "mem.translate_run.ns_per_call": t.ns_per_call("mem.translate_run"),
        "mem.copy_bytes": work.copy_bytes,
        "mem.copy_ns_per_kib": ratio(copy_ns, work.copy_bytes / 1024.0),
        "mem.self_s": t.self_ns_by_prefix("mem.") / 1e9,
        "hw.cpu_copy.ns_per_call": t.ns_per_call("hw.cpu_copy"),
        "hw.self_s": t.self_ns_by_prefix("hw.") / 1e9,
        "copier.submit.calls": t.calls("copier.submit"),
        "copier.submit.ns_per_call": t.ns_per_call("copier.submit"),
        "copier.csync.calls": csyncs,
        "copier.csync.ns_per_call": t.ns_per_call("copier.csync"),
        "copier.csync.ns_per_call.depth_le64":
            t.ns_per_call("copier.csync.depth_le64"),
        "copier.csync.ns_per_call.depth_le512":
            t.ns_per_call("copier.csync.depth_le512"),
        "copier.csync.ns_per_call.depth_gt512":
            t.ns_per_call("copier.csync.depth_gt512"),
        "copier.csync.slow_ratio": ratio(sync_tasks, csyncs),
        "copier.task_index.depth_mean": ratio(sum(depths), len(depths)),
        "copier.task_index.depth_max": max(depths, default=0),
        "copier.client.self_s": client_ns / 1e9,
        "copier.execute_plan.ns_per_call":
            t.ns_per_call("copier.execute_plan"),
        "copier.sweep.ns_per_call": t.ns_per_call("copier.sweep"),
        "copier.build_round.ns_per_call": t.ns_per_call("copier.build_round"),
        "copier.service.self_s":
            (t.self_ns_by_prefix("copier.") - client_ns) / 1e9,
        "kernel.send.ns_per_call": t.ns_per_call("kernel.send"),
        "kernel.recv.ns_per_call": t.ns_per_call("kernel.recv"),
        "kernel.syscall_mean_cycles":
            ratio(send.sim_cycles, send.calls) if send else 0,
        "kernel.self_s": t.self_ns_by_prefix("kernel.") / 1e9,
        "apps.self_s": t.self_ns_by_prefix("apps.") / 1e9,
        "serve.op.ns_per_call": t.ns_per_call("serve.op"),
        "serve.self_s": t.self_ns_by_prefix("serve.") / 1e9,
        "fleet.step_round.ns_per_call": t.ns_per_call("fleet.step_round"),
        "fleet.self_s": t.self_ns_by_prefix("fleet.") / 1e9,
        "bench.self_s": t.self_ns_by_prefix("bench.") / 1e9,
        "trace.overhead_ratio":
            ratio(untraced_ops_per_s, traced_ops_per_s) - 1.0,
        "trace.spans": sum(n.calls for n in t.totals.values()),
        "bench.lat_samples": len(work.latencies),
    })
    return values
