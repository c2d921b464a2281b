"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kv_mix --seed 1 --seconds 30 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
A run repeats *rounds* (build, warm up, measure one fixed seed-generated
op sequence, check) until ``--seconds`` have passed, with at least
``MIN_ROUNDS`` rounds.  Host-time metrics are medians, scaled to a
reference host speed (see ``calib.py``); simulated metrics come from
the first round, and every round must reproduce its simulated counters
exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced round, then traced rounds, and prints the per-layer metrics;
the traced rounds must match the untraced one counter for counter.  The
kept spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every correctness check passed.  ``--workload all``
prints a table of every workload's end-to-end metrics instead.
"""

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from statistics import median  # noqa: E402

from calib import Calibrator  # noqa: E402
from stats import (diff_counters, min_samples_for, percentile,  # noqa: E402
                   ratio)

#: Seed used when ``--seed`` is not given.  Claims are re-checked on
#: ``HELD_OUT_SEED``, which no tuning run may use.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 1
#: ``setup_s`` is the median of at least this many set-ups per run; set-ups
#: beyond the measured rounds' are timed and then dropped.
MIN_SETUPS = 5
WORKLOAD_NAMES = ("kv_mix", "copy_ring", "fleet_failover_lossy",
                  "kv_sockets")


def metric_specs(kind):
    """``[(name, unit), ...]`` of ``end_to_end`` or ``per_layer`` metrics,
    in the order ``BENCHMARK.json`` lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return [(m["name"], m["unit"]) for m in json.load(spec)[kind]]


def entries(values, kind):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_specs(kind)}


def load_workload(name):
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        # Measure this checkout's simulator, never an installed copy.
        raise SystemExit("no simulator sources at %s" % src)
    sys.path.insert(0, src)
    if name == "kv_mix":
        from kv_mix import KvMix
        return KvMix
    if name == "copy_ring":
        from copy_ring import CopyRing
        return CopyRing
    if name == "fleet_failover_lossy":
        from fleet_lossy import FleetFailoverLossy
        return FleetFailoverLossy
    if name == "kv_sockets":
        from kv_sockets import KvSockets
        return KvSockets
    raise SystemExit("unknown workload %r (choose from %s)"
                     % (name, ", ".join(WORKLOAD_NAMES)))


def reference_seconds(calibrator, fn):
    """Host seconds ``fn()`` takes, scaled to the reference host."""
    before = calibrator.speed()
    t0 = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - t0
    return elapsed / calibrator.scale(before, calibrator.speed())


def run_round(cls, seed, calibrator, tracer=None):
    """One round; returns ``(results, setup_s, measure_s)``.

    ``results`` is the workload object after :meth:`Workload.finish`,
    which keeps the counters and samples and drops the machines.
    ``setup_s`` is in reference-host seconds, ``measure_s`` in raw host
    seconds.
    """
    gc.collect()
    work = cls(seed, calibrator, tracer)
    setup_s = reference_seconds(calibrator, work.setup)
    t0 = time.perf_counter()
    work.measure()
    measure_s = time.perf_counter() - t0
    work.finish()
    return work, setup_s, measure_s


def time_setup(cls, seed, calibrator):
    """Reference seconds of one set-up whose round is then dropped."""
    gc.collect()
    work = cls(seed, calibrator)
    elapsed = reference_seconds(calibrator, work.setup)
    work.abandon()
    return elapsed


def end_to_end(rounds, setups):
    first = rounds[0][0]
    lat = first.latencies
    return entries({
        "setup_s": median(setups),
        "ops_per_s": median([rate for r in rounds
                             for rate in r[0].window_rates()]),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_ops_per_mcycle": first.attempted / (first.sim_cycles / 1e6),
        "sim_lat_p50_cycles": percentile(lat, 50) if lat else 0,
        "sim_lat_p99_cycles": percentile(lat, 99) if lat else 0,
        "ok_ratio": ratio(first.ok, first.attempted),
        "slo_ok_ratio": ratio(first.slo_ok(), first.attempted),
    }, "end_to_end")


def consistency_errors(rounds):
    """Failed gates plus any simulated counter that differs from round 1."""
    errors = []
    base = rounds[0][0]
    base_counters = base.counters
    base_latencies = base.latencies
    for i, (work, _s, _m) in enumerate(rounds):
        errors.extend("round %d: %s" % (i, e) for e in work.errors)
        if i == 0:
            continue
        diffs, n = diff_counters(base_counters, work.counters)
        if n:
            errors.append("round %d: %d simulated counters differ from "
                          "round 0, e.g. %s" % (i, n, "; ".join(diffs)))
        if work.latencies != base_latencies:
            errors.append("round %d: simulated latencies differ" % i)
    return errors


def run_untraced(cls, seed, seconds, calibrator):
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(run_round(cls, seed, calibrator))
    setups = [r[1] for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(time_setup(cls, seed, calibrator))
    return rounds, end_to_end(rounds, setups)


def run_traced(cls, seed, seconds, calibrator):
    from layers import per_layer
    from tracer import Tracer
    from workload import HOT_LEAVES

    deadline = time.perf_counter() + seconds
    rounds = [run_round(cls, seed, calibrator)]
    tracers = []
    while (len(rounds) <= MIN_TRACED_ROUNDS
           or time.perf_counter() < deadline):
        tracer = Tracer(aggregate_only=HOT_LEAVES)
        rounds.append(run_round(cls, seed, calibrator, tracer))
        tracers.append(tracer)
    # Counters only the wrappers see must repeat across traced rounds too.
    first = _traced_counters(rounds[1][0], tracers[0])
    for i, tracer in enumerate(tracers[1:], 2):
        diffs, n = diff_counters(first, _traced_counters(rounds[i][0],
                                                          tracer))
        if n:
            rounds[i][0].errors.append("%d traced counters differ, e.g. %s"
                                       % (n, "; ".join(diffs)))
    untraced_ops = rounds[0][0].attempted / rounds[0][2]
    traced_ops = median([r[0].attempted / r[2] for r in rounds[1:]])
    names = [name for name, _unit in metric_specs("per_layer")]
    metrics = entries(per_layer(rounds[1][0], tracers[0], untraced_ops,
                                traced_ops, names), "per_layer")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracers[0].dump(os.path.join(out_dir, "%s-seed%d.spans.jsonl"
                                 % (cls.name, seed)))
    return rounds, metrics


def _traced_counters(work, tracer):
    counters = {"calls." + name: t.calls for name, t in tracer.totals.items()}
    counters["depths"] = tuple(work.depths)
    counters["copy_bytes"] = work.copy_bytes
    return counters


def print_table(rows, out=sys.stdout):
    for label, metrics in rows:
        out.write("%s\n" % label)
        for name, entry in metrics.items():
            out.write("  %-44s %16.6g %s\n" % (name, entry["value"],
                                               entry["unit"]))


def run_all(args):
    """Run every workload in its own process and print one table."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write("%s: FAILED (exit %d)\n%s\n"
                             % (name, proc.returncode, proc.stdout))
            status = 1
            continue
        result = json.loads(lines[-1])
        print_table([("%s (attempted %d, failed %d, correct %s)"
                      % (name, result["attempted"], result["failed"],
                         result["correct"]), result["metrics"])])
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, or all" % ", ".join(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cls = load_workload(args.workload)
    calibrator = Calibrator()
    if args.trace:
        rounds, metrics = run_traced(cls, args.seed, args.seconds,
                                     calibrator)
    else:
        rounds, metrics = run_untraced(cls, args.seed, args.seconds,
                                       calibrator)
    first = rounds[0][0]
    errors = consistency_errors(rounds)
    if first.mismatches:
        errors.append("%d ops returned wrong bytes" % first.mismatches)
    if len(first.latencies) < min_samples_for(99):
        errors.append("%d latency samples leave fewer than 10 beyond p99"
                      % len(first.latencies))
    for error in errors:
        sys.stderr.write("CHECK FAILED: %s\n" % error)
    correct = not errors
    print_table([("%s seed %d: %s, %d rounds, %d latency samples"
                  % (cls.name, args.seed, cls.loop, len(rounds),
                     len(first.latencies)), metrics)])
    print(json.dumps({"correct": correct, "attempted": first.attempted,
                      "failed": first.failed + first.mismatches,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
