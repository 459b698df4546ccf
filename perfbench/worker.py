"""One benchmark process: set up one workload, run it, print one JSON line.

    python3 perfbench/worker.py setup   --workload W --seed N --seconds S
    python3 perfbench/worker.py measure --workload W --seed N --seconds S --trace 0|1

``setup`` times a fresh-process import of ``repro`` plus the workload's
construction and exits.  ``measure`` does the same, then runs the
workload's repetitions untraced (the end-to-end numbers) and, with
``--trace 1``, builds it once more and runs it under cProfile with the
counter collector installed (the per-layer numbers).  ``run.py`` starts these processes;
``src`` must be on ``PYTHONPATH``.

Every timing is taken in host seconds and rescaled to reference seconds
by the host-speed probe (``hostspeed.py``): probes interleaved with the
workload's slices for the timed region, a burst of probes before and
after it for the set-up.
"""

from __future__ import annotations

import time

import hostspeed

#: Probes in each burst around the set-up (about 10 ms).
SETUP_BURST = 50

_BEFORE = hostspeed.burst(SETUP_BURST)
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def _setup(args):
    """Import and build; the set-up's host seconds and reference seconds."""
    import workloads

    workload = workloads.build(args.workload, args.seed)
    host_s = time.perf_counter() - _STARTED
    mean_probe = (_BEFORE + hostspeed.burst(SETUP_BURST)) / 2
    setup = {"host_s": host_s,
             "ref_s": host_s * hostspeed.REFERENCE_PROBE_S / mean_probe}
    return workloads, workload, setup


def _timed(workload, probe, after_op=lambda: None):
    """Run the workload; host seconds of the run, probing excluded."""
    speed = probe.speed
    if speed is not None:
        speed.start()
    begun = time.perf_counter()
    outcome = workload.run(probe, after_op)
    if speed is not None:
        speed.stop()
    wall = time.perf_counter() - begun
    if speed is not None:
        wall -= speed.spent
    return outcome, wall


def _manifest(workloads, workload, args, reps):
    import inspect
    import os
    import platform

    from repro.kernel.backend import resolve
    from repro.kernel.scheduler import Simulator
    from repro.phys.mac import WirelessMedium

    sim = Simulator()
    culling = inspect.signature(WirelessMedium.__init__).parameters["culling"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "repetitions": reps,
        "length": workload.length,
        "length_unit": "" if workload.name == "paper_quick" else "sim_s",
        "slice_sim_s": workloads.SLICE_S[workload.name],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "simulator_defaults": {
            "batching": sim.batching,
            "backend": resolve(None).name,
            "trace": sim.tracer.enabled,
            "trace_mode": sim.tracer.mode,
            "culling": culling.default,
        },
        "env": {key: os.environ.get(key) for key in
                ("REPRO_NO_CACHE", "REPRO_CACHE", "REPRO_KERNEL_BACKEND")},
    }


def _measure(args):
    """Set up, then run ``repetitions`` fresh copies of the workload.

    Each repetition's host seconds are rescaled by the host speed probed
    during that repetition, and each slice by the speed probed while that
    slice ran.  ``wall_s`` is the median repetition, and the slice
    percentiles are taken over the slices of every repetition.
    """
    import resource
    import statistics

    workloads, workload, setup = _setup(args)
    reps = workloads.repetitions(args.workload, args.seconds)
    manifest = _manifest(workloads, workload, args, reps)
    probe = workloads.RunProbe(workloads.SLICE_S[args.workload],
                               hostspeed.HostSpeed()).install()
    outcomes, walls, host_walls, scales, slices = [], [], [], [], []
    try:
        for rep in range(reps):
            if rep:
                workload = workloads.build(args.workload, args.seed)
            probe.samples, probe.spans = [], []
            outcome, wall = _timed(workload, probe)
            speed = probe.speed
            outcomes.append(outcome)
            host_walls.append(wall)
            scales.append(speed.scale())
            walls.append(wall * scales[-1])
            slices.append([t * speed.scale_between(*span) for t, span
                           in zip(probe.samples, probe.spans)])
    finally:
        probe.uninstall()
    first = outcomes[0]
    failures = {}
    for rep, outcome in enumerate(outcomes):
        for op, digest in outcome.digests.items():
            if op in outcome.failures:
                failures[f"rep{rep}/{op}"] = outcome.failures[op]
            elif digest != first.digests.get(op):
                failures[f"rep{rep}/{op}"] = "differs from rep0, same seed"
        if len(slices[rep]) != len(slices[0]):
            failures[f"rep{rep}/slices"] = "slice count differs from rep0"
    out = {
        "manifest": manifest,
        "setup": setup,
        "wall_s": statistics.median(walls),
        "rep_walls_s": walls,
        "rep_host_walls_s": host_walls,
        "rep_scales": scales,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "slices": workloads.slice_stats([t for rep in slices for t in rep]),
        "events": probe.events // reps,
        "attempted": sum(o.attempted for o in outcomes),
        "digests": first.digests,
        "failures": failures,
    }
    if args.trace:
        out["layers"] = _traced(workloads, args, first,
                                statistics.median(host_walls),
                                out["wall_s"], out["events"])
    return out


def _traced(workloads, args, untraced, untraced_host_wall, untraced_wall,
            events):
    """One more repetition under cProfile with the counters collected,
    without host-speed probes (``traced.wall_s`` is in host seconds)."""
    import cProfile

    import layers

    collector = layers.Collector().install()
    probe = workloads.RunProbe(workloads.SLICE_S[args.workload]).install()
    # builtins=False: C functions cost no profiler events; their time
    # lands in the self time of the Python function that called them.
    profiler = cProfile.Profile(builtins=False)
    try:
        workload = workloads.build(args.workload, args.seed)
        profiler.enable()
        try:
            traced, traced_wall = _timed(workload, probe, collector.harvest)
        finally:
            profiler.disable()
    finally:
        probe.uninstall()
        collector.uninstall()
    profiler.create_stats()
    metrics = layers.layer_metrics(layers.attribute(profiler.stats),
                                   traced_wall)
    metrics.update(collector.metrics())
    metrics.update(layers.per_experiment_walls(
        untraced.op_wall_s, workloads.HEAVY_EXPERIMENTS))
    metrics["kernel.events"] = probe.events
    metrics["kernel.us_per_event"] = (1e6 * untraced_wall / events
                                      if events else 0.0)
    metrics["trace_overhead"] = traced_wall / untraced_host_wall
    metrics["traced.wall_s"] = traced_wall
    return {"metrics": metrics,
            "identical": traced.digests == untraced.digests}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        out = {"setup": _setup(args)[2]}
    else:
        out = _measure(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
