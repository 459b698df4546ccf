"""Performance trajectory benchmarks: ``BENCH_<name>.json`` writers.

The ROADMAP's north star is a simulator that runs "as fast as the hardware
allows"; this module is how that claim stays measured rather than asserted.
It runs the E10-style kernel microbenchmarks and an E2 sweep benchmark
in-process, writes machine-readable ``BENCH_kernel.json`` /
``BENCH_sweeps.json`` snapshots (events/sec, sweep wall time, link-cache
hit rate), and gates against the committed baseline so a regression fails
``make bench`` instead of landing silently.

Numbers are wall-clock and therefore machine-dependent: the gate compares
against ``benchmarks/baseline_kernel.json`` *relative* to when that file
was last regenerated (``--update-baseline``), with a generous tolerance.
"""

from __future__ import annotations

import json
import pathlib
import platform
import time
from typing import Any, Callable, Dict, List, Optional

from ..kernel.scheduler import Simulator

#: Events per kernel microbenchmark run (matches benchmarks/test_bench_kernel.py).
KERNEL_EVENTS: int = 20_000

#: Allowed fractional slowdown vs the committed baseline before failing.
REGRESSION_TOLERANCE: float = 0.20

#: Calibration-relative floor on kernel speedup vs the committed baseline.
#: The dispatch-core rewrite (tuple heap entries + monomorphic run loops)
#: must hold a >=2x events/sec advantage over the pre-rewrite baseline
#: *after* normalising both sides by their recorded
#: ``calibration_ops_per_sec``, so a slower or faster host cannot fake a
#: pass or a failure.  See docs/performance.md ("Interpreter overhead and
#: the dispatch core").
DISPATCH_MIN_SPEEDUP: float = 2.0


# ---------------------------------------------------------------------------
# Kernel microbenchmarks (the E10 scalability story)
# ---------------------------------------------------------------------------

def _timer_chain_schedule() -> int:
    """The classic self-rescheduling timer chain via the public API."""
    sim = Simulator(seed=1, trace=False)
    counter = [0]

    def tick() -> None:
        counter[0] += 1
        if counter[0] < KERNEL_EVENTS:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return counter[0]


def _timer_chain_bound() -> int:
    """The same chain through ``schedule_bound`` — the MAC/radio hot path."""
    sim = Simulator(seed=1, trace=False)
    counter = [0]

    def tick() -> None:
        counter[0] += 1
        if counter[0] < KERNEL_EVENTS:
            sim.schedule_bound(0.001, tick)

    sim.schedule_bound(0.0, tick)
    sim.run()
    return counter[0]


def _events_per_sec(fn: Callable[[], int], repeats: int = 5) -> float:
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        count = fn()
        best = min(best, time.perf_counter() - t0)
    return count / best


#: Iterations of the calibration workload (see :func:`calibration_spin`).
CALIBRATION_OPS: int = 200_000


def calibration_spin() -> int:
    """Machine-speed reference: a fixed pure-Python workload that no kernel
    change touches.  The regression gate divides throughput by this so a
    shared box running 2x slower today than when the baseline was recorded
    does not read as a kernel regression (and a real regression still
    shows, because it moves events/sec without moving this)."""
    total = 0
    for i in range(CALIBRATION_OPS):
        total += i & 7
    return total


def _calibration_ops_per_sec(repeats: int = 5) -> float:
    calibration_spin()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        calibration_spin()
        best = min(best, time.perf_counter() - t0)
    return CALIBRATION_OPS / best


def bench_kernel(repeats: int = 5) -> Dict[str, Any]:
    """Measure kernel event throughput on both scheduling paths."""
    return {
        "name": "kernel",
        "events_per_run": KERNEL_EVENTS,
        "events_per_sec": _events_per_sec(_timer_chain_bound, repeats),
        "events_per_sec_public_schedule":
            _events_per_sec(_timer_chain_schedule, repeats),
        "calibration_ops_per_sec": _calibration_ops_per_sec(repeats),
        "source": "in-process",
    }


# ---------------------------------------------------------------------------
# Tracing-overhead benchmark (spans/records vs the disabled fast path)
# ---------------------------------------------------------------------------

#: Allowed slowdown of the tracing-*disabled* path vs the committed kernel
#: baseline.  The span-context plumbing lives on the run loop's hot path,
#: so this is the gate that keeps observability free for sweeps.
TRACE_DISABLED_TOLERANCE: float = 0.05

#: Allowed within-run overhead ratios (enabled-path throughput must stay
#: above this fraction of the disabled path measured in the same process).
#: These floors catch accidental O(n) scans in emit/span_begin, not the
#: ordinary ~4-5x record/span allocation cost.
TRACE_RECORDS_MIN_RATIO: float = 0.10
TRACE_SPANS_MIN_RATIO: float = 0.10


def _timer_chain_records() -> int:
    """Timer chain that emits one trace record per event (ring-bounded)."""
    sim = Simulator(seed=1, trace=True, trace_capacity=1024,
                    trace_mode="ring")
    counter = [0]

    def tick() -> None:
        counter[0] += 1
        sim.trace("bench.tick", "bench", "tick", n=counter[0])
        if counter[0] < KERNEL_EVENTS:
            sim.schedule_bound(0.001, tick)

    sim.schedule_bound(0.0, tick)
    sim.run()
    return counter[0]


def _timer_chain_spans() -> int:
    """Timer chain that opens and closes one span per event."""
    sim = Simulator(seed=1, trace=True, trace_capacity=1024,
                    trace_mode="ring")
    counter = [0]

    def tick() -> None:
        counter[0] += 1
        span = sim.span_begin("bench.tick", "bench")
        if counter[0] < KERNEL_EVENTS:
            sim.schedule_bound(0.001, tick)
        sim.span_end(span)

    sim.schedule_bound(0.0, tick)
    sim.run()
    return counter[0]


def bench_trace(repeats: int = 5) -> Dict[str, Any]:
    """Measure tracing overhead: disabled vs records vs spans.

    ``events_per_sec_disabled`` re-times the bound timer chain with tracing
    off — the figure the <5% gate holds against the committed kernel
    baseline.  The enabled-path ratios are *within-run* (same process, same
    thermal state), so they are portable across machines.
    """
    disabled = _events_per_sec(_timer_chain_bound, repeats)
    records = _events_per_sec(_timer_chain_records, repeats)
    spans = _events_per_sec(_timer_chain_spans, repeats)
    return {
        "name": "trace",
        "events_per_run": KERNEL_EVENTS,
        "events_per_sec_disabled": disabled,
        "events_per_sec_records": records,
        "events_per_sec_spans": spans,
        "records_overhead_ratio": records / disabled if disabled else 0.0,
        "spans_overhead_ratio": spans / disabled if disabled else 0.0,
        "source": "in-process",
    }


def check_trace_regression(current: Dict[str, Any],
                           baseline: Optional[Dict[str, Any]],
                           ) -> List[str]:
    """Gate the tracing benchmark.

    Two kinds of check:

    * the tracing-*disabled* throughput must stay within
      :data:`TRACE_DISABLED_TOLERANCE` of the committed kernel baseline's
      ``events_per_sec`` (the span plumbing must not tax sweeps that never
      trace) — skipped when there is no baseline;
    * the enabled paths must stay above fixed fractions of the disabled
      path measured in the same run, catching accidental slow paths in
      ``emit``/``span_begin`` without any machine dependence.
    """
    failures = []
    disabled = current.get("events_per_sec_disabled") or 0.0
    if baseline is not None and baseline.get("events_per_sec"):
        floor = baseline["events_per_sec"] * (1.0 - TRACE_DISABLED_TOLERANCE)
        if disabled < floor:
            failures.append(
                f"events_per_sec_disabled: {disabled:,.0f} is more than "
                f"{TRACE_DISABLED_TOLERANCE:.0%} below the committed kernel "
                f"baseline {baseline['events_per_sec']:,.0f} "
                f"(floor {floor:,.0f}) — tracing must stay free when off")
    for key, minimum in (("records_overhead_ratio", TRACE_RECORDS_MIN_RATIO),
                         ("spans_overhead_ratio", TRACE_SPANS_MIN_RATIO)):
        ratio = current.get(key) or 0.0
        if ratio < minimum:
            failures.append(
                f"{key}: {ratio:.2f} below the {minimum:.2f} floor — the "
                f"enabled tracing path got disproportionately slower")
    return failures


# ---------------------------------------------------------------------------
# Sweep benchmark (E2 density sweep, serial vs parallel, cache hit rate)
# ---------------------------------------------------------------------------

#: Floor on the parallel-over-serial sweep speedup — enforced only on
#: hosts with at least this many usable CPUs (one core per worker), since
#: a fork pool cannot beat serial execution on fewer cores no matter how
#: light the pipe traffic is.
SWEEPS_MIN_PARALLEL_SPEEDUP: float = 2.0
SWEEPS_MIN_CPUS_FOR_GATE: int = 4


def _usable_cpus() -> int:
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        import multiprocessing
        return multiprocessing.cpu_count()


def bench_sweeps(workers: int = 4,
                 densities=(0, 2, 4, 8),
                 duration: float = 5.0) -> Dict[str, Any]:
    """Time the E2 sweep serial vs parallel and report cache behaviour.

    The parallel/serial row comparison doubles as a determinism check —
    ``rows_identical`` must be True on every machine.  ``cpus`` records
    how many cores the process may actually use (container affinity, not
    nominal machine size) and ``bytes_shipped`` the pickled traffic that
    crossed the pool pipe — the two numbers that explain a flat speedup.
    """
    from ..phys.mac import WirelessMedium  # noqa: F401  (import sanity)
    from .e2_interference import run as e2_run
    from .workloads import interferer_field, projector_room

    t0 = time.perf_counter()
    serial = e2_run(densities=densities, duration=duration)
    serial_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = e2_run(densities=densities, duration=duration, workers=workers)
    parallel_wall = time.perf_counter() - t0

    # Link-cache hit rate on a representative dense room.
    room = projector_room(seed=2, trace=False, register=False)
    interferer_field(room, 16, frames_per_second=20.0)
    room.sim.run(until=3.0)
    cache_stats = room.medium.link_cache.stats()

    return {
        "name": "sweeps",
        "sweep_points": len(serial.rows),
        "duration_per_point_s": duration,
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "workers": workers,
        "cpus": _usable_cpus(),
        "parallel_speedup": serial_wall / parallel_wall if parallel_wall else 0.0,
        "rows_identical": serial.rows == parallel.rows,
        "bytes_shipped": parallel.meta.get("bytes_shipped"),
        "link_cache": cache_stats,
    }


def check_sweeps_regression(current: Dict[str, Any]) -> List[str]:
    """Gate the sweep benchmark.

    Row identity between serial and parallel runs is mandatory on every
    machine.  The parallel-speedup floor applies only when the host has
    enough usable cores (:data:`SWEEPS_MIN_CPUS_FOR_GATE`) for the fork
    pool to pay at all — on a 1-core container the parallel run shares
    one core with the parent and the ratio is pure scheduling noise.
    """
    failures = []
    if not current.get("rows_identical", False):
        failures.append(
            "rows_identical: parallel sweep rows differ from serial rows")
    cpus = current.get("cpus") or 1
    if cpus >= SWEEPS_MIN_CPUS_FOR_GATE:
        speedup = current.get("parallel_speedup") or 0.0
        if speedup < SWEEPS_MIN_PARALLEL_SPEEDUP:
            failures.append(
                f"parallel_speedup: {speedup:.2f}x below the "
                f"{SWEEPS_MIN_PARALLEL_SPEEDUP:.1f}x floor on a "
                f"{cpus}-cpu host — the pool is shipping too much or "
                f"serialising somewhere")
    return failures


# ---------------------------------------------------------------------------
# Run-cache benchmark (incremental sweeps: cold vs warm)
# ---------------------------------------------------------------------------

#: Machine-independent floor on the warm-cache re-run speedup of the E2
#: sweep.  A warmed cache replays rows from a handful of small JSON files,
#: so real figures are 30-100x; 5x catches the replay path silently
#: recomputing without flapping on slow disks.
CACHE_MIN_WARM_SPEEDUP: float = 5.0

#: Ceiling on the cold-run cost of caching (key hashing + source digest +
#: entry writes) as a fraction of the uncached wall time.
CACHE_MAX_COLD_OVERHEAD: float = 0.05

#: With a committed baseline, the warm speedup may degrade to this
#: fraction of the recorded figure before the gate fires — generous
#: because warm runs are milliseconds and relative timing noise is large.
CACHE_BASELINE_SPEEDUP_FRACTION: float = 0.25


def bench_cache(densities=(0, 2, 4), duration: float = 10.0,
                repeats: int = 3) -> Dict[str, Any]:
    """Cold vs warm E2 sweep through the content-addressed run cache.

    Three modes of the same sweep: *uncached* (``cache=False``), *cold*
    (caching on, empty directory — computes and stores), *warm* (same
    directory again — replays every row from disk).  Uncached and cold
    are interleaved best-of-``repeats`` so a host-load phase cannot land
    on one mode only; each cold round gets a fresh directory.  Rows must
    be byte-identical across all three modes — the cache is only allowed
    to be faster, never different.
    """
    import tempfile

    from .cache import RunCache, source_digest
    from .e2_interference import run as e2_run

    # The source digest is memoized process-wide (one hash per session,
    # amortised over every sweep); prewarm it so the cold figure measures
    # steady-state caching cost, not the one-time hash.
    source_digest()

    kwargs = dict(densities=densities, duration=duration)
    uncached_wall = float("inf")
    cold_wall = float("inf")
    uncached = cold = warm = None
    with tempfile.TemporaryDirectory() as tmp:
        for attempt in range(max(1, repeats)):
            t0 = time.perf_counter()
            uncached = e2_run(cache=False, **kwargs)
            uncached_wall = min(uncached_wall, time.perf_counter() - t0)

            cache = RunCache(pathlib.Path(tmp) / f"round-{attempt}")
            t0 = time.perf_counter()
            cold = e2_run(cache=cache, **kwargs)
            cold_wall = min(cold_wall, time.perf_counter() - t0)

        # Warm replay against the last round's populated cache.
        warm_wall = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            warm = e2_run(cache=cache, **kwargs)
            warm_wall = min(warm_wall, time.perf_counter() - t0)

    identical = (uncached.rows == cold.rows == warm.rows
                 and uncached.columns == cold.columns == warm.columns
                 and uncached.telemetry == cold.telemetry == warm.telemetry)
    return {
        "name": "cache",
        "sweep_points": len(uncached.rows),
        "duration_per_point_s": duration,
        "uncached_wall_s": uncached_wall,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup": uncached_wall / warm_wall if warm_wall else 0.0,
        "cold_overhead_ratio": (cold_wall / uncached_wall - 1.0
                                if uncached_wall else 0.0),
        "warm_hit_rate": warm.meta["cache"]["hit_rate"],
        "cold_stores": cold.meta["cache"]["stores"],
        "rows_identical": identical,
        "source": "in-process",
    }


def check_cache_regression(current: Dict[str, Any],
                           baseline: Optional[Dict[str, Any]],
                           ) -> List[str]:
    """Gate the run-cache benchmark.

    Machine-independent checks always run: cached and uncached rows must
    be identical, a warm run must be served entirely from cache, the warm
    speedup must clear :data:`CACHE_MIN_WARM_SPEEDUP` and the cold
    overhead must stay under :data:`CACHE_MAX_COLD_OVERHEAD`.  A
    like-sourced committed baseline additionally floors the warm speedup
    at :data:`CACHE_BASELINE_SPEEDUP_FRACTION` of its recorded figure.
    """
    failures = []
    if not current.get("rows_identical", False):
        failures.append(
            "rows_identical: cached and uncached sweep results diverged — "
            "the run cache replayed different rows than it stored")
    hit_rate = current.get("warm_hit_rate") or 0.0
    if hit_rate < 1.0:
        failures.append(
            f"warm_hit_rate: {hit_rate:.1%} — a warm re-run recomputed "
            f"points it should have replayed (key instability?)")
    speedup = current.get("warm_speedup") or 0.0
    if speedup < CACHE_MIN_WARM_SPEEDUP:
        failures.append(
            f"warm_speedup: {speedup:.1f}x below the "
            f"{CACHE_MIN_WARM_SPEEDUP:.0f}x floor — warm replay is no "
            f"longer paying")
    overhead = current.get("cold_overhead_ratio")
    if overhead is not None and overhead > CACHE_MAX_COLD_OVERHEAD:
        failures.append(
            f"cold_overhead_ratio: {overhead:.1%} above the "
            f"{CACHE_MAX_COLD_OVERHEAD:.0%} ceiling — caching is taxing "
            f"cold sweeps")
    if baseline is not None and baseline.get("source") == current.get("source"):
        base = baseline.get("warm_speedup")
        if base:
            floor = base * CACHE_BASELINE_SPEEDUP_FRACTION
            if speedup < floor:
                failures.append(
                    f"warm_speedup: {speedup:.1f}x is below "
                    f"{CACHE_BASELINE_SPEEDUP_FRACTION:.0%} of the committed "
                    f"baseline {base:.1f}x (floor {floor:.1f}x)")
    return failures


# ---------------------------------------------------------------------------
# Population-scale benchmark (spatial-grid audibility culling)
# ---------------------------------------------------------------------------

#: Station counts for the scale benchmark (the ISSUE's 200/500/1000 ladder).
SCALE_STATIONS = (200, 500, 1000)

#: Simulated seconds per scale point (broadcast-heavy, 2 frames/s/station).
SCALE_DURATION_S: float = 2.0

#: Machine-independent floor on culled-vs-exhaustive speedup at the largest
#: population.  Both modes run in the same process back to back, so the
#: ratio is portable; the ISSUE requires >=3x on the reference machine and
#: this gate catches the fast path silently degenerating to a full scan.
SCALE_MIN_SPEEDUP: float = 2.0


def _run_broadcast_point(stations: int, culling: bool,
                         duration: float) -> Dict[str, Any]:
    from .workloads import broadcast_room

    room = broadcast_room(stations, culling=culling)
    t0 = time.perf_counter()
    room.sim.run(until=duration)
    wall = time.perf_counter() - t0
    events = room.sim.events_executed
    return {
        "culling": culling,
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall else 0.0,
        "deliveries": sorted(room.deliveries),
        "tx_attempts": sum(m.stats["tx_attempts"] for m in room.macs),
        "rx_frames": sum(m.stats["rx_frames"] for m in room.macs),
        "culling_stats": room.medium.culling_stats(),
    }


def bench_scale(stations=SCALE_STATIONS,
                duration: float = SCALE_DURATION_S) -> Dict[str, Any]:
    """Wall time and events/sec for growing populations, culled vs not.

    Each station count runs the same broadcast-heavy room twice — once
    with the spatial-grid audible-set fast path, once with the exhaustive
    all-stations scan — and the delivery logs must match exactly
    (``outcomes_identical``): the fast path is only allowed to be faster,
    never different.
    """
    rows: List[Dict[str, Any]] = []
    identical = True
    for n in stations:
        culled = _run_broadcast_point(n, True, duration)
        exhaustive = _run_broadcast_point(n, False, duration)
        same = (culled["deliveries"] == exhaustive["deliveries"]
                and culled["tx_attempts"] == exhaustive["tx_attempts"]
                and culled["rx_frames"] == exhaustive["rx_frames"])
        identical = identical and same
        rows.append({
            "stations": n,
            "culled_wall_s": culled["wall_s"],
            "exhaustive_wall_s": exhaustive["wall_s"],
            "culled_events_per_sec": culled["events_per_sec"],
            "exhaustive_events_per_sec": exhaustive["events_per_sec"],
            "speedup": (exhaustive["wall_s"] / culled["wall_s"]
                        if culled["wall_s"] else 0.0),
            "events": culled["events"],
            "deliveries": len(culled["deliveries"]),
            "tx_attempts": culled["tx_attempts"],
            "cull_rate": culled["culling_stats"]["cull_rate"],
            "set_reuses": culled["culling_stats"]["set_reuses"],
            "outcomes_identical": same,
        })
    top = rows[-1]
    return {
        "name": "scale",
        "duration_s": duration,
        "rows": rows,
        "speedup_at_max": top["speedup"],
        "culled_events_per_sec_at_max": top["culled_events_per_sec"],
        "outcomes_identical": identical,
        "source": "in-process",
    }


def check_scale_regression(current: Dict[str, Any],
                           baseline: Optional[Dict[str, Any]],
                           tolerance: float = REGRESSION_TOLERANCE,
                           ) -> List[str]:
    """Gate the scale benchmark.

    Machine-independent checks always run: the culled and exhaustive runs
    must produce identical outcomes, and the speedup at the largest
    population must clear :data:`SCALE_MIN_SPEEDUP`.  When a like-sourced
    committed baseline exists, culled throughput at the largest population
    must additionally stay within ``tolerance`` of it.
    """
    failures = []
    if not current.get("outcomes_identical", False):
        failures.append(
            "outcomes_identical: culled and exhaustive runs diverged — "
            "the audibility fast path changed simulation outcomes")
    speedup = current.get("speedup_at_max") or 0.0
    if speedup < SCALE_MIN_SPEEDUP:
        failures.append(
            f"speedup_at_max: {speedup:.2f}x below the {SCALE_MIN_SPEEDUP:.1f}x "
            f"floor — culling is no longer paying at the largest population")
    if baseline is not None and baseline.get("source") == current.get("source"):
        base = baseline.get("culled_events_per_sec_at_max")
        now = current.get("culled_events_per_sec_at_max")
        if base and now:
            floor = base * (1.0 - tolerance)
            if now < floor:
                failures.append(
                    f"culled_events_per_sec_at_max: {now:,.0f} is more than "
                    f"{tolerance:.0%} below the committed baseline "
                    f"{base:,.0f} (floor {floor:,.0f})")
    return failures


# ---------------------------------------------------------------------------
# Sharded-simulation benchmark (conservative parallel DES)
# ---------------------------------------------------------------------------

#: Cells (= shards) in the disjoint-rooms configuration.
SHARD_CELLS: int = 4

#: Stations per cell; 4 x 300 puts the disjoint config in the ISSUE's
#: 1k-5k band while keeping the single-process oracle under ~10 s.
SHARD_STATIONS_PER_CELL: int = 300

#: Simulated horizon for the disjoint configuration.
SHARD_HORIZON_S: float = 0.5

#: Lookahead for the sharded runs (cross-boundary propagation plus MAC
#: turnaround; generous because the disjoint config freeruns anyway).
SHARD_LOOKAHEAD_S: float = 5e-3

#: Machine-independent floor on oracle-vs-sharded speedup with one shard
#: per cell — applied only with enough usable cores (below).
SHARD_MIN_SPEEDUP: float = 2.0

#: Fork-per-shard parallelism cannot pay on a container pinned to fewer
#: cores than shards; the speedup floor is gated like the sweeps one.
SHARD_MIN_CPUS_FOR_GATE: int = 4


def bench_shard(cells: int = SHARD_CELLS,
                stations_per_cell: int = SHARD_STATIONS_PER_CELL,
                horizon: float = SHARD_HORIZON_S,
                lookahead: float = SHARD_LOOKAHEAD_S) -> Dict[str, Any]:
    """Sharded multi-cell run vs the single-process culled oracle.

    Two configurations, mirroring the equivalence methodology of the
    culling bench:

    * **disjoint rooms** — cells further apart than the interference
      radius, one shard per cell.  Outcomes (per-room delivery logs) and
      merged telemetry must be byte-identical to the oracle on every
      machine; the wall-clock ratio is the headline speedup.
    * **boundary-coupled** — a bridged link and remote-registry traffic
      across shards.  There is no single-process oracle here (the
      boundary latency *is* the model), so the multi-process run is held
      byte-identical to the in-process coordinator instead.
    """
    from ..kernel.shard import ShardedSimulator, merge_summaries
    from ..telemetry.summary import telemetry_summary
    from .cellgrid import (cell_layout, cell_room_builders, cell_rooms,
                           coupled_cell_builders, deliveries_by_room)

    layout = cell_layout(cells=cells, stations_per_cell=stations_per_cell,
                         seed=7)

    t0 = time.perf_counter()
    oracle = cell_rooms(layout)
    oracle.sim.run(until=horizon)
    oracle_wall = time.perf_counter() - t0
    oracle_summary = telemetry_summary(oracle.sim, stream=oracle.aggregator)

    t0 = time.perf_counter()
    engine = ShardedSimulator(cell_room_builders(layout, cells),
                              lookahead=lookahead)
    engine.run(until=horizon)
    sharded_wall = time.perf_counter() - t0
    merged_rows = [entry for rows in engine.results for entry in rows]
    rows_identical = (deliveries_by_room(layout, oracle.deliveries)
                      == deliveries_by_room(layout, merged_rows))
    telemetry_identical = (merge_summaries([oracle_summary])
                           == engine.telemetry())

    # Boundary-coupled: small population, the sync protocol is the load.
    coupled_layout = cell_layout(cells=cells, stations_per_cell=15, seed=3)
    coupled_runs = []
    coupled_walls = []
    for processes in (False, True):
        t0 = time.perf_counter()
        coupled = ShardedSimulator(
            coupled_cell_builders(coupled_layout, cells),
            lookahead=2e-3, processes=processes)
        coupled.run(until=1.0)
        coupled_walls.append(time.perf_counter() - t0)
        coupled_runs.append(coupled)
    inline_run, process_run = coupled_runs
    coupled_identical = (inline_run.results == process_run.results
                         and inline_run.telemetry()
                         == process_run.telemetry())

    return {
        "name": "shard",
        "stations": layout.stations,
        "cells": cells,
        "shards": cells,
        "horizon_s": horizon,
        "lookahead_s": lookahead,
        "oracle_wall_s": oracle_wall,
        "sharded_wall_s": sharded_wall,
        "oracle_deliveries": len(oracle.deliveries),
        "oracle_deliveries_per_sec": (len(oracle.deliveries) / oracle_wall
                                      if oracle_wall else 0.0),
        "speedup": oracle_wall / sharded_wall if sharded_wall else 0.0,
        "mode": engine.stats["mode"],
        "rounds": engine.stats["rounds"],
        "outcomes_identical": rows_identical,
        "telemetry_identical": telemetry_identical,
        "coupled": {
            "stations": coupled_layout.stations,
            "inline_wall_s": coupled_walls[0],
            "process_wall_s": coupled_walls[1],
            "rounds": process_run.stats["rounds"],
            "boundary_events": process_run.stats["boundary_events"],
            "outcomes_identical": coupled_identical,
        },
        "cpus": _usable_cpus(),
        "source": "in-process",
    }


def check_shard_regression(current: Dict[str, Any],
                           baseline: Optional[Dict[str, Any]],
                           tolerance: float = REGRESSION_TOLERANCE,
                           ) -> List[str]:
    """Gate the shard benchmark.

    Outcome identity is mandatory on every machine, in both directions:
    the disjoint sharded run against the single-process oracle, and the
    coupled multi-process run against the in-process coordinator.  The
    :data:`SHARD_MIN_SPEEDUP` floor applies only when the host has at
    least :data:`SHARD_MIN_CPUS_FOR_GATE` usable cores *and* the run
    actually forked (``mode == "processes"``) — on a pinned container
    the shards time-slice one core and the ratio is scheduling noise.
    A like-sourced committed baseline additionally floors the oracle's
    absolute delivery throughput, catching the workload itself slowing
    down under the tolerance everything else is measured against.
    """
    failures = []
    if not current.get("outcomes_identical", False):
        failures.append(
            "outcomes_identical: sharded disjoint-cell rows diverged from "
            "the single-process oracle — partitioned execution changed "
            "simulation outcomes")
    if not current.get("telemetry_identical", False):
        failures.append(
            "telemetry_identical: merged per-shard telemetry diverged "
            "from the oracle summary")
    coupled = current.get("coupled") or {}
    if not coupled.get("outcomes_identical", False):
        failures.append(
            "coupled.outcomes_identical: multi-process coupled run "
            "diverged from the in-process coordinator — boundary-event "
            "ordering is not deterministic")
    cpus = current.get("cpus") or 1
    if (cpus >= SHARD_MIN_CPUS_FOR_GATE
            and current.get("mode") == "processes"):
        speedup = current.get("speedup") or 0.0
        if speedup < SHARD_MIN_SPEEDUP:
            failures.append(
                f"speedup: {speedup:.2f}x below the "
                f"{SHARD_MIN_SPEEDUP:.1f}x floor on a {cpus}-cpu host — "
                f"sharding is no longer paying on disjoint cells")
    if baseline is not None and baseline.get("source") == current.get("source"):
        base = baseline.get("oracle_deliveries_per_sec")
        now = current.get("oracle_deliveries_per_sec")
        if base and now:
            floor = base * (1.0 - tolerance)
            if now < floor:
                failures.append(
                    f"oracle_deliveries_per_sec: {now:,.0f} is more than "
                    f"{tolerance:.0%} below the committed baseline "
                    f"{base:,.0f} (floor {floor:,.0f})")
    return failures


# ---------------------------------------------------------------------------
# Telemetry-export benchmark (JSONL vs columnar vs streaming at 1M events)
# ---------------------------------------------------------------------------

#: Logical trace records in the export comparison (the million-event
#: regime the columnar path exists for).
TELEMETRY_EVENTS: int = 1_000_000

#: Records generated per chunk — the export arms regenerate each chunk
#: and never hold the full record list, so the benchmark itself stays
#: bounded-memory at any event count.
TELEMETRY_CHUNK: int = 20_000

#: One completed span rides along per this many records.
TELEMETRY_SPAN_EVERY: int = 25

#: Machine-independent floor on JSONL-bytes / columnar-bytes.
TELEMETRY_MIN_SIZE_RATIO: float = 3.0

#: Machine-independent floor on JSONL-wall / columnar-wall for the same
#: logical lines (both figures timed in the same process, back to back).
TELEMETRY_MIN_WRITE_SPEEDUP: float = 2.0

#: Ceiling on streaming-aggregation peak memory as a fraction of the
#: record-replay peak for the same run — the "no full record list" gate.
TELEMETRY_MAX_MEMORY_RATIO: float = 0.25

#: Kernel events in the streaming-vs-replay memory probe.
TELEMETRY_MEMORY_EVENTS: int = 200_000

#: Kernel events in the streaming-vs-replay summary equivalence check.
TELEMETRY_SUMMARY_EVENTS: int = 50_000

_TELEMETRY_CATEGORIES = ("mac.tx", "mac.rx", "net.route", "transport.send",
                         "session.lease", "env.sense", "disc.announce",
                         "bench.tick")
_TELEMETRY_SOURCES = tuple(f"station-{i:02d}" for i in range(32))
_TELEMETRY_MESSAGES = ("queued", "sent", "delivered", "dropped",
                       "retry scheduled", "acknowledged", "renewed",
                       "expired")


def _telemetry_chunk(chunk_index: int, size: int):
    """One deterministic chunk of synthetic records + completed spans.

    The mix mirrors real traces: heavily repeated category/source/message
    vocabulary (what dictionary encoding exploits) with a thin stream of
    unique messages (what keeps the string pool honest), and small
    structured payloads drawn from a bounded value set.
    """
    from ..kernel.trace import Span, TraceRecord

    base = chunk_index * size
    records = []
    spans = []
    for k in range(size):
        i = base + k
        if i % 50 == 0:
            message = f"unique event {i}"
        else:
            message = _TELEMETRY_MESSAGES[i % 8]
        records.append(TraceRecord(
            time=i * 1e-3,
            category=_TELEMETRY_CATEGORIES[i % 8],
            source=_TELEMETRY_SOURCES[i % 32],
            message=message,
            data={"n": i & 63, "batch": chunk_index},
        ))
        if i % TELEMETRY_SPAN_EVERY == 0:
            span_id = i // TELEMETRY_SPAN_EVERY + 1
            spans.append(Span(
                span_id=span_id,
                parent_id=span_id - 1 if span_id > 1 and span_id % 4 == 0
                else None,
                category="bench.step",
                source=_TELEMETRY_SOURCES[i % 32],
                start=i * 1e-3,
                end=i * 1e-3 + 5e-4,
                status="ok"))
    return records, spans


def _time_export(writer_factory: Callable[[], Any], events: int,
                 chunk: int) -> Dict[str, Any]:
    """Feed the synthetic workload through one writer, timing only the
    writer calls (chunk generation is identical across formats and runs
    untimed, so the figure isolates export cost)."""
    snapshot = {"time": events * 1e-3,
                "counters": {"bench.records": float(events)},
                "gauges": {}, "latencies": {}, "probes": {}}
    writer = writer_factory()
    wall = 0.0
    chunks = max(1, events // chunk)
    for chunk_index in range(chunks):
        records, spans = _telemetry_chunk(chunk_index, chunk)
        t0 = time.perf_counter()
        for record in records:
            writer.write_record(record)
        for span in spans:
            writer.write_span(span)
        wall += time.perf_counter() - t0
    t0 = time.perf_counter()
    writer.write_metrics(snapshot)
    writer.close()
    wall += time.perf_counter() - t0
    return {"wall_s": wall, "bytes": writer.path.stat().st_size,
            "lines": writer.lines}


def _telemetry_chain(n_events: int, trace_mode: str, attach: bool):
    """A seeded kernel run emitting records/issues/spans every event —
    the live-simulation side of the streaming comparisons."""
    from ..telemetry.streaming import StreamingAggregator

    kwargs = {} if trace_mode == "head" else {"trace_mode": trace_mode}
    sim = Simulator(seed=11, trace=True, **kwargs)
    aggregator = (StreamingAggregator(user_sources=("bench-user",))
                  .attach(sim) if attach else None)
    counter = [0]

    def tick() -> None:
        counter[0] += 1
        i = counter[0]
        sim.trace("bench.tick", "bench", "tick", n=i & 63)
        if i % 100 == 0:
            sim.issue("issue.session", "bench-user", "renewal stalled", n=i)
        if i % TELEMETRY_SPAN_EVERY == 0:
            span = sim.span_begin("bench.step", "bench")
            sim.span_end(span)
        if i < n_events:
            sim.schedule_bound(0.001, tick)

    sim.schedule_bound(0.0, tick)
    sim.run()
    return sim, aggregator


def _peak_memory(fn: Callable[[], Any]) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def bench_telemetry(events: int = TELEMETRY_EVENTS,
                    chunk: int = TELEMETRY_CHUNK) -> Dict[str, Any]:
    """JSONL vs columnar export cost plus streaming-aggregation bounds.

    Four arms:

    * **export**: the same ``events`` synthetic records (+ spans + one
      metrics snapshot) through ``JsonlWriter`` and ``ColumnarWriter``,
      chunked so neither the benchmark nor the writers ever hold the
      full record list; reports bytes-on-disk and writer-only wall time.
    * **summary equivalence**: twin seeded kernel runs — one stored and
      replayed, one ``stream``-mode folded by a
      ``StreamingAggregator`` — must produce byte-identical
      ``telemetry_summary`` dicts.
    * **memory**: the same run traced in ``head`` mode (stores every
      record) vs ``stream`` mode (stores nothing), peak traced memory
      compared; streaming must stay under
      :data:`TELEMETRY_MAX_MEMORY_RATIO` of replay.
    * **disabled path**: the bound timer chain with tracing off, the
      figure gated within :data:`TRACE_DISABLED_TOLERANCE` of the
      committed kernel baseline — subscriber/hook plumbing must stay
      free for sweeps that never trace.
    """
    import tempfile

    from ..telemetry.columnar import ColumnarWriter
    from ..telemetry.jsonl import JsonlWriter
    from ..telemetry.summary import telemetry_summary

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        jsonl = _time_export(
            lambda: JsonlWriter(tmp_path / "bench.jsonl"), events, chunk)
        columnar = _time_export(
            lambda: ColumnarWriter(tmp_path / "bench.npz"), events, chunk)

    replay_sim, _ = _telemetry_chain(TELEMETRY_SUMMARY_EVENTS, "head", False)
    stream_sim, aggregator = _telemetry_chain(
        TELEMETRY_SUMMARY_EVENTS, "stream", True)
    replay_summary = telemetry_summary(replay_sim,
                                       user_sources=("bench-user",))
    stream_summary = telemetry_summary(stream_sim, stream=aggregator)
    summary_identical = (
        json.dumps(replay_summary, sort_keys=True, default=repr)
        == json.dumps(stream_summary, sort_keys=True, default=repr))
    stream_stored_records = len(stream_sim.tracer.records)
    stream_stored_spans = len(stream_sim.tracer.spans)

    replay_peak = _peak_memory(
        lambda: _telemetry_chain(TELEMETRY_MEMORY_EVENTS, "head", False))
    stream_peak = _peak_memory(
        lambda: _telemetry_chain(TELEMETRY_MEMORY_EVENTS, "stream", True))

    return {
        "name": "telemetry",
        "events": events,
        "spans": events // TELEMETRY_SPAN_EVERY,
        "jsonl_wall_s": jsonl["wall_s"],
        "columnar_wall_s": columnar["wall_s"],
        "write_speedup": (jsonl["wall_s"] / columnar["wall_s"]
                          if columnar["wall_s"] else 0.0),
        "jsonl_bytes": jsonl["bytes"],
        "columnar_bytes": columnar["bytes"],
        "size_ratio": (jsonl["bytes"] / columnar["bytes"]
                       if columnar["bytes"] else 0.0),
        "lines_identical": jsonl["lines"] == columnar["lines"],
        "summary_events": TELEMETRY_SUMMARY_EVENTS,
        "summary_identical": summary_identical,
        "stream_stored_records": stream_stored_records,
        "stream_stored_spans": stream_stored_spans,
        "memory_events": TELEMETRY_MEMORY_EVENTS,
        "replay_peak_bytes": replay_peak,
        "stream_peak_bytes": stream_peak,
        "stream_memory_ratio": (stream_peak / replay_peak
                                if replay_peak else 0.0),
        "events_per_sec_disabled": _events_per_sec(_timer_chain_bound, 3),
        "source": "in-process",
    }


def check_telemetry_regression(current: Dict[str, Any],
                               baseline: Optional[Dict[str, Any]],
                               kernel_baseline: Optional[Dict[str, Any]]
                               = None) -> List[str]:
    """Gate the telemetry benchmark.

    Machine-independent checks always run: streaming summaries must be
    byte-identical to replay, ``stream`` mode must store nothing, the
    columnar file must be :data:`TELEMETRY_MIN_SIZE_RATIO` smaller and
    :data:`TELEMETRY_MIN_WRITE_SPEEDUP` faster to write than JSONL, and
    streaming peak memory must stay under
    :data:`TELEMETRY_MAX_MEMORY_RATIO` of replay.  The tracing-disabled
    kernel path is gated within :data:`TRACE_DISABLED_TOLERANCE` of the
    committed *kernel* baseline (the PR 2 contract); a like-sourced
    telemetry baseline additionally floors the size ratio, which is
    near-deterministic for the fixed synthetic workload.
    """
    failures = []
    if not current.get("summary_identical", False):
        failures.append(
            "summary_identical: the streaming aggregator's summary "
            "diverged from the record-replay summary")
    if current.get("stream_stored_records") or \
            current.get("stream_stored_spans"):
        failures.append(
            f"stream mode retained state: "
            f"{current.get('stream_stored_records')} records / "
            f"{current.get('stream_stored_spans')} spans stored — the "
            f"tracer must hold nothing in stream mode")
    size_ratio = current.get("size_ratio") or 0.0
    if size_ratio < TELEMETRY_MIN_SIZE_RATIO:
        failures.append(
            f"size_ratio: columnar is only {size_ratio:.1f}x smaller than "
            f"JSONL, below the {TELEMETRY_MIN_SIZE_RATIO:.0f}x floor")
    speedup = current.get("write_speedup") or 0.0
    if speedup < TELEMETRY_MIN_WRITE_SPEEDUP:
        failures.append(
            f"write_speedup: columnar export is only {speedup:.1f}x faster "
            f"than JSONL, below the {TELEMETRY_MIN_WRITE_SPEEDUP:.0f}x floor")
    if not current.get("lines_identical", False):
        failures.append(
            "lines_identical: the two exporters wrote different logical "
            "line counts for the same workload")
    memory_ratio = current.get("stream_memory_ratio")
    if memory_ratio is None or memory_ratio > TELEMETRY_MAX_MEMORY_RATIO:
        failures.append(
            f"stream_memory_ratio: {memory_ratio} above the "
            f"{TELEMETRY_MAX_MEMORY_RATIO:.2f} ceiling — streaming "
            f"aggregation is no longer bounded-memory")
    disabled = current.get("events_per_sec_disabled") or 0.0
    if kernel_baseline is not None and \
            kernel_baseline.get("source") == current.get("source") and \
            kernel_baseline.get("events_per_sec"):
        floor = kernel_baseline["events_per_sec"] * \
            (1.0 - TRACE_DISABLED_TOLERANCE)
        if disabled < floor:
            failures.append(
                f"events_per_sec_disabled: {disabled:,.0f} is more than "
                f"{TRACE_DISABLED_TOLERANCE:.0%} below the committed kernel "
                f"baseline {kernel_baseline['events_per_sec']:,.0f} "
                f"(floor {floor:,.0f}) — telemetry hooks must stay free "
                f"when unused")
    if baseline is not None and \
            baseline.get("source") == current.get("source"):
        base_ratio = baseline.get("size_ratio")
        if base_ratio:
            floor = base_ratio * 0.9
            if size_ratio < floor:
                failures.append(
                    f"size_ratio: {size_ratio:.1f}x is below 90% of the "
                    f"committed baseline {base_ratio:.1f}x "
                    f"(floor {floor:.1f}x) — the columnar encoding got "
                    f"fatter")
    return failures


# ---------------------------------------------------------------------------
# JSON persistence and the regression gate
# ---------------------------------------------------------------------------

def _environment() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def write_bench_json(directory: pathlib.Path, payload: Dict[str, Any]) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``directory`` and return the path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{payload['name']}.json"
    body = dict(payload)
    body["environment"] = _environment()
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    path = pathlib.Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def check_regression(current: Dict[str, Any],
                     baseline: Optional[Dict[str, Any]],
                     tolerance: float = REGRESSION_TOLERANCE) -> List[str]:
    """Compare kernel throughput against the committed baseline.

    Returns a list of human-readable failures (empty = pass).  A missing
    baseline passes with a warning-free result so fresh clones can bootstrap
    one with ``--update-baseline``.

    The committed baseline should be *conservative* — the slowest
    full-suite figures the reference machine produces, not its best day —
    because shared-box throughput legitimately swings (CPU-frequency
    ramps, host load phases); see docs/performance.md.

    Two uses of ``calibration_ops_per_sec``:

    * the *tolerance* floor below deliberately ignores it — observed host
      noise slows the allocation-heavy kernel loops without slowing pure
      arithmetic, so rescaling the 20% band by it misfires;
    * the *dispatch-core speedup* floor divides both sides by it: the
      committed baseline predates the tuple-entry rewrite, so current
      throughput must be at least :data:`DISPATCH_MIN_SPEEDUP` times the
      baseline after normalising out the machine-speed difference.  This
      is a coarse >=2x claim, not a 20% band, so calibration scaling is
      the right tool: it keeps a 2x-slower shared box from failing a
      genuine 2.6x rewrite, and a 2x-faster box from hiding a regressed
      one.
    """
    if baseline is None:
        return []
    if baseline.get("source") != current.get("source"):
        # In-process timings and pytest-benchmark timings are not directly
        # comparable; gate only like against like.
        return []
    failures = []
    for key in ("events_per_sec", "events_per_sec_public_schedule"):
        base = baseline.get(key)
        now = current.get(key)
        if not base or not now:
            continue
        floor = base * (1.0 - tolerance)
        if now < floor:
            failures.append(
                f"{key}: {now:,.0f} events/sec is more than "
                f"{tolerance:.0%} below the committed baseline "
                f"{base:,.0f} (floor {floor:,.0f})")
    base_eps = baseline.get("events_per_sec")
    base_cal = baseline.get("calibration_ops_per_sec")
    now_eps = current.get("events_per_sec")
    now_cal = current.get("calibration_ops_per_sec")
    if base_eps and base_cal and now_eps and now_cal:
        speedup = (now_eps / now_cal) / (base_eps / base_cal)
        if speedup < DISPATCH_MIN_SPEEDUP:
            failures.append(
                f"dispatch speedup: {speedup:.2f}x calibration-relative "
                f"events/sec vs the committed baseline, below the "
                f"{DISPATCH_MIN_SPEEDUP:.1f}x floor — the dispatch core "
                f"is no longer paying "
                f"(now {now_eps:,.0f} ev/s @ {now_cal:,.0f} cal-ops/s; "
                f"baseline {base_eps:,.0f} @ {base_cal:,.0f})")
    return failures


def kernel_metrics_from_pytest_json(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    """Extract kernel throughput from a ``pytest --benchmark-json`` dump.

    Lets ``make bench`` run the statistics-grade pytest-benchmark suite and
    still flow through the same BENCH_kernel.json + gate plumbing.  Uses the
    ``min`` statistic: on shared/bursty machines the best observed round is
    far more stable than the mean, and a genuine kernel regression moves the
    minimum too.
    """
    data = json.loads(pathlib.Path(path).read_text())
    keys = {
        "test_kernel_event_throughput":
            ("events_per_sec", KERNEL_EVENTS),
        "test_kernel_public_schedule_throughput":
            ("events_per_sec_public_schedule", KERNEL_EVENTS),
        "test_machine_calibration":
            ("calibration_ops_per_sec", CALIBRATION_OPS),
    }
    out: Dict[str, Any] = {}
    for entry in data.get("benchmarks", ()):
        name = entry.get("name", "")
        for test, (key, count) in keys.items():
            if name.startswith(test):
                out[key] = count / entry["stats"]["min"]
    if "events_per_sec" not in out:
        return None
    out.update(name="kernel", events_per_run=KERNEL_EVENTS,
               source="pytest-benchmark")
    return out


def trace_metrics_from_pytest_json(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    """Extract the tracing-overhead figures from a pytest-benchmark dump.

    The disabled path reuses ``test_kernel_event_throughput`` — with span
    propagation on the run loop, the plain kernel hot path *is* the
    tracing-disabled path.  Ratios are recomputed from the ingested
    numbers so the whole payload stays one source.
    """
    data = json.loads(pathlib.Path(path).read_text())
    keys = {
        "test_kernel_event_throughput": "events_per_sec_disabled",
        "test_trace_records_throughput": "events_per_sec_records",
        "test_trace_spans_throughput": "events_per_sec_spans",
    }
    out: Dict[str, Any] = {}
    for entry in data.get("benchmarks", ()):
        name = entry.get("name", "")
        for test, key in keys.items():
            if name.startswith(test):
                out[key] = KERNEL_EVENTS / entry["stats"]["min"]
    if len(out) < len(keys):
        return None
    disabled = out["events_per_sec_disabled"]
    out["records_overhead_ratio"] = (
        out["events_per_sec_records"] / disabled if disabled else 0.0)
    out["spans_overhead_ratio"] = (
        out["events_per_sec_spans"] / disabled if disabled else 0.0)
    out.update(name="trace", events_per_run=KERNEL_EVENTS,
               source="pytest-benchmark")
    return out
