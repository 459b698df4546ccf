"""Conservative parallel DES: the sharded simulator and its boundary API.

The load-bearing claims, each pinned here:

* zero lookahead is rejected outright (conservative sync degenerates);
* boundary events below the lookahead are rejected at ``send`` time;
* simultaneous boundary events from different shards land in one
  ``(time, seq)`` cohort in deterministic source order, so the
  in-process and multi-process coordinators are byte-identical;
* a worker that dies mid-run surfaces as a clear ``ExperimentError``
  instead of a hang, and a worker exception ships its traceback;
* a disjoint-cells configuration is byte-identical to the
  single-process culled oracle — rows *and* merged telemetry.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.experiments.cellgrid import (cell_layout, cell_room_builders,
                                        cell_rooms, coupled_cell_builders,
                                        deliveries_by_room)
from repro.kernel.errors import (ConfigurationError, ExperimentError,
                                 ScheduleError, SimulationFinished)
from repro.kernel.scheduler import Simulator
from repro.kernel.shard import (ShardedSimulator, ShardPorts, ShardProgram,
                                merge_summaries)
from repro.telemetry.summary import telemetry_summary

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not fork_available,
                                reason="no fork start method")


def quiet_builder(ctx):
    return ShardProgram(Simulator(seed=1, trace=False))


def summarized_builder(ctx):
    sim = Simulator(seed=1, trace=False)
    return ShardProgram(sim, summarize=lambda s: telemetry_summary(s))


# ---------------------------------------------------------------------------
# Configuration and lifecycle errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lookahead", [0.0, -0.5])
def test_zero_or_negative_lookahead_rejected(lookahead):
    with pytest.raises(ConfigurationError, match="positive lookahead"):
        ShardedSimulator([quiet_builder], lookahead=lookahead)


def test_empty_builder_list_rejected():
    with pytest.raises(ConfigurationError):
        ShardedSimulator([], lookahead=0.1)


def test_run_needs_a_positive_horizon():
    engine = ShardedSimulator([quiet_builder], lookahead=0.1,
                              processes=False)
    with pytest.raises(ConfigurationError):
        engine.run()
    with pytest.raises(ConfigurationError):
        engine.run(until=0.0)


def test_run_is_one_shot_and_schedule_is_prerun_only():
    engine = ShardedSimulator([summarized_builder], lookahead=0.1,
                              processes=False)
    engine.run(until=1.0)
    with pytest.raises(SimulationFinished):
        engine.run(until=2.0)
    with pytest.raises(SimulationFinished):
        engine.schedule(0.1, lambda: None)


def test_prerun_schedule_validates_delay_and_shard():
    engine = ShardedSimulator([quiet_builder], lookahead=0.1)
    with pytest.raises(ScheduleError):
        engine.schedule(-1.0, lambda: None)
    with pytest.raises(ConfigurationError):
        engine.schedule(0.1, lambda: None, shard=5)


def test_prerun_schedule_runs_on_the_chosen_shard():
    fired = []
    engine = ShardedSimulator([quiet_builder, quiet_builder],
                              lookahead=0.1, processes=False)
    engine.schedule(0.25, lambda: fired.append("a"), shard=1)
    engine.run(until=1.0)
    assert fired == ["a"]
    assert engine.now == 1.0
    assert engine.events_executed >= 1


# ---------------------------------------------------------------------------
# ShardPorts: the boundary-channel contract
# ---------------------------------------------------------------------------

def test_duplicate_or_anonymous_channel_rejected():
    ports = ShardPorts(0, 2, 0.1)
    ports.open("x", lambda src, p: None)
    with pytest.raises(ConfigurationError, match="already open"):
        ports.open("x", lambda src, p: None)
    with pytest.raises(ConfigurationError):
        ports.open("", lambda src, p: None)


def test_send_before_bind_rejected():
    ports = ShardPorts(0, 2, 0.1)
    with pytest.raises(ScheduleError, match="not bound"):
        ports.send("x", dst=1)


def _below_lookahead_builder(ctx):
    sim = Simulator(seed=1, trace=False)
    sim.schedule(0.1, lambda: ctx.ports.send("x", dst=1, delay=1e-4))
    return ShardProgram(sim)


def _mark_receiver_builder(ctx):
    sim = Simulator(seed=1, trace=False)
    ctx.ports.open("x", lambda src, p: None)
    return ShardProgram(sim)


def test_boundary_delay_below_lookahead_rejected():
    engine = ShardedSimulator(
        [_below_lookahead_builder, _mark_receiver_builder],
        lookahead=0.01, processes=False)
    with pytest.raises(ScheduleError, match="below the lookahead"):
        engine.run(until=1.0)


def _bad_dst_builder(ctx):
    sim = Simulator(seed=1, trace=False)
    sim.schedule(0.1, lambda: ctx.ports.send("x", dst=ctx.shard_id))
    return ShardProgram(sim)


def test_send_to_self_or_unknown_shard_rejected():
    engine = ShardedSimulator([_bad_dst_builder, _mark_receiver_builder],
                              lookahead=0.01, processes=False)
    with pytest.raises(ConfigurationError, match="invalid destination"):
        engine.run(until=1.0)


def _unopened_channel_builder(ctx):
    sim = Simulator(seed=1, trace=False)
    sim.schedule(0.1, lambda: ctx.ports.send("nobody-listens", dst=1))
    return ShardProgram(sim)


def test_send_on_channel_the_destination_never_opened():
    engine = ShardedSimulator(
        [_unopened_channel_builder, _mark_receiver_builder],
        lookahead=0.01, processes=False)
    with pytest.raises(ExperimentError, match="never opened"):
        engine.run(until=1.0)


# ---------------------------------------------------------------------------
# Simultaneous boundary events: one (time, seq) cohort, stable order
# ---------------------------------------------------------------------------

def _cohort_builders():
    """Shards 0 and 1 both fire at t=0.1 into shard 2's 'mark' channel."""

    def sender(ctx):
        sim = Simulator(seed=1, trace=False)
        sim.schedule(0.1, lambda: ctx.ports.send(
            "mark", dst=2, payload=f"s{ctx.shard_id}"))
        return ShardProgram(sim)

    def receiver(ctx):
        sim = Simulator(seed=1, trace=False)
        log = []
        ctx.ports.open("mark",
                       lambda src, p: log.append((sim.now, src, p)))
        return ShardProgram(sim, finalize=lambda _s: log)

    return [sender, sender, receiver]


def _run_cohort(processes):
    engine = ShardedSimulator(_cohort_builders(), lookahead=0.05,
                              processes=processes)
    engine.run(until=1.0)
    return engine


@needs_fork
def test_simultaneous_boundary_events_form_one_deterministic_cohort():
    inline = _run_cohort(processes=False)
    forked = _run_cohort(processes=True)
    assert forked.stats["mode"] == "processes"
    effect_time = 0.1 + 0.05  # send time + lookahead, same float both ways
    log = inline.results[2]
    # Both events share one effect time (consecutive (time, seq) slots in
    # the receiver's timer class) and arrive in source-shard order.
    assert log == [(effect_time, 0, "s0"), (effect_time, 1, "s1")]
    assert forked.results == inline.results
    assert forked.stats["boundary_events"] == 2
    assert inline.stats["boundary_events"] == 2


def test_boundary_events_beyond_the_horizon_are_dropped():
    engine = ShardedSimulator(_cohort_builders(), lookahead=0.05,
                              processes=False)
    engine.run(until=0.12)  # sends fire at 0.1, land at 0.15 > horizon
    assert engine.results[2] == []
    assert engine.stats["dropped_beyond_horizon"] == 2


# ---------------------------------------------------------------------------
# Worker failure surfaces as errors, not hangs
# ---------------------------------------------------------------------------

def _dying_builder(ctx):
    sim = Simulator(seed=1, trace=False)
    sim.schedule(0.05, lambda: os._exit(3))
    return ShardProgram(sim)


@needs_fork
def test_worker_death_mid_run_raises_instead_of_hanging():
    engine = ShardedSimulator([quiet_builder, _dying_builder],
                              lookahead=0.5)
    with pytest.raises(ExperimentError, match="died mid-run"):
        engine.run(until=1.0)


def _raising_builder(ctx):
    sim = Simulator(seed=1, trace=False)

    def boom():
        raise RuntimeError("shard went sideways")

    sim.schedule(0.05, boom)
    return ShardProgram(sim)


@needs_fork
def test_worker_exception_ships_its_traceback():
    engine = ShardedSimulator([quiet_builder, _raising_builder],
                              lookahead=0.5)
    with pytest.raises(ExperimentError, match="shard went sideways"):
        engine.run(until=1.0)


# ---------------------------------------------------------------------------
# Disjoint cells: byte-identical to the single-process culled oracle
# ---------------------------------------------------------------------------

def _oracle(layout, horizon):
    rooms = cell_rooms(layout)
    rooms.sim.run(until=horizon)
    summary = telemetry_summary(rooms.sim, stream=rooms.aggregator)
    return rooms.deliveries, merge_summaries([summary])


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_disjoint_cells_match_the_oracle_inline(shards):
    layout = cell_layout(cells=3, stations_per_cell=6, seed=11)
    horizon = 0.75
    rows, telemetry = _oracle(layout, horizon)
    engine = ShardedSimulator(cell_room_builders(layout, shards),
                              lookahead=0.01, processes=False)
    engine.run(until=horizon)
    merged = [entry for shard_rows in engine.results
              for entry in shard_rows]
    assert (deliveries_by_room(layout, merged)
            == deliveries_by_room(layout, rows))
    assert engine.telemetry() == telemetry


@needs_fork
def test_disjoint_cells_match_the_oracle_across_processes():
    layout = cell_layout(cells=3, stations_per_cell=6, seed=11)
    horizon = 0.75
    rows, telemetry = _oracle(layout, horizon)
    engine = ShardedSimulator(cell_room_builders(layout, 3),
                              lookahead=0.01)
    engine.run(until=horizon)
    assert engine.stats["mode"] == "processes"
    # Disjoint cells open no channels, so the coordinator freeruns to
    # the horizon in a single grant round.
    assert engine.stats["rounds"] == 1
    merged = [entry for shard_rows in engine.results
              for entry in shard_rows]
    assert (deliveries_by_room(layout, merged)
            == deliveries_by_room(layout, rows))
    assert engine.telemetry() == telemetry


@needs_fork
def test_coupled_cells_multiprocess_matches_inline():
    layout = cell_layout(cells=3, stations_per_cell=4, seed=5)
    runs = []
    for processes in (False, True):
        engine = ShardedSimulator(coupled_cell_builders(layout, 3),
                                  lookahead=5e-3, processes=processes)
        engine.run(until=0.6)
        runs.append(engine)
    inline, forked = runs
    assert forked.stats["mode"] == "processes"
    assert forked.stats["boundary_events"] > 0
    assert forked.results == inline.results
    assert forked.telemetry() == inline.telemetry()
    assert forked.stats["boundary_events"] == inline.stats["boundary_events"]


# ---------------------------------------------------------------------------
# merge_summaries: the cross-shard telemetry reduction
# ---------------------------------------------------------------------------

def _summary(events, counters, issues=None):
    return {"sim_time": 1.0, "events_executed": events, "records": 0,
            "records_dropped": 0, "spans": 0, "spans_open": 0,
            "issues_by_layer": issues or {}, "issues_by_column": {},
            "metrics": {"counters": counters}}


def test_merge_summaries_sums_and_drops_how_not_what_counters():
    merged = merge_summaries([
        _summary(10, {"mac.tx": 4.0, "medium.culling.skipped": 100.0},
                 issues={"phys": 1}),
        _summary(5, {"mac.tx": 2.0, "mac.rx": 1.0},
                 issues={"phys": 2, "net": 1}),
    ])
    assert merged["events_executed"] == 15
    assert merged["metrics"]["counters"] == {"mac.rx": 1.0, "mac.tx": 6.0}
    assert merged["issues_by_layer"] == {"net": 1, "phys": 3}


def test_merge_summaries_rejects_nothing():
    with pytest.raises(ConfigurationError):
        merge_summaries([])


def test_telemetry_requires_a_summarize_callback():
    engine = ShardedSimulator([quiet_builder], lookahead=0.1,
                              processes=False)
    engine.run(until=0.5)
    with pytest.raises(ConfigurationError, match="summarize"):
        engine.telemetry()
