"""The benchmark's three workloads, built only from public ``repro`` entry points.

Each workload is constructed from its seed by :func:`build` (the part
billed to ``setup_s``) and then executed by ``run()`` (the part billed to
``wall_s``).  ``run()`` returns an :class:`Outcome`: how many
operations were attempted, which failed and why, and a SHA-256 digest per
operation over *modelled* outcomes only.  Engine counters (events executed,
cull statistics, cache hits, heap sizes) never enter a digest, so an
optimisation that changes how the engine gets to the same answer cannot
read as a failure.

Host time per fixed simulated slice is sampled by :class:`RunProbe`, which
wraps ``Simulator.run`` from outside and advances every bounded run one
slice at a time; while measuring, it runs each slice in pieces and lets
a :class:`hostspeed.HostSpeed` probe the host between them.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import HostSpeed
from repro.env.mobility import RandomWaypoint
from repro.experiments import report as quick_report
from repro.experiments.harness import (
    ExperimentResult,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments.workloads import (
    broadcast_room,
    presentation_workflow,
    projector_room,
)
from repro.kernel.scheduler import Simulator
from repro.services.content import SlideShow

#: Experiments that take ~90% of ``paper_quick``; each gets its own
#: ``experiments.<id>.wall_s`` per-layer metric.
HEAVY_EXPERIMENTS = ("E1", "E1-replicated", "E2", "E2-autochannel",
                     "E9", "E9-report")

#: Simulated seconds per repetition.  The soak and the crowd run
#: ``repetitions()`` fresh copies of the same seeded scenario and report
#: the mean; ``paper_quick`` is the whole quick report, run once.
SOAK_REP_SIM_S = 300.0
CROWD_REP_SIM_S = 15.0
#: Host seconds one soak or crowd repetition takes, roughly (2 CPUs,
#: Python 3.11); ``--seconds`` buys ``seconds // REP_HOST_S`` repetitions.
REP_HOST_S = 4

#: Pieces each slice runs in while the host speed is probed.
SUBSTEPS = 8

#: Simulated seconds per sampled slice, per workload.
SLICE_S = {"paper_quick": 1.0, "presentation_soak": 10.0,
           "mobile_crowd": 0.5}

SOAK_CHECKPOINT_S = 150.0
CROWD_STATIONS = 300


def digest(value: Any) -> str:
    """SHA-256 of a canonical JSON rendering (exact float repr)."""
    text = json.dumps(value, sort_keys=True, default=repr,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one workload run produced."""

    #: operation name -> digest of its modelled outcome
    digests: Dict[str, str] = field(default_factory=dict)
    #: operation name -> why it failed (absent when it passed)
    failures: Dict[str, str] = field(default_factory=dict)
    #: operation name -> host seconds (``paper_quick`` only)
    op_wall_s: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.digests)


# ---------------------------------------------------------------------------
# Simulator.run probe: slices + event count
# ---------------------------------------------------------------------------

class RunProbe:
    """Wraps ``Simulator.run`` to sample host seconds per simulated slice.

    A bounded ``run(until=T)`` is executed as a sequence of
    ``run(until=b)`` calls at the multiples ``b`` of ``slice_s`` up to
    ``T``; events are executed in the same order as one call would
    execute them, and the clock ends at ``T`` either way.  Slices with no
    events are skipped (the probe jumps to the slice holding the next
    event), and only chunks that start and end on slice boundaries are
    sampled, so every sample is the host time of one non-empty slice.
    ``events`` sums the executed counts of every ``run`` call.

    When ``speed`` is set, each chunk runs in :data:`SUBSTEPS` pieces and
    the host-speed probe is ticked between them, outside the chunk's
    timing, so that slices of any length are probed while they run.
    ``spans`` holds the host-clock interval of every sample, for
    :meth:`hostspeed.HostSpeed.scale_between`.
    """

    def __init__(self, slice_s: float,
                 speed: Optional[HostSpeed] = None) -> None:
        self.slice_s = slice_s
        self.speed = speed
        self.samples: List[float] = []
        self.spans: List[Tuple[float, float]] = []
        #: whether slices are currently recorded (runs are sliced either way)
        self.sampling = True
        self.events = 0
        self._original: Optional[Callable[..., int]] = None

    def install(self) -> "RunProbe":
        original = Simulator.run
        probe = self

        def run(sim: Simulator, until: Optional[float] = None,
                max_events: Optional[int] = None) -> int:
            if until is None or max_events is not None \
                    or not math.isfinite(until):
                executed = original(sim, until, max_events)
                if probe.speed is not None:
                    probe.speed.tick()
            else:
                executed = probe._run_sliced(original, sim, until)
            probe.events += executed
            return executed

        self._original = original
        Simulator.run = run  # type: ignore[method-assign]
        return self

    def uninstall(self) -> None:
        if self._original is not None:
            Simulator.run = self._original  # type: ignore[method-assign]
            self._original = None

    def _run_sliced(self, original: Callable[..., int], sim: Simulator,
                    until: float) -> int:
        width = self.slice_s
        clock = time.perf_counter
        samples = self.samples
        speed = self.speed
        steps = 1 if speed is None else SUBSTEPS
        executed = 0
        start = sim.now
        while start < until:
            head = sim.peek()
            if head is None or head > until:
                executed += original(sim, until)
                break
            end = min(until, (math.floor(max(head, start) / width) + 1)
                      * width)
            # No event lies before ``low``: the pieces cover the slice only.
            low = max(start, end - width)
            first = elapsed = 0.0
            for step in range(1, steps + 1):
                bound = end if step == steps \
                    else low + (end - low) * step / steps
                begun = clock()
                executed += original(sim, bound)
                done = clock()
                first = first or begun
                elapsed += done - begun
                if speed is not None:
                    speed.tick()
                if sim.stopped:
                    break
            if self.sampling and start % width == 0.0 \
                    and end % width == 0.0:
                samples.append(elapsed)
                self.spans.append((first, done))
            if sim.stopped:
                break
            start = sim.now
        else:
            executed += original(sim, until)
        return executed


def slice_stats(samples: List[float]) -> Dict[str, Any]:
    """p50 and tail of the slice samples.  The tail is the highest sample
    that still has ten samples beyond it; its percentile is reported."""
    ordered = sorted(samples)
    count = len(ordered)
    out: Dict[str, Any] = {"count": count}
    if count:
        out["p50"] = statistics.median(ordered)
    if count > 10:
        out["tail"] = ordered[count - 11]
        out["tail_percentile"] = round(100.0 * (count - 10) / count, 2)
    return out


# ---------------------------------------------------------------------------
# paper_quick: every registered experiment with the quick-budget overrides
# ---------------------------------------------------------------------------

def quick_kwargs(experiment_id: str, seed: int) -> Dict[str, Any]:
    """The quick-budget overrides, with every seed shifted by ``seed``.

    Seed 0 reproduces ``run_all(budget="quick")`` exactly.  An experiment
    with a ``seed`` parameter gets ``default + seed``; one with a ``seeds``
    sequence gets every element shifted.  The overrides are read (never
    changed) from the report module's table, which has no public accessor,
    so that this workload and ``run_all`` cannot drift apart.
    """
    kwargs = dict(quick_report._QUICK_OVERRIDES.get(experiment_id, {}))
    params = inspect.signature(get_experiment(experiment_id)).parameters
    if seed:
        if "seed" in params:
            kwargs["seed"] = kwargs.get("seed", params["seed"].default) + seed
        if "seeds" in params:
            base = kwargs.get("seeds", params["seeds"].default)
            kwargs["seeds"] = tuple(s + seed for s in base)
    return kwargs


def table_digest(result: ExperimentResult) -> str:
    """Digest of a table's modelled content: id, title, columns, rows.

    Notes are excluded because some carry engine counters (E11 prints the
    event count) and telemetry/meta are engine-side by construction.
    """
    return digest([result.experiment_id, result.title, result.columns,
                   result.rows])


def table_problem(result: ExperimentResult) -> Optional[str]:
    if not result.rows:
        return "table has no rows"
    for row in result.rows:
        missing = [c for c in result.columns if c not in row]
        if missing:
            return f"row lacks columns {missing}"
    return None


class PaperQuick:
    """Regenerate every table of the quick report, in id order.

    Slices are sampled only while one of :data:`HEAVY_EXPERIMENTS` runs:
    the many light simulations would otherwise put the median on
    sub-millisecond slices that measure timer jitter, not the model.
    """

    name = "paper_quick"
    length = "quick report"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.plan = [(eid, quick_kwargs(eid, seed))
                     for eid in list_experiments()]

    def run(self, probe: RunProbe,
            after_op: Callable[[], None] = lambda: None) -> Outcome:
        outcome = Outcome()
        clock = time.perf_counter
        for experiment_id, kwargs in self.plan:
            probe.sampling = experiment_id in HEAVY_EXPERIMENTS
            speed = probe.speed
            probing = speed.spent if speed is not None else 0.0
            begun = clock()
            try:
                result = run_experiment(experiment_id, **kwargs)
            except Exception as exc:  # noqa: BLE001 - one op fails, run goes on
                outcome.digests[experiment_id] = ""
                outcome.failures[experiment_id] = f"raised {exc!r}"
            else:
                outcome.digests[experiment_id] = table_digest(result)
                problem = table_problem(result)
                if problem is not None:
                    outcome.failures[experiment_id] = problem
            if speed is not None:
                probing = speed.spent - probing
            outcome.op_wall_s[experiment_id] = clock() - begun - probing
            after_op()
            if speed is not None:
                speed.tick()
        probe.sampling = True
        return outcome


# ---------------------------------------------------------------------------
# presentation_soak: the test_soak presentation, in repetitions
# ---------------------------------------------------------------------------

class PresentationSoak:
    """tests/integration/test_soak.py's presentation, health-checked at
    every checkpoint with that test's bounds."""

    name = "presentation_soak"
    length = SOAK_REP_SIM_S

    def __init__(self, seed: int) -> None:
        self.seed = seed
        room = projector_room(seed=200 + seed, trace=True,
                              session_lease_s=60.0)
        room.sim.tracer.capacity = 20_000
        presentation_workflow(room)
        SlideShow(room.sim, room.client.fb, dwell_s=25.0).start()
        room.sim.every(20.0, room.client.renew_sessions, start=20.0)
        self.checkpoints: List[Dict[str, Any]] = []
        room.sim.every(SOAK_CHECKPOINT_S, self._checkpoint)
        self.room = room

    def _checkpoint(self) -> None:
        room = self.room
        self.checkpoints.append({
            "t": room.sim.now,
            "frames": room.projector.frames_displayed,
            "laptop_queue": room.laptop.nic.mac.queue_depth(),
            "pending_events": room.sim.pending(),
            "holder": room.smart.projection_sessions.holder,
        })

    def run(self, probe: RunProbe,
            after_op: Callable[[], None] = lambda: None) -> Outcome:
        room = self.room
        room.sim.run(until=self.length)
        outcome = Outcome()
        previous_frames = 0
        for point in self.checkpoints:
            op = f"checkpoint@{point['t']:g}"
            # The heap size is an engine counter: bounded, never digested.
            modelled = {k: v for k, v in point.items()
                        if k != "pending_events"}
            outcome.digests[op] = digest(modelled)
            problems = []
            if point["holder"] != "laptop":
                problems.append(f"session holder {point['holder']!r}")
            if point["laptop_queue"] >= 32:
                problems.append(f"laptop queue {point['laptop_queue']}")
            if point["pending_events"] >= 500:
                problems.append(f"{point['pending_events']} pending events")
            if point["frames"] <= previous_frames:
                problems.append("frames stopped rising")
            if problems:
                outcome.failures[op] = "; ".join(problems)
            previous_frames = point["frames"]
        outcome.digests["final"] = digest({
            "laptop_mac": room.laptop.nic.mac.stats,
            "adapter_mac": room.adapter.nic.mac.stats,
            "frames": room.projector.frames_displayed,
            "pixels": room.projector.pixels_displayed,
        })
        expected = int(self.length // SOAK_CHECKPOINT_S)
        if len(self.checkpoints) != expected:
            outcome.failures["final"] = (
                f"{len(self.checkpoints)} checkpoints, expected {expected}")
        after_op()
        return outcome


# ---------------------------------------------------------------------------
# mobile_crowd: 300 random-waypoint broadcasters
# ---------------------------------------------------------------------------

class MobileCrowd:
    """A moving broadcast crowd: every tick invalidates the link cache."""

    name = "mobile_crowd"
    length = CROWD_REP_SIM_S

    def __init__(self, seed: int) -> None:
        self.seed = seed
        room = broadcast_room(CROWD_STATIONS, seed=7 + seed,
                              width=600.0, height=600.0)
        for mac in room.macs:
            RandomWaypoint(room.sim, room.world, mac.address,
                           speed_min=1.0, speed_max=3.0,
                           update_interval=0.5).start()
        self.room = room

    def run(self, probe: RunProbe,
            after_op: Callable[[], None] = lambda: None) -> Outcome:
        room = self.room
        room.sim.run(until=self.length)
        log = sorted(room.deliveries)
        stats = [mac.stats for mac in room.macs]
        outcome = Outcome()
        outcome.digests["crowd"] = digest({"deliveries": log, "mac": stats})
        problems = []
        if not log:
            problems.append("no deliveries")
        received = sum(s["rx_frames"] for s in stats)
        if received != len(log):
            problems.append(f"rx_frames {received} != {len(log)} deliveries")
        if any(src == rx for _, src, rx in log):
            problems.append("a station received its own frame")
        if log and not 0.0 <= log[0][0] <= log[-1][0] <= self.length:
            problems.append("delivery outside the simulated horizon")
        if sum(s["tx_attempts"] for s in stats) == 0:
            problems.append("no transmissions")
        if problems:
            outcome.failures["crowd"] = "; ".join(problems)
        after_op()
        return outcome


_BUILDERS = {cls.name: cls for cls in (PaperQuick, PresentationSoak,
                                       MobileCrowd)}


def build(name: str, seed: int):
    """Construct one repetition of a workload, ready to ``run()``."""
    return _BUILDERS[name](seed)


def repetitions(name: str, seconds: int) -> int:
    """How many repetitions a run of ``seconds`` makes (at least two, so
    every run also checks that one seed gives one outcome)."""
    if name == "paper_quick":
        return 1
    return max(2, seconds // REP_HOST_S)
