"""Dispatch-core matrix oracle: every run-loop variant must be
byte-identical on seeded workloads.

``Simulator.run`` selects a monomorphic loop variant at entry (see
:mod:`repro.kernel.dispatch`).  That specialisation may not change
*what* the simulation computes — only how fast.  These tests sweep the
full variant matrix:

* **trace**: off / ``head`` / ``ring`` / ``stream`` — the traced and
  untraced loops, and every retention policy of the traced one;
* **metrics**: a periodic MONITOR-priority sampler on or off — the
  monitor events ride the same queue as everything else;
* **timer classes** (ids ``batched`` / ``unbatched``): the producers'
  timers go through their registered :class:`~repro.kernel.scheduler.
  BatchClass` (uncancellable classes on the ``schedule_bound`` fast
  path), or every entry is scheduled one by one with plain
  ``Simulator.schedule`` / ``schedule_at`` calls;
* **backend**: the one kernel backend :func:`repro.kernel.backend.
  resolve` reports, ``python``.

Within each metrics arm, every combination is compared against one
reference outcome (trace off, timer classes).  The fingerprint
deliberately excludes retained trace records — ``ring`` keeps a suffix
and ``stream`` keeps nothing by design — and the ``kernel.*``
engine-internal metrics, which report how the heap stored the run
rather than what it computed; everything else must match exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

import pytest

from repro.discovery.leases import LeaseTable
from repro.experiments.workloads import interferer_field, projector_room
from repro.kernel.backend import resolve
from repro.kernel.events import Priority
from repro.kernel.scheduler import Simulator

#: None = tracing disabled (the untraced loop variants).
TRACE_MODES = (None, "head", "ring", "stream")

#: True = producers schedule through their timer classes (the default).
TIMER_CLASSES = pytest.mark.parametrize("classes", (True, False),
                                        ids=("batched", "unbatched"))
BACKENDS = pytest.mark.parametrize("backend", ("python",),
                                   ids=("backend-python",))


class _DirectClass:
    """A timer class that puts each entry straight on the heap with
    plain ``schedule`` / ``schedule_at`` calls — the reference the
    timer-class fast paths must match."""

    def __init__(self, cls: Any) -> None:
        self.sim = cls.sim
        self.fn = cls.fn
        self.priority = cls.priority
        self.cancellable = cls.cancellable

    def schedule(self, delay: float, owner: int = 0,
                 payload: Any = None) -> Any:
        event = self.sim.schedule(delay, self.fn, owner, payload,
                                  priority=self.priority)
        return event if self.cancellable else None

    def schedule_at(self, time: float, owner: int = 0,
                    payload: Any = None) -> Any:
        event = self.sim.schedule_at(time, self.fn, owner, payload,
                                     priority=self.priority)
        return event if self.cancellable else None

    def schedule_many_at(self, times: Sequence[float],
                         owners: Optional[Sequence[int]] = None,
                         payloads: Optional[Sequence[Any]] = None) -> None:
        for i, time in enumerate(times):
            self.schedule_at(float(time),
                             int(owners[i]) if owners is not None else 0,
                             payloads[i] if payloads is not None else None)


@contextmanager
def _timer_classes(classes: bool) -> Iterator[None]:
    """With ``classes=False``, every ``Simulator.batch_class`` built in
    the block still registers its name but returns a :class:`_DirectClass`."""
    if classes:
        yield
        return
    register = Simulator.batch_class

    def direct(self: Simulator, *args: Any, **kwargs: Any) -> _DirectClass:
        return _DirectClass(register(self, *args, **kwargs))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "batch_class", direct)
        yield


def _sim_kwargs(trace_mode: Optional[str]) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = {}
    if trace_mode is None:
        kwargs["trace"] = False
    else:
        kwargs["trace"] = True
        kwargs["trace_mode"] = trace_mode
        if trace_mode == "ring":
            kwargs["trace_capacity"] = 512
    return kwargs


def _metrics_fingerprint(sim: Simulator) -> Dict[str, Any]:
    """Non-kernel metrics: *what* the simulation did.  ``kernel.*``
    gauges report how the heap stored it (dead entries, compactions)."""
    if sim._metrics is None:
        return {}
    out: Dict[str, Any] = {}
    for section, values in sim.metrics.snapshot().items():
        if isinstance(values, dict):
            out[section] = {name: value for name, value in values.items()
                            if not name.startswith("kernel")}
        else:
            out[section] = values
    return out


def _attach_monitor(sim: Simulator, samples: list) -> None:
    """The metrics arm: a periodic MONITOR-priority sampler whose events
    ride the shared queue — its firing times are part of the outcome."""
    gauge = sim.metrics.gauge("matrix.pending")

    def sample() -> None:
        gauge.set(float(sim.pending()))
        samples.append((sim.now, sim.pending()))

    sim.every(1.0, sample, priority=int(Priority.MONITOR))


# ---------------------------------------------------------------------------
# Workload 1: the projector room with co-channel interferers
# ---------------------------------------------------------------------------

def _projector_outcome(trace_mode: Optional[str], metrics: bool,
                       classes: bool = True) -> Tuple:
    with _timer_classes(classes):
        room = projector_room(seed=3, **_sim_kwargs(trace_mode))
        interferer_field(room, 4, frames_per_second=40.0)
    samples: list = []
    if metrics:
        _attach_monitor(room.sim, samples)
    room.sim.run(until=8.0)
    macs = {name: dict(room.medium._macs[name].stats)
            for name in room.medium.stations()}
    return (room.sim.now, room.sim.events_executed,
            _metrics_fingerprint(room.sim), tuple(samples), macs)


@pytest.fixture(scope="module")
def projector_reference():
    cache: Dict[bool, Tuple] = {}

    def get(metrics: bool) -> Tuple:
        if metrics not in cache:
            cache[metrics] = _projector_outcome(None, metrics)
        return cache[metrics]

    return get


@BACKENDS
@TIMER_CLASSES
@pytest.mark.parametrize("metrics", (True, False),
                         ids=("metrics", "no-metrics"))
@pytest.mark.parametrize("trace_mode", TRACE_MODES,
                         ids=("trace-off", "trace-head", "trace-ring",
                              "trace-stream"))
def test_projector_room_matrix(projector_reference, trace_mode, metrics,
                               classes, backend):
    assert resolve(backend).name == backend
    got = _projector_outcome(trace_mode, metrics, classes)
    want = projector_reference(metrics)
    for got_part, want_part in zip(got, want):
        assert got_part == want_part


# ---------------------------------------------------------------------------
# Workload 2: the lease storm (sweep + renewal chains)
# ---------------------------------------------------------------------------

def _lease_storm_outcome(trace_mode: Optional[str], metrics: bool,
                         classes: bool = True) -> Tuple:
    sim = Simulator(seed=9, **_sim_kwargs(trace_mode))
    with _timer_classes(classes):
        table = LeaseTable(sim, sweep_interval=0.5)
    rng = sim.rng("storm")
    durations = [2.0, 3.0, 5.0]
    renewed = [0]
    samples: list = []
    if metrics:
        _attach_monitor(sim, samples)

    def chain(lease_id: int, duration: float) -> None:
        lease = table.get(lease_id)
        if lease is None or sim.now + 0.45 * duration > 25.0:
            return
        table.renew(lease_id)
        renewed[0] += 1
        sim.schedule(0.45 * duration, chain, lease_id, duration)

    for i in range(120):
        duration = durations[int(rng.integers(0, len(durations)))]
        lease = table.grant(f"holder-{i}", f"res-{i}", duration)
        sim.schedule(0.45 * duration, chain, lease.lease_id, duration)

    sim.run(until=30.0)
    return (sim.now, sim.events_executed, renewed[0], len(table),
            _metrics_fingerprint(sim), tuple(samples))


@pytest.fixture(scope="module")
def storm_reference():
    cache: Dict[bool, Tuple] = {}

    def get(metrics: bool) -> Tuple:
        if metrics not in cache:
            cache[metrics] = _lease_storm_outcome(None, metrics)
        return cache[metrics]

    return get


@BACKENDS
@TIMER_CLASSES
@pytest.mark.parametrize("metrics", (True, False),
                         ids=("metrics", "no-metrics"))
@pytest.mark.parametrize("trace_mode", TRACE_MODES,
                         ids=("trace-off", "trace-head", "trace-ring",
                              "trace-stream"))
def test_lease_storm_matrix(storm_reference, trace_mode, metrics,
                            classes, backend):
    assert resolve(backend).name == backend
    got = _lease_storm_outcome(trace_mode, metrics, classes)
    want = storm_reference(metrics)
    for got_part, want_part in zip(got, want):
        assert got_part == want_part
