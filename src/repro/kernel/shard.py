"""Conservative parallel DES: one simulator per shard, forked workers.

The conceptual model scopes interactions physically, so a partitioned
world (:mod:`repro.env.partition`) decomposes into cells whose only
coupling is *boundary traffic*: frames audible across a cell edge,
discovery/lease exchanges with a remote registry, bridged wired links.
This module runs each shard as its own :class:`Simulator` in a forked
worker process and synchronises them with classic conservative
(Chandy–Misra–Bryant-style) time windows:

* **Lookahead** ``L`` is the minimum latency of *any* boundary event —
  cross-boundary propagation delay plus the minimum MAC turnaround on
  the far side.  Every :meth:`ShardPorts.send` must declare a delay of
  at least ``L``; a zero or negative lookahead is rejected outright
  (:class:`ConfigurationError`), because conservative synchronisation
  degenerates to lockstep there.
* **Null-message time advance.**  The coordinator grants each shard a
  window ``(G_prev, G]``.  A message generated at ``t`` inside a window
  takes effect at ``t + delay > G_prev + L``; as long as every grant
  satisfies ``G <= G_prev + L`` — or jumps straight to the earliest
  pending event when *nothing* can happen before it — no shard ever
  receives a message in its past.  The grant itself is the null
  message: it carries only time, and each ``done`` reply reports the
  shard's next local event so idle regions are skipped at event
  granularity instead of crawling one lookahead per round.
* **Boundary batches.**  Outgoing boundary events are grouped per
  ``(dst, channel)`` into struct-of-arrays batches (one float64 column
  of effect times plus a payload tuple) and land in the receiving
  shard's timer class (:meth:`Simulator.batch_class`) via one
  ``schedule_many_at`` call.  Batches are routed and injected in
  ``(src, channel)`` order, so simultaneous boundary events from
  different shards always take consecutive ``(time, seq)`` slots in the
  same deterministic order — in-process and multi-process runs are
  byte-identical.

:class:`ShardedSimulator` is the front-end.  With ``processes=True``
(and a ``fork``-capable platform) shards run in forked workers over
pipes; ``processes=False`` runs the *identical* window protocol
sequentially in one interpreter — the deterministic oracle the
multi-process path is tested against, and the fallback on platforms
without ``fork``.  A worker that raises ships its traceback to the
coordinator; a worker that dies surfaces as a clear
:class:`ExperimentError` instead of a hang.

Per-shard telemetry is reduced *inside* each worker (the builders
attach a ``StreamingAggregator`` and ship its summary — a few hundred
bytes, never raw traces) and merged by :func:`merge_summaries`.  The
merge keeps totals, issue counts and metric *counters*; like outcome
fingerprints, it drops ``medium.culling.*`` counters because they
report *how* audibility sets were built against the locally attached
population — legitimately different under partitioning — not *what*
the simulation did.

Shard isolation is enforced statically: rule ``LPC108``
(:mod:`repro.checks`) flags code outside this module reaching into
another shard's ``.sim``/``.world`` state — all cross-shard traffic
must flow through :class:`ShardPorts`.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ConfigurationError, ExperimentError, ScheduleError,
                     SimulationFinished)
from .events import Priority
from .scheduler import Simulator

#: Counter prefixes excluded from merged-vs-oracle comparisons: they
#: describe the mechanics of the local engine, not simulation outcomes.
HOW_NOT_WHAT_COUNTERS: Tuple[str, ...] = ("medium.culling.",)


@dataclass
class BoundaryBatch:
    """One ``(src shard, dst shard, channel)`` group of boundary events.

    ``times`` is a float64 column of absolute effect times (already
    ``>= send time + lookahead``); ``payloads`` aligns with it.  This is
    the only thing that crosses a shard pipe during a run.
    """

    channel: str
    src: int
    dst: int
    times: np.ndarray
    payloads: Tuple[Any, ...]

    def __len__(self) -> int:
        return int(self.times.shape[0])


class ShardPorts:
    """A shard's boundary endpoints: named receive channels + send().

    Handed to the shard builder inside :class:`ShardContext`.  ``open``
    may be called at build time (before the shard's simulator exists);
    registration is deferred until the runtime binds the simulator.
    """

    def __init__(self, shard_id: int, shard_count: int,
                 lookahead: float) -> None:
        self.shard_id = shard_id
        self.shard_count = shard_count
        self.lookahead = lookahead
        self.sent = 0
        self.received = 0
        self._sim: Optional[Simulator] = None
        self._pending_open: List[Tuple[str, Callable[[int, Any], None]]] = []
        self._rx: Dict[str, Any] = {}
        self._outbox: List[Tuple[int, str, float, Any]] = []

    # -- build-time API -------------------------------------------------
    def open(self, channel: str, fn: Callable[[int, Any], None]) -> None:
        """Receive boundary events on ``channel`` via ``fn(src, payload)``.

        ``fn`` runs as a batch-class callback at each event's effect
        time, with ``src`` the sending shard's id.
        """
        if not channel:
            raise ConfigurationError("boundary channel needs a name")
        if (channel in self._rx
                or any(c == channel for c, _ in self._pending_open)):
            raise ConfigurationError(
                f"boundary channel {channel!r} is already open")
        if self._sim is not None:
            self._register(channel, fn)
        else:
            self._pending_open.append((channel, fn))

    # -- runtime API (inside events) ------------------------------------
    def send(self, channel: str, dst: int, payload: Any = None,
             delay: Optional[float] = None) -> None:
        """Emit a boundary event to shard ``dst``, effective after ``delay``.

        ``delay`` defaults to the lookahead and must never be below it —
        that bound is exactly what lets every shard run its window
        without waiting on the others.
        """
        if self._sim is None:
            raise ScheduleError("ports are not bound to a simulator yet")
        delay = self.lookahead if delay is None else delay
        if delay < self.lookahead:
            raise ScheduleError(
                f"boundary delay {delay!r} is below the lookahead "
                f"{self.lookahead!r}; conservative sync would be unsound")
        if dst == self.shard_id or not 0 <= dst < self.shard_count:
            raise ConfigurationError(
                f"invalid destination shard {dst!r} "
                f"(this is shard {self.shard_id} of {self.shard_count})")
        self._outbox.append((dst, channel, self._sim._now + delay, payload))
        self.sent += 1

    # -- runtime plumbing ------------------------------------------------
    def _register(self, channel: str, fn: Callable[[int, Any], None]) -> None:
        self._rx[channel] = self._sim.batch_class(
            f"shard.rx.{channel}", fn, priority=Priority.PROTOCOL,
            cancellable=False)

    def _bind(self, sim: Simulator) -> None:
        self._sim = sim
        for channel, fn in self._pending_open:
            self._register(channel, fn)
        self._pending_open.clear()

    def channels(self) -> List[str]:
        return sorted(self._rx)

    def _inject(self, batches: Sequence[BoundaryBatch]) -> None:
        for batch in batches:
            queue = self._rx[batch.channel]
            n = len(batch)
            queue.schedule_many_at(
                batch.times, owners=np.full(n, batch.src, dtype=np.int64),
                payloads=batch.payloads)
            self.received += n

    def _drain(self) -> List[BoundaryBatch]:
        if not self._outbox:
            return []
        groups: Dict[Tuple[int, str], List[Tuple[float, Any]]] = {}
        for dst, channel, time, payload in self._outbox:
            groups.setdefault((dst, channel), []).append((time, payload))
        self._outbox.clear()
        return [BoundaryBatch(channel=channel, src=self.shard_id, dst=dst,
                              times=np.array([t for t, _ in entries],
                                             dtype=np.float64),
                              payloads=tuple(p for _, p in entries))
                for (dst, channel), entries in sorted(groups.items())]


@dataclass
class ShardContext:
    """What a shard builder receives: its identity and boundary ports."""

    shard_id: int
    shard_count: int
    ports: ShardPorts

    @property
    def lookahead(self) -> float:
        return self.ports.lookahead


@dataclass
class ShardProgram:
    """What a shard builder returns.

    ``finalize(sim)`` produces the shard's picklable result rows;
    ``summarize(sim)`` its telemetry summary (conventionally
    ``telemetry_summary(sim, stream=aggregator)``).  Both run in the
    worker at collect time, so only small reduced dicts cross the pipe.
    """

    sim: Simulator
    finalize: Optional[Callable[[Simulator], Any]] = None
    summarize: Optional[Callable[[Simulator], Dict[str, Any]]] = None


def _build_program(builder: Callable[[ShardContext], ShardProgram],
                   prerun: Sequence[Tuple[float, Callable, tuple, int]],
                   lookahead: float, shard_id: int,
                   shard_count: int) -> Tuple[ShardProgram, ShardPorts]:
    ports = ShardPorts(shard_id, shard_count, lookahead)
    program = builder(ShardContext(shard_id, shard_count, ports))
    if not isinstance(program, ShardProgram):
        raise ConfigurationError(
            f"shard builder {shard_id} returned {type(program).__name__}, "
            "expected a ShardProgram")
    ports._bind(program.sim)
    for delay, fn, args, priority in prerun:
        program.sim.schedule(delay, fn, *args, priority=priority)
    return program, ports


def _worker_main(builder, prerun, lookahead, shard_id, shard_count,
                 conn) -> None:
    """Forked worker loop: build, then serve grant/collect commands."""
    try:
        program, ports = _build_program(builder, prerun, lookahead,
                                        shard_id, shard_count)
        sim = program.sim
        conn.send(("ready", sim.peek(), ports.channels()))
        while True:
            msg = conn.recv()
            if msg[0] == "run":
                _, grant, batches = msg
                ports._inject(batches)
                sim.run(until=grant)
                conn.send(("done", sim.peek(), ports._drain()))
            elif msg[0] == "collect":
                conn.send(("result", {
                    "result": (program.finalize(sim)
                               if program.finalize is not None else None),
                    "telemetry": (program.summarize(sim)
                                  if program.summarize is not None else None),
                    "events": sim.events_executed,
                    "sent": ports.sent,
                    "received": ports.received,
                }))
                return
            else:  # pragma: no cover - defensive: unknown command
                raise ExperimentError(f"unknown shard command {msg[0]!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - coordinator already gone
            pass
    finally:
        conn.close()


class _PipePeer:
    """Coordinator-side handle for one forked shard worker."""

    def __init__(self, ctx, builder, prerun, lookahead, shard_id,
                 shard_count) -> None:
        self.shard_id = shard_id
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(builder, prerun, lookahead, shard_id, shard_count, child),
            daemon=True)
        self.proc.start()
        child.close()

    def _recv(self, expect: str):
        try:
            msg = self.conn.recv()
        except (EOFError, OSError):
            raise ExperimentError(
                f"shard {self.shard_id} worker died mid-run (pipe closed "
                "before it answered) — see the worker's stderr for the "
                "crash; the run cannot continue")
        if msg[0] == "error":
            raise ExperimentError(
                f"shard {self.shard_id} failed:\n{msg[1]}")
        if msg[0] != expect:  # pragma: no cover - protocol bug guard
            raise ExperimentError(
                f"shard {self.shard_id} answered {msg[0]!r}, "
                f"expected {expect!r}")
        return msg

    def ready(self):
        msg = self._recv("ready")
        return msg[1], msg[2]

    def post_grant(self, grant: float,
                   batches: Sequence[BoundaryBatch]) -> None:
        self.conn.send(("run", grant, list(batches)))

    def wait_done(self):
        msg = self._recv("done")
        return msg[1], msg[2]

    def collect(self) -> Dict[str, Any]:
        self.conn.send(("collect",))
        return self._recv("result")[1]

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)


class _InlinePeer:
    """Same protocol, no processes: the sequential oracle / fallback."""

    def __init__(self, builder, prerun, lookahead, shard_id,
                 shard_count) -> None:
        self.shard_id = shard_id
        self.program, self.ports = _build_program(
            builder, prerun, lookahead, shard_id, shard_count)
        self._done: Optional[tuple] = None

    def ready(self):
        return self.program.sim.peek(), self.ports.channels()

    def post_grant(self, grant: float,
                   batches: Sequence[BoundaryBatch]) -> None:
        sim = self.program.sim
        self.ports._inject(batches)
        sim.run(until=grant)
        self._done = (sim.peek(), self.ports._drain())

    def wait_done(self):
        done, self._done = self._done, None
        return done

    def collect(self) -> Dict[str, Any]:
        program, sim = self.program, self.program.sim
        return {
            "result": (program.finalize(sim)
                       if program.finalize is not None else None),
            "telemetry": (program.summarize(sim)
                          if program.summarize is not None else None),
            "events": sim.events_executed,
            "sent": self.ports.sent,
            "received": self.ports.received,
        }

    def close(self) -> None:
        pass


class ShardedSimulator:
    """Run N shard simulators under one conservative coordinator.

    Keeps the :class:`Simulator` front-end shape: :meth:`run` drives the
    whole ensemble to ``until``; :meth:`schedule` queues pre-run events
    onto a chosen shard; ``now``/``events_executed`` report merged
    progress; :meth:`telemetry` returns the merged per-shard summaries.

    Args:
        builders: one callable per shard; each receives a
            :class:`ShardContext` and returns a :class:`ShardProgram`.
        lookahead: minimum boundary latency (propagation + MAC
            turnaround).  Must be strictly positive.
        processes: fork one worker per shard (default).  Falls back to
            the in-process path when ``fork`` is unavailable or there is
            only one shard; ``processes=False`` forces it — that path is
            the byte-identical oracle for the multi-process one.
    """

    def __init__(self, builders: Sequence[Callable[[ShardContext],
                                                   ShardProgram]],
                 *, lookahead: float, processes: bool = True) -> None:
        if not builders:
            raise ConfigurationError("ShardedSimulator needs >= 1 shard")
        if not (lookahead > 0.0):
            raise ConfigurationError(
                f"conservative synchronisation requires a strictly "
                f"positive lookahead, got {lookahead!r} — with zero "
                "lookahead every shard must wait for every other shard "
                "at every instant and parallelism is impossible")
        self._builders = list(builders)
        self.lookahead = float(lookahead)
        self.processes = bool(processes)
        self._prerun: List[List[Tuple[float, Callable, tuple, int]]] = [
            [] for _ in builders]
        self._ran = False
        self._now = 0.0
        self._events = 0
        self.results: Optional[List[Any]] = None
        self.summaries: Optional[List[Optional[Dict[str, Any]]]] = None
        self.stats: Dict[str, Any] = {}

    # -- Simulator-shaped surface ---------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._builders)

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_executed(self) -> int:
        return self._events

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 shard: int = 0,
                 priority: int = Priority.PROTOCOL) -> None:
        """Queue ``fn(*args)`` onto ``shard`` before the run starts.

        Pre-run only: once workers are forked there is no sound way to
        inject arbitrary callables into their event streams (that is
        what boundary channels are for).
        """
        if self._ran:
            raise SimulationFinished(
                "ShardedSimulator.schedule is pre-run only; use a "
                "boundary channel for runtime cross-shard events")
        if delay < 0:
            raise ScheduleError(f"negative delay {delay!r}")
        if not 0 <= shard < len(self._builders):
            raise ConfigurationError(f"no shard {shard!r}")
        self._prerun[shard].append((delay, fn, args, priority))

    def telemetry(self) -> Dict[str, Any]:
        """The merged per-shard telemetry summaries (after :meth:`run`)."""
        if self.summaries is None:
            raise SimulationFinished("run() has not completed yet")
        shipped = [s for s in self.summaries if s is not None]
        if not shipped:
            raise ConfigurationError(
                "no shard shipped a telemetry summary — give the shard "
                "programs a summarize callback")
        return merge_summaries(shipped)

    @property
    def metrics(self) -> Dict[str, Any]:
        """Merged metric counters across shards (after :meth:`run`)."""
        return dict(self.telemetry()["metrics"])

    # -- the conservative coordinator -----------------------------------
    def run(self, until: Optional[float] = None) -> int:
        """Drive every shard to ``until`` under conservative windows."""
        if self._ran:
            raise SimulationFinished("ShardedSimulator.run is one-shot")
        if until is None or not until > 0.0:
            raise ConfigurationError(
                f"a sharded run needs a positive horizon, got {until!r}")
        self._ran = True
        n = len(self._builders)
        use_processes = (
            self.processes and n > 1
            and "fork" in multiprocessing.get_all_start_methods())
        peers: List[Any] = []
        try:
            if use_processes:
                ctx = multiprocessing.get_context("fork")
                peers = [_PipePeer(ctx, self._builders[i], self._prerun[i],
                                   self.lookahead, i, n)
                         for i in range(n)]
            else:
                peers = [_InlinePeer(self._builders[i], self._prerun[i],
                                     self.lookahead, i, n)
                         for i in range(n)]
            self._coordinate(peers, float(until), use_processes)
        finally:
            for peer in peers:
                peer.close()
        return self._events

    def _coordinate(self, peers: List[Any], until: float,
                    use_processes: bool) -> None:
        n = len(peers)
        next_times: List[Optional[float]] = [None] * n
        channels: List[set] = [set()] * n
        for i, peer in enumerate(peers):
            next_times[i], opened = peer.ready()
            channels[i] = set(opened)
        inboxes: List[List[BoundaryBatch]] = [[] for _ in range(n)]
        rounds = 0
        batches_routed = 0
        events_routed = 0
        dropped = 0
        grant = 0.0
        lookahead = self.lookahead
        freerun = not any(channels)
        while True:
            pending = [t for t in next_times if t is not None]
            pending += [float(b.times.min())
                        for inbox in inboxes for b in inbox]
            global_min = min(pending) if pending else None
            if grant >= until and not any(inboxes):
                break
            if freerun or global_min is None or global_min > until:
                grant = until
            elif global_min > grant + lookahead:
                grant = min(until, global_min)
            else:
                grant = min(until, grant + lookahead)
            rounds += 1
            for i, peer in enumerate(peers):
                peer.post_grant(grant, inboxes[i])
                inboxes[i] = []
            for i, peer in enumerate(peers):
                next_times[i], outgoing = peer.wait_done()
                for batch in outgoing:
                    if batch.channel not in channels[batch.dst]:
                        raise ExperimentError(
                            f"shard {i} sent on channel "
                            f"{batch.channel!r} but shard {batch.dst} "
                            "never opened it")
                    keep = batch.times <= until
                    if not keep.all():
                        dropped += int((~keep).sum())
                        batch = BoundaryBatch(
                            channel=batch.channel, src=batch.src,
                            dst=batch.dst, times=batch.times[keep],
                            payloads=tuple(
                                p for p, k in zip(batch.payloads, keep)
                                if k))
                    if len(batch):
                        inboxes[batch.dst].append(batch)
                        batches_routed += 1
                        events_routed += len(batch)
        collected = [peer.collect() for peer in peers]
        self._now = until
        self._events = sum(c["events"] for c in collected)
        self.results = [c["result"] for c in collected]
        self.summaries = [c["telemetry"] for c in collected]
        self.stats = {
            "mode": "processes" if use_processes else "inline",
            "shards": n,
            "rounds": rounds,
            "lookahead": lookahead,
            "boundary_batches": batches_routed,
            "boundary_events": events_routed,
            "dropped_beyond_horizon": dropped,
            "sent": sum(c["sent"] for c in collected),
            "received": sum(c["received"] for c in collected),
        }


def merge_summaries(summaries: Sequence[Dict[str, Any]],
                    drop_counters: Tuple[str, ...] = HOW_NOT_WHAT_COUNTERS,
                    ) -> Dict[str, Any]:
    """Collapse per-shard telemetry summaries into one run-level dict.

    Shape-compatible with ``telemetry_summary``: totals sum across
    shards, ``sim_time`` is the common horizon (max), issue maps merge
    by key, and ``metrics`` keeps summed *counters* only (gauges,
    latencies and probes are per-engine shapes with no sound cross-shard
    sum).  Counters with a prefix in ``drop_counters`` are excluded —
    they describe engine mechanics, not outcomes, exactly like the
    kernel probe outcome fingerprints exclude.  Equivalence tests
    compare ``merge_summaries(shard_summaries)`` against
    ``merge_summaries([oracle_summary])`` so both sides pass through the
    same reduction.
    """
    if not summaries:
        raise ConfigurationError("nothing to merge")
    totals = {"events_executed": 0, "records": 0, "records_dropped": 0,
              "spans": 0, "spans_open": 0}
    issues_by_layer: Dict[str, int] = {}
    issues_by_column: Dict[str, int] = {}
    counters: Dict[str, float] = {}
    sim_time = 0.0
    for summary in summaries:
        sim_time = max(sim_time, summary.get("sim_time", 0.0))
        for name in totals:
            totals[name] += summary.get(name, 0)
        for target, key in ((issues_by_layer, "issues_by_layer"),
                            (issues_by_column, "issues_by_column")):
            for name, value in summary.get(key, {}).items():
                target[name] = target.get(name, 0) + value
        metrics = summary.get("metrics") or {}
        for name, value in metrics.get("counters", {}).items():
            if any(name.startswith(prefix) for prefix in drop_counters):
                continue
            counters[name] = counters.get(name, 0) + value
    out: Dict[str, Any] = {"sim_time": sim_time}
    out.update(totals)
    out["issues_by_layer"] = dict(sorted(issues_by_layer.items()))
    out["issues_by_column"] = dict(sorted(issues_by_column.items()))
    out["metrics"] = {"counters": dict(sorted(counters.items()))}
    return out
