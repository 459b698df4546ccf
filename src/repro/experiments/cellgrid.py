"""Multi-cell radio workloads for the sharded simulator.

A row of dense broadcast "rooms" spaced kilometres apart — the paper's
physically scoped cells made literal.  The same :class:`CellLayout`
drives two constructions:

* :func:`cell_rooms` — the whole grid in **one** simulator, the culled
  single-process oracle;
* :func:`cell_room_builders` — one builder per shard for
  :class:`~repro.kernel.shard.ShardedSimulator`, each instantiating only
  its own cells.

Byte-identity between the two rests on three legs.  All per-station
randomness (positions, traffic phases) is drawn **up front** from a
standalone :class:`~repro.kernel.random.RandomStreams`, so a shard can
instantiate its subset without consuming anyone else's draws.  The
medium runs with ``per_station_rng`` (delivery/fading outcomes depend
only on each receiver's own history) and ``interference_radius_m``
(transmissions further apart than the radius provably never interact).
And the partition (:func:`repro.env.partition.partition_world`) is
computed at that same radius, so interference-closed components never
span shards.

:func:`coupled_cell_builders` adds deliberate boundary traffic — a
bridged wired link relaying markers between neighbouring shards and
discovery/lease round-trips to a remote registry on shard 0 — the
configuration that actually exercises conservative synchronisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..discovery.registry import LookupService
from ..discovery.records import ServiceItem, ServiceProxy, ServiceTemplate
from ..discovery.remote import RegistryBridge
from ..env.partition import PartitionPlan, partition_world
from ..env.radio import PropagationModel
from ..env.world import World
from ..kernel.errors import ExperimentError
from ..kernel.random import RandomStreams
from ..kernel.scheduler import Simulator
from ..kernel.shard import ShardContext, ShardProgram
from ..net.addresses import BROADCAST
from ..net.frames import Frame
from ..phys.devices import Device
from ..phys.mac import CsmaMac, WirelessMedium
from ..telemetry.streaming import StreamingAggregator
from ..telemetry.summary import telemetry_summary
from .harness import ExperimentResult, experiment


@dataclass(frozen=True)
class CellLayout:
    """A fully pre-drawn multi-cell workload: pure data, no simulator.

    ``positions[i]``/``offsets[i]`` are global-index-ordered, so any
    subset of stations can be instantiated without touching the draws of
    the rest — the property sharding depends on.
    """

    seed: int
    cells: int
    stations_per_cell: int
    cell_width_m: float
    spacing_m: float
    exponent: float
    sigma_db: float
    tx_power_dbm: float
    channel: int
    frames_per_second: float
    frame_bytes: int
    grid_cell_m: float
    interference_radius_m: float
    width: float
    height: float
    positions: Tuple[Tuple[float, float], ...]
    offsets: Tuple[float, ...]

    @property
    def stations(self) -> int:
        return self.cells * self.stations_per_cell

    @property
    def interval(self) -> float:
        return 1.0 / self.frames_per_second

    def name_of(self, index: int) -> str:
        return f"cg-{index}"

    def index_of(self, name: str) -> int:
        return int(name[3:])

    def room_of(self, index: int) -> int:
        return index // self.stations_per_cell


def cell_layout(cells: int = 4, stations_per_cell: int = 50, *,
                seed: int = 7, cell_width_m: float = 30.0,
                spacing_m: float = 5000.0, exponent: float = 4.0,
                sigma_db: float = 2.0, tx_power_dbm: float = 0.0,
                channel: int = 6, frames_per_second: float = 2.0,
                frame_bytes: int = 66, grid_cell_m: float = 600.0,
                interference_radius_m: Optional[float] = None) -> CellLayout:
    """Draw a ``cells`` x ``stations_per_cell`` grid of dense rooms.

    Rooms are ``cell_width_m`` squares spaced ``spacing_m`` apart along
    x — far enough that no pair of stations in different rooms can ever
    interact at the default interference radius (three room widths).
    ``grid_cell_m`` is pinned (the spatial grid's automatic cell size
    depends on the attached population, which differs per shard).
    """
    if interference_radius_m is None:
        interference_radius_m = 3.0 * cell_width_m
    if spacing_m <= interference_radius_m + 2.0 * cell_width_m:
        raise ValueError(
            f"spacing {spacing_m} does not clear the interference radius "
            f"{interference_radius_m}; rooms would couple")
    streams = RandomStreams(seed)
    placement = streams.stream("cellgrid.placement")
    traffic = streams.stream("cellgrid.traffic")
    interval = 1.0 / frames_per_second
    positions: List[Tuple[float, float]] = []
    offsets: List[float] = []
    for i in range(cells * stations_per_cell):
        x0 = (i // stations_per_cell) * spacing_m
        positions.append((x0 + float(placement.uniform(0, cell_width_m)),
                          float(placement.uniform(0, cell_width_m))))
    for i in range(cells * stations_per_cell):
        offsets.append(float(traffic.uniform(0, interval)))
    return CellLayout(
        seed=seed, cells=cells, stations_per_cell=stations_per_cell,
        cell_width_m=cell_width_m, spacing_m=spacing_m, exponent=exponent,
        sigma_db=sigma_db, tx_power_dbm=tx_power_dbm, channel=channel,
        frames_per_second=frames_per_second, frame_bytes=frame_bytes,
        grid_cell_m=grid_cell_m,
        interference_radius_m=float(interference_radius_m),
        width=(cells - 1) * spacing_m + cell_width_m + 1.0,
        height=cell_width_m + 1.0,
        positions=tuple(positions), offsets=tuple(offsets))


@dataclass
class CellRooms:
    """One assembled (sub)grid: a simulator plus its stations and log."""

    sim: Simulator
    world: World
    medium: WirelessMedium
    macs: List[CsmaMac]
    deliveries: List[Tuple[float, str, str]]
    aggregator: StreamingAggregator
    indices: List[int] = field(default_factory=list)


def _assemble(sim: Simulator, layout: CellLayout,
              indices: Sequence[int]) -> CellRooms:
    """Instantiate ``indices`` (global order) of ``layout`` on ``sim``.

    The world always spans the *full* grid extent and the spatial-grid
    cell size is pinned, so oracle and shard geometry agree exactly.
    """
    aggregator = StreamingAggregator()
    aggregator.attach(sim)
    world = World(layout.width, layout.height)
    propagation = PropagationModel(exponent=layout.exponent,
                                   shadowing_sigma_db=layout.sigma_db,
                                   rng=sim.rng("radio.shadowing"))
    medium = WirelessMedium(
        sim, world, propagation=propagation, culling=True,
        grid_cell_m=layout.grid_cell_m, per_station_rng=True,
        interference_radius_m=layout.interference_radius_m)
    deliveries: List[Tuple[float, str, str]] = []
    macs: List[CsmaMac] = []
    for i in indices:
        name = layout.name_of(i)
        world.place(name, layout.positions[i])
        mac = CsmaMac(sim, medium, name, channel=layout.channel,
                      tx_power_dbm=layout.tx_power_dbm)
        mac.on_receive = (lambda frame, rx=name:
                          deliveries.append((sim.now, frame.src, rx)))
        macs.append(mac)
    frame_bytes = layout.frame_bytes
    for i, mac in zip(indices, macs):
        sim.every(layout.interval,
                  lambda m=mac: m.send(Frame(m.address, BROADCAST,
                                             payload_bytes=frame_bytes)),
                  start=layout.offsets[i])
    return CellRooms(sim, world, medium, macs, deliveries, aggregator,
                     indices=list(indices))


def cell_rooms(layout: CellLayout, *, trace: bool = False) -> CellRooms:
    """The whole grid in one simulator — the single-process oracle."""
    sim = Simulator(seed=layout.seed, trace=trace)
    return _assemble(sim, layout, range(layout.stations))


def plan_shards(layout: CellLayout, shards: int) -> PartitionPlan:
    """Partition the layout's world at the *interference* radius.

    Components are closed under "could ever interact", so any packing of
    them onto shards preserves physics exactly.
    """
    world = World(layout.width, layout.height)
    for i in range(layout.stations):
        world.place(layout.name_of(i), layout.positions[i])
    return partition_world(world, layout.interference_radius_m,
                           shards=shards)


def deliveries_by_room(layout: CellLayout,
                       deliveries: Sequence[Tuple[float, str, str]],
                       ) -> Dict[int, List[Tuple[float, str, str]]]:
    """Group a delivery log by receiving room, order preserved.

    Room-relative order is the invariant sharding maintains; the global
    interleaving of *different* rooms' same-time deliveries is an engine
    artefact with no observable meaning.
    """
    out: Dict[int, List[Tuple[float, str, str]]] = {}
    for entry in deliveries:
        out.setdefault(layout.room_of(layout.index_of(entry[2])),
                       []).append(entry)
    return out


def _finalize(rooms: CellRooms) -> List[Tuple[float, str, str]]:
    return rooms.deliveries


def cell_room_builders(layout: CellLayout, shards: int,
                       ) -> List[Callable[[ShardContext], ShardProgram]]:
    """One shard builder per shard: disjoint cells, no boundary traffic."""
    plan = plan_shards(layout, shards)

    def make(shard_id: int) -> Callable[[ShardContext], ShardProgram]:
        indices = [layout.index_of(name)
                   for name in plan.stations_of_shard(shard_id)]

        def builder(ctx: ShardContext) -> ShardProgram:
            sim = Simulator(seed=layout.seed, trace=False)
            rooms = _assemble(sim, layout, indices)
            return ShardProgram(
                sim,
                finalize=lambda _s, r=rooms: _finalize(r),
                summarize=lambda s, r=rooms: telemetry_summary(
                    s, stream=r.aggregator))

        return builder

    return [make(s) for s in range(shards)]


# ---------------------------------------------------------------------------
# Boundary-coupled configuration: bridged link + remote registry
# ---------------------------------------------------------------------------

def coupled_cell_builders(layout: CellLayout, shards: int, *,
                          bridge_period: float = 0.05,
                          registry_lease_s: float = 5.0,
                          lookup_period: float = 0.25,
                          ) -> List[Callable[[ShardContext], ShardProgram]]:
    """Cell rooms plus cross-shard coupling.

    Two boundary flows ride the shard pipes:

    * a **bridged wired link**: every ``bridge_period`` each shard relays
      a marker to its right-hand neighbour (ring order); the receiving
      shard's gateway station broadcasts the marker into its own cell, so
      boundary events re-enter the radio rather than dead-ending;
    * **remote discovery**: shard 0 hosts the `LookupService`; every
      other shard registers one service through a
      :class:`~repro.discovery.remote.RegistryBridge` and then polls
      lookups on a timer, exercising register/lease/lookup round-trips.

    Results are ``(deliveries, bridge_log)`` per shard.  This
    configuration has no single-process oracle (the lookahead delay *is*
    the model); it is gated multiprocess-vs-inline instead.
    """
    plan = plan_shards(layout, shards)

    def make(shard_id: int) -> Callable[[ShardContext], ShardProgram]:
        indices = [layout.index_of(name)
                   for name in plan.stations_of_shard(shard_id)]

        def builder(ctx: ShardContext) -> ShardProgram:
            sim = Simulator(seed=layout.seed, trace=False)
            rooms = _assemble(sim, layout, indices)
            ports = ctx.ports
            n = ctx.shard_count
            bridge_log: List[Tuple[float, int, int]] = []
            gateway = rooms.macs[0] if rooms.macs else None

            def on_bridge(src: int, marker: int) -> None:
                bridge_log.append((sim.now, src, marker))
                if gateway is not None:
                    gateway.send(Frame(gateway.address, BROADCAST,
                                       payload_bytes=layout.frame_bytes))

            ports.open("bridge", on_bridge)
            if n > 1:
                counter = {"k": 0}

                def relay() -> None:
                    counter["k"] += 1
                    ports.send("bridge", dst=(ctx.shard_id + 1) % n,
                               payload=counter["k"])

                sim.every(bridge_period, relay,
                          start=bridge_period * (0.5 + ctx.shard_id) / n)

            # Remote registry: shard 0 is home, the rest are clients.
            if ctx.shard_id == 0:
                hub_world = World(layout.cell_width_m, layout.cell_width_m)
                hub_medium = WirelessMedium(
                    sim, hub_world,
                    propagation=PropagationModel(
                        exponent=layout.exponent,
                        shadowing_sigma_db=layout.sigma_db,
                        rng=sim.rng("radio.hub.shadowing")),
                    per_station_rng=True)
                hub = Device(sim, hub_world, "cg-hub",
                             (layout.cell_width_m / 2,
                              layout.cell_width_m / 2),
                             medium=hub_medium, channel=layout.channel)
                registry = LookupService(sim, hub, "cg-registry")
                RegistryBridge(ports, registry=registry)
            elif n > 1:
                bridge = RegistryBridge(ports, home_shard=0)
                item = ServiceItem(
                    service_id=f"cg-svc-{ctx.shard_id}",
                    service_type="cell-sensor",
                    proxy=ServiceProxy(provider=f"cg-shard-{ctx.shard_id}",
                                       port=9000 + ctx.shard_id,
                                       protocol="telemetry"),
                    attributes={"shard": ctx.shard_id})

                def register() -> None:
                    bridge.register(item, registry_lease_s)

                def poll() -> None:
                    bridge.lookup(ServiceTemplate(service_type="cell-sensor"))

                sim.schedule(lookup_period / 2, register)
                sim.every(lookup_period, poll, start=lookup_period)

            return ShardProgram(
                sim,
                finalize=lambda _s, r=rooms, b=bridge_log: (r.deliveries, b),
                summarize=lambda s, r=rooms: telemetry_summary(
                    s, stream=r.aggregator))

        return builder

    return [make(s) for s in range(shards)]


# ---------------------------------------------------------------------------
# E11 — the sharded multi-cell experiment (``repro run E11 --shards N``)
# ---------------------------------------------------------------------------

@experiment("E11")
def e11_sharded_cells(seed: int = 7, shards: int = 1, cells: int = 4,
                      stations_per_cell: int = 25,
                      horizon: float = 2.0) -> ExperimentResult:
    """Disjoint cell grid, single-process or sharded — same table either way.

    With ``shards == 1`` the grid runs in one culled simulator; with more
    it runs under :class:`~repro.kernel.shard.ShardedSimulator` (one
    forked worker per shard where the platform allows).  The per-room
    delivery counts are byte-identical across every value of ``shards``
    — partitioned execution is an engine choice, not a model change.
    """
    from ..kernel.shard import ShardedSimulator, merge_summaries

    if not 1 <= shards <= cells:
        raise ExperimentError(
            f"shards must be in 1..{cells} (one cell is the smallest "
            f"interference-closed unit), got {shards!r}")
    layout = cell_layout(cells=cells, stations_per_cell=stations_per_cell,
                         seed=seed)
    if shards == 1:
        rooms = cell_rooms(layout)
        rooms.sim.run(until=horizon)
        deliveries = rooms.deliveries
        summary = merge_summaries(
            [telemetry_summary(rooms.sim, stream=rooms.aggregator)])
        meta = {"mode": "single-process", "shards": 1,
                "events": rooms.sim.events_executed}
    else:
        engine = ShardedSimulator(cell_room_builders(layout, shards),
                                  lookahead=layout.interval / 4.0)
        engine.run(until=horizon)
        deliveries = [entry for rows in engine.results for entry in rows]
        summary = engine.telemetry()
        meta = dict(engine.stats)
        meta["events"] = engine.events_executed
    by_room = deliveries_by_room(layout, deliveries)
    result = ExperimentResult(
        "E11", "sharded multi-cell broadcast grid",
        ["room", "stations", "deliveries", "senders"])
    for room in range(layout.cells):
        rows = by_room.get(room, [])
        result.add_row(room=room, stations=layout.stations_per_cell,
                       deliveries=len(rows),
                       senders=len({src for _, src, _ in rows}))
    result.notes.append(
        f"{meta.get('mode')} x{meta.get('shards')} over {horizon:g}s, "
        f"{meta['events']} events; per-room rows are byte-identical for "
        f"every shard count")
    result.telemetry.append(summary)
    result.meta.update(meta)
    return result
