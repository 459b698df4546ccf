"""Property-based invariants for the MAC and medium: conservation, and
link-record memos that never go stale."""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.radio import (
    NOISE_FLOOR_DBM,
    RATE_BY_NAME,
    best_rate,
    sinr_from_mw,
)
from repro.env.world import World
from repro.kernel.scheduler import Simulator
from repro.net.addresses import BROADCAST
from repro.net.frames import Frame
from repro.phys.mac import FADE_MARGIN_DB, CsmaMac, WirelessMedium

topologies = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=80.0),
              st.floats(min_value=0.0, max_value=40.0)),
    min_size=2, max_size=5, unique=True)

traffic = st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                             st.integers(min_value=0, max_value=4),
                             st.integers(min_value=1, max_value=1400)),
                   min_size=1, max_size=25)


@given(topologies, traffic, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mac_conservation_invariants(positions, sends, seed):
    """For any topology and traffic pattern:

    * successes + retry drops + still-queued/in-flight == accepted frames;
    * total receiver deliveries never exceed attempted transmissions;
    * busy time is non-negative and bounded by elapsed time x stations.
    """
    sim = Simulator(seed=seed, trace=False)
    world = World(100, 50)
    medium = WirelessMedium(sim, world)
    stations = []
    for i, xy in enumerate(positions):
        world.place(f"s{i}", xy)
        stations.append(CsmaMac(sim, medium, f"s{i}", queue_limit=256))
    accepted = 0
    for src_i, dst_i, size in sends:
        src = stations[src_i % len(stations)]
        dst = stations[dst_i % len(stations)]
        if src is dst:
            continue
        if src.send(Frame(src.address, dst.address, None, size)):
            accepted += 1
    horizon = 30.0
    sim.run(until=horizon)

    successes = sum(s.stats["tx_success"] for s in stations)
    drops = sum(s.stats["tx_retry_drops"] for s in stations)
    leftover = sum(s.queue_depth() for s in stations) + \
        sum(1 for s in stations if s._in_flight is not None)
    assert successes + drops + leftover == accepted

    rx_total = sum(s.stats["rx_frames"] for s in stations)
    assert rx_total <= medium.total_transmissions
    assert medium.total_deliveries >= successes

    for s in stations:
        assert 0.0 <= s.stats["busy_time"] <= horizon + 1.0


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=20, deadline=None)
def test_broadcast_never_retries(seed, count):
    sim = Simulator(seed=seed, trace=False)
    world = World(50, 50)
    medium = WirelessMedium(sim, world)
    world.place("a", (10, 10))
    world.place("b", (12, 10))
    a = CsmaMac(sim, medium, "a", queue_limit=64)
    CsmaMac(sim, medium, "b")
    from repro.net.addresses import BROADCAST

    accepted = sum(
        1 for _ in range(count)
        if a.send(Frame("a", BROADCAST, None, 100, kind="mgmt")))
    sim.run(until=20.0)
    # Every accepted broadcast counts as one success, none are retried.
    assert a.stats["tx_success"] == accepted
    assert a.stats["tx_retry_drops"] == 0


# ---------------------------------------------------------------------------
# Link-record memos never go stale
# ---------------------------------------------------------------------------

# A 600 m square puts link budgets on both sides of the audibility floor
# (about -104 dBm, reached near 440 m at 15 dBm transmit power), and the
# medium's pinned 50 m grid cells make it span 144 of them.  Transmit
# powers differ per station, so the audibility table is built at several
# powers, some with radii inside the world (grid pairs) and some beyond
# it (every pair).
_coords = st.tuples(st.floats(min_value=0.0, max_value=600.0),
                    st.floats(min_value=0.0, max_value=600.0))
_powers = st.floats(min_value=-5.0, max_value=20.0)
_who = st.integers(min_value=0, max_value=63)
_sizes = st.sampled_from((0, 60, 700, 1400))

_steps = st.lists(st.one_of(
    st.tuples(st.just("send"), _who, _who, _sizes),
    st.tuples(st.just("broadcast"), _who, _sizes),
    st.tuples(st.just("move"), _who, _coords),
    st.tuples(st.just("channel"), _who, st.sampled_from((1, 3, 6, 11))),
    st.tuples(st.just("power"), _who, _powers),
    st.tuples(st.just("fer"), _who, st.sampled_from((0.01, 0.1, 0.3))),
    # Carrier-sense thresholds below -104 dBm lower the medium's
    # audibility floor.
    st.tuples(st.just("attach"), _coords,
              st.floats(min_value=-125.0, max_value=-80.0)),
    st.tuples(st.just("deafen"), _who),
), min_size=1, max_size=12)


def _background_traffic(stations):
    """Each station unicasts to its ring neighbour, then broadcasts, both
    with a 60-byte payload: every link then carries frames of one wire
    size at two rates (the adapted one and the 1 Mb/s broadcast rate)."""
    for i, mac in enumerate(stations):
        peer = stations[(i + 1) % len(stations)]
        mac.send(Frame(mac.address, peer.address, None, 60))
        mac.send(Frame(mac.address, BROADCAST, None, 60, kind="mgmt"))


def _assert_memos_fresh(medium, stations):
    """Every memoised answer equals a direct evaluation from the pair
    terms, at the stations' current configuration.  The memoised side is
    read first, so no direct evaluation can refresh the cache for it."""
    cache = medium.link_cache
    pairs = [(src, dst) for src in stations for dst in stations
             if dst is not src]
    # A record is retained from the second lookup of its pair in an epoch:
    # look every pair up once, so the answers below come from kept records.
    for src, dst in pairs:
        cache.link(src.address, dst.address, src.tx_power_dbm)
    memoised = []
    for src, dst in pairs:
        frame = Frame(src.address, dst.address, None, 700)
        memoised.append((medium._audible_to(src, dst),
                         src.select_rate(frame), frame.wire_bytes,
                         cache.link(src.address, dst.address,
                                    src.tx_power_dbm)))
    margin = FADE_MARGIN_DB if medium.fast_fading else 0.0
    floor = medium.audibility_floor_dbm()
    for (src, dst), (audible, rate, wire_bytes, record) in zip(pairs,
                                                               memoised):
        power = src.tx_power_dbm
        direct_dbm = cache.rx_power_dbm(power, src.address, dst.address)
        direct_audible = (power - cache.attenuation_db(src.address,
                                                       dst.address)
                          + margin >= floor)
        assert audible == direct_audible
        assert (dst.address in medium._audible_entry(src)[3]) == audible
        assert rate is best_rate(direct_dbm - NOISE_FLOOR_DBM, wire_bytes,
                                 src.fer_target)
        assert (medium.expected_sinr_db(src, dst.address)
                == direct_dbm - NOISE_FLOOR_DBM)
        assert record.dbm == direct_dbm
        for key, value in (record.memo or {}).items():
            if isinstance(key, tuple):  # rate choice
                key_bytes, fer_target = key
                assert value is best_rate(direct_dbm - NOISE_FLOOR_DBM,
                                          key_bytes, fer_target)
            else:  # clean-channel decode result
                memo_rate, sinr, fer = value
                direct_sinr = sinr_from_mw(10.0 ** (direct_dbm / 10.0), 0.0)
                assert sinr == direct_sinr
                assert fer == memo_rate.fer(direct_sinr, key)


def _assert_losses_consistent(sim):
    """Every traced decode failure reports the FER, at the reported SINR,
    of the rate and size its frame was last transmitted with (a retry
    may pick a new rate after a move or a power change)."""
    attempt = {}
    for record in sim.tracer.select("mac"):
        if record.category == "mac.tx":
            frame_id, rate = re.match(r"tx #(\d+) -> \S+ @(\S+)",
                                      record.message).groups()
            attempt[frame_id] = (RATE_BY_NAME[rate], record.data["bytes"])
        elif record.category == "mac.loss":
            frame_id = re.match(r"decode failure #(\d+)",
                                record.message).group(1)
            rate, wire_bytes = attempt[frame_id]
            assert record.data["fer"] == rate.fer(record.data["sinr_db"],
                                                  wire_bytes)


@given(st.lists(_coords, min_size=2, max_size=8, unique=True),
       st.lists(_powers, min_size=8, max_size=8), _steps,
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_link_record_memos_match_direct_evaluation(positions, powers, steps,
                                                   seed):
    """Interleave traffic with every mutation a link record's memos
    depend on (topology, channel, transmit power, FER target, a new
    station lowering the audibility floor, a deafened receiver); after
    each step the memoised answers must equal direct evaluation, every
    traced decode failure must match its frame, and a deafened station
    must never receive."""
    sim = Simulator(seed=seed, trace=True)
    world = World(600, 600)
    medium = WirelessMedium(sim, world, grid_cell_m=50.0)
    stations = []
    for i, xy in enumerate(positions):
        world.place(f"s{i}", xy)
        stations.append(CsmaMac(sim, medium, f"s{i}", queue_limit=256,
                                tx_power_dbm=powers[i]))

    for step in steps:
        kind = step[0]
        if kind == "attach":
            # Place first and let records of the new topology epoch form,
            # so the attach itself changes the floor within one epoch.
            name = f"s{len(stations)}"
            world.place(name, step[1])
            _assert_memos_fresh(medium, stations)
            stations.append(CsmaMac(sim, medium, name, queue_limit=256,
                                    cs_threshold_dbm=step[2]))
        else:
            mac = stations[step[1] % len(stations)]
            if kind == "send":
                dst = stations[step[2] % len(stations)]
                if dst is not mac:
                    mac.send(Frame(mac.address, dst.address, None, step[3]))
            elif kind == "broadcast":
                mac.send(Frame(mac.address, BROADCAST, None, step[2],
                               kind="mgmt"))
            elif kind == "move":
                world.move(mac.address, step[2])
            elif kind == "channel":
                mac.set_channel(step[2])
            elif kind == "power":
                mac.tx_power_dbm = step[2]
            elif kind == "fer":
                mac.fer_target = step[2]
            else:  # deafen / undeafen
                mac.receiving_disabled = not mac.receiving_disabled
        _assert_memos_fresh(medium, stations)
        _background_traffic(stations)
        deaf = {m.address: m.stats["rx_frames"] for m in stations
                if m.receiving_disabled}
        sim.run(until=sim.now + 0.1)
        for m in stations:
            if m.address in deaf:
                assert m.stats["rx_frames"] == deaf[m.address]
        _assert_memos_fresh(medium, stations)
        _assert_losses_consistent(sim)
