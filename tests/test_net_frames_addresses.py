"""Tests for frames, addressing and queueing primitives."""

from __future__ import annotations

import pytest

from repro.kernel.errors import AddressError, ConfigurationError
from repro.kernel.scheduler import Simulator
from repro.net.addresses import (
    BROADCAST,
    AddressAllocator,
    is_broadcast,
    validate_address,
)
from repro.net.frames import HEADER_BYTES, MTU_BYTES, Frame
from repro.net.link import WiredLink
from repro.net.queueing import DropTailQueue, TokenBucket


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------

def test_validate_accepts_normal_names():
    for name in ("laptop", "pda-1", "node.7", "a:b", "X_1"):
        assert validate_address(name) == name


def test_validate_accepts_broadcast():
    assert validate_address(BROADCAST) == BROADCAST
    assert is_broadcast(BROADCAST)
    assert not is_broadcast("laptop")


def test_validate_rejects_malformed():
    for bad in ("", " lead", "-dash-first", None, 42):
        with pytest.raises(AddressError):
            validate_address(bad)  # type: ignore[arg-type]


def test_allocator_unique_sequence():
    allocator = AddressAllocator()
    assert allocator.allocate("pda") == "pda-1"
    assert allocator.allocate("pda") == "pda-2"
    assert allocator.allocate("laptop") == "laptop-1"


def test_allocator_reserve_conflicts():
    allocator = AddressAllocator()
    allocator.reserve("hub")
    with pytest.raises(AddressError):
        allocator.reserve("hub")
    assert "hub" in list(allocator.issued())


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def test_frame_wire_size_includes_header():
    frame = Frame("a", "b", None, 100)
    assert frame.wire_bytes == 100 + HEADER_BYTES


def test_frame_airtime():
    frame = Frame("a", "b", None, 1000)
    assert frame.airtime(1e6) == pytest.approx(8.0 * frame.wire_bytes / 1e6)
    assert frame.airtime(1e6, preamble_s=1e-4) == pytest.approx(
        1e-4 + 8.0 * frame.wire_bytes / 1e6)


def test_frame_airtime_bad_rate():
    with pytest.raises(ConfigurationError):
        Frame("a", "b").airtime(0.0)


def test_frame_oversize_rejected():
    with pytest.raises(ConfigurationError):
        Frame("a", "b", None, MTU_BYTES + 1)


def test_frame_negative_size_rejected():
    with pytest.raises(ConfigurationError):
        Frame("a", "b", None, -1)


def test_frame_bad_kind_rejected():
    with pytest.raises(ConfigurationError):
        Frame("a", "b", None, 0, kind="weird")


def _wired_pair(sim):
    link = WiredLink(sim, "a", "b")
    return link.port_a, link.port_b


def test_frame_ids_monotone():
    # Ids belong to the run: minted from the simulator's counter when a
    # frame is first sent, in send order, starting at 1 in every run.
    for _run in range(2):
        port, _ = _wired_pair(Simulator(seed=0, trace=False))
        a, b = Frame("a", "b"), Frame("a", "b")
        assert a.frame_id is None and b.frame_id is None
        port.send_frame(b)
        port.send_frame(a)
        assert (b.frame_id, a.frame_id) == (1, 2)
        port.send_frame(a)  # a frame sent again keeps its id
        assert a.frame_id == 2


def test_frame_clone_fresh_id():
    port, _ = _wired_pair(Simulator(seed=0, trace=False))
    frame = Frame("a", "b", "payload", 10, "mgmt", 5)
    port.send_frame(frame)
    clone = frame.clone()
    assert clone.frame_id is None
    port.send_frame(clone)
    assert clone.frame_id != frame.frame_id
    assert (clone.src, clone.dst, clone.payload, clone.payload_bytes,
            clone.kind, clone.port) == ("a", "b", "payload", 10, "mgmt", 5)


# ---------------------------------------------------------------------------
# DropTailQueue
# ---------------------------------------------------------------------------

def test_queue_fifo_order():
    queue = DropTailQueue(4)
    for i in range(4):
        assert queue.push(i)
    assert [queue.pop() for _ in range(4)] == [0, 1, 2, 3]


def test_queue_drops_when_full():
    queue = DropTailQueue(2)
    assert queue.push(1) and queue.push(2)
    assert not queue.push(3)
    assert queue.dropped == 1
    assert queue.drop_rate == pytest.approx(1 / 3)


def test_queue_peak_depth():
    queue = DropTailQueue(10)
    for i in range(7):
        queue.push(i)
    queue.pop()
    assert queue.peak_depth == 7


def test_queue_capacity_validation():
    with pytest.raises(ConfigurationError):
        DropTailQueue(0)


def test_queue_empty_pop_raises():
    with pytest.raises(IndexError):
        DropTailQueue(1).pop()


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------

def test_bucket_starts_full(sim):
    bucket = TokenBucket(sim, rate=100.0, burst=50.0)
    assert bucket.tokens == pytest.approx(50.0)
    assert bucket.try_consume(50.0)
    assert not bucket.try_consume(1.0)


def test_bucket_refills_with_sim_time(sim):
    bucket = TokenBucket(sim, rate=10.0, burst=100.0)
    bucket.try_consume(100.0)
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert bucket.tokens == pytest.approx(50.0)


def test_bucket_capped_at_burst(sim):
    bucket = TokenBucket(sim, rate=1000.0, burst=10.0)
    sim.schedule(100.0, lambda: None)
    sim.run()
    assert bucket.tokens == pytest.approx(10.0)


def test_bucket_time_until(sim):
    bucket = TokenBucket(sim, rate=10.0, burst=10.0)
    bucket.try_consume(10.0)
    assert bucket.time_until(5.0) == pytest.approx(0.5)
    assert bucket.time_until(0.0) == 0.0


def test_bucket_validation(sim):
    with pytest.raises(ConfigurationError):
        TokenBucket(sim, rate=0.0, burst=1.0)
    bucket = TokenBucket(sim, rate=1.0, burst=1.0)
    with pytest.raises(ConfigurationError):
        bucket.try_consume(-1.0)
