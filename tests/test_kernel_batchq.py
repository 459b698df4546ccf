"""Timer-class bookkeeping over the heap: cancellation accounting and
bounded storage.

Entries of a :meth:`Simulator.batch_class` are plain heap events, and a
cancel never removes one at ``cancel()`` time — the dead tuple stays in
the heap until it surfaces or a threshold compaction drops it — so an
unbounded cancel/reschedule workload (retry timers, lease renewals torn
down on every renewal) would grow the heap forever without the
compaction these tests pin down.
"""

from __future__ import annotations

from repro.kernel.scheduler import COMPACT_MIN_QUEUE, Simulator


def test_cancel_heavy_batch_storage_stays_bounded():
    sim = Simulator(seed=0, trace=False)
    queue = sim.batch_class("test.retry", lambda owner, _p: None,
                            cancellable=True)
    # 200 rounds of "arm 50 retry timers, then cancel them all" — the
    # pattern a renewal/retry subsystem produces continuously.  Without
    # threshold compaction the heap stores 10 000 dead entries.
    for round_no in range(200):
        handles = [queue.schedule(1000.0 + round_no + i * 1e-3)
                   for i in range(50)]
        for handle in handles:
            handle.cancel()
        # Compaction keeps the heap (live + dead entries) bounded by the
        # threshold floor plus one round's churn, no matter how many
        # rounds have passed.
        assert len(sim._queue) <= COMPACT_MIN_QUEUE * 2 + 50
    assert sim.compactions > 0
    assert sim.pending() == 0
    assert sim._cancelled_count <= COMPACT_MIN_QUEUE * 2


def test_mixed_cancel_survivors_still_fire_after_compaction():
    sim = Simulator(seed=0, trace=False)
    fired = []
    queue = sim.batch_class("test.mixed", lambda owner, _p: fired.append(owner),
                            cancellable=True)
    survivors = set()
    for i in range(1000):
        handle = queue.schedule(1.0 + i * 1e-4, owner=i)
        if i % 10 == 0:
            survivors.add(i)
        else:
            handle.cancel()
    assert sim.compactions > 0  # the 90% cancel rate forced compaction
    assert len(sim._queue) < 1000
    assert sim.pending() == len(survivors)
    sim.run()
    assert sorted(fired) == sorted(survivors)


def test_cancelled_ratio_property_and_gauge():
    sim = Simulator(seed=0, trace=False)
    sim.metrics  # create the registry (and with it the gauge) up front
    queue = sim.batch_class("test.gauge", lambda owner, _p: None,
                            cancellable=True)
    handles = [queue.schedule(5.0, owner=i) for i in range(40)]
    assert sim.cancelled_ratio == 0.0
    for handle in handles[:10]:
        handle.cancel()
    # 10 dead of 40 in the heap — below the compaction threshold, so
    # every dead entry is still stored and the ratio sees it.
    assert abs(sim.cancelled_ratio - 0.25) < 1e-9
    assert sim.pending() == 30
    gauges = sim.metrics.snapshot()["gauges"]
    assert abs(gauges["kernel.cancelled_ratio"]["value"] - 0.25) < 1e-9
    sim.run()
    assert sim.cancelled_ratio == 0.0
    assert sim.pending() == 0


def test_kernel_probe_reports_per_class_stats():
    sim = Simulator(seed=0, trace=False)
    sim.metrics
    fired = []
    queue = sim.batch_class("test.stats", lambda owner, _p: fired.append(owner),
                            cancellable=True)
    handles = [queue.schedule(1.0, owner=i) for i in range(8)]
    handles[0].cancel()
    assert sim.pending() == 7
    assert abs(sim.cancelled_ratio - 1 / 8) < 1e-9
    sim.run()
    assert fired == list(range(1, 8))
    assert sim.pending() == 0
    probe = sim.metrics.snapshot()["probes"]["kernel"]
    assert probe == {"cancelled_ratio": 0.0, "compactions": 0}
