"""Property tests for timer classes (:meth:`Simulator.batch_class`).

Random schedule/cancel programs are replayed twice: once through a timer
class and once as the same callbacks scheduled directly on the heap.
The observable firing log — ``(time, owner)`` in execution order — must
be identical, and cancellation must remove exactly the cancelled
entries.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.scheduler import Simulator

delay = st.floats(min_value=0.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False)

#: A program is a list of operations applied in order before running:
#: ("batch", delay, owner), ("heap", delay), ("cancel", index) — cancel
#: targets the index-th timer-class entry scheduled so far (modulo count).
ops = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), delay,
                  st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("heap"), delay),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    ),
    min_size=1, max_size=40)


def _replay(program, via_class: bool):
    sim = Simulator(seed=0)
    log = []

    def fire(owner, _p):
        log.append((sim.now, owner))

    queue = sim.batch_class("prop.timer", fire, cancellable=True)
    handles = []
    for op in program:
        if op[0] == "batch":
            if via_class:
                handles.append(queue.schedule(op[1], owner=op[2]))
            else:
                handles.append(sim.schedule(op[1], fire, op[2], None))
        elif op[0] == "heap":
            sim.schedule(op[1], lambda: log.append((sim.now, -1)))
        elif handles:
            handles[op[1] % len(handles)].cancel()
    sim.run()
    return log


@given(ops)
@settings(max_examples=80, deadline=None)
def test_batched_firing_log_matches_heap_oracle(program):
    assert _replay(program, via_class=True) == _replay(program,
                                                       via_class=False)


@given(st.lists(delay, min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_schedule_many_fires_in_nondecreasing_time_order(delays):
    sim = Simulator(seed=0)
    fired = []
    queue = sim.batch_class("prop.many",
                            lambda owner, _p: fired.append((sim.now, owner)),
                            cancellable=False)
    queue.schedule_many_at(delays, owners=list(range(len(delays))))
    sim.run()
    assert len(fired) == len(delays)
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # Equal-deadline entries fire in scheduling (sequence) order.
    for (t_a, owner_a), (t_b, owner_b) in zip(fired, fired[1:]):
        if t_a == t_b:
            assert owner_a < owner_b


@given(st.lists(delay, min_size=1, max_size=40),
       st.sets(st.integers(min_value=0, max_value=39)))
@settings(max_examples=60, deadline=None)
def test_cancellation_removes_exactly_the_cancelled(delays, cancel):
    sim = Simulator(seed=0)
    fired = []
    queue = sim.batch_class("prop.cancel",
                            lambda owner, _p: fired.append(owner),
                            cancellable=True)
    handles = [queue.schedule(d, owner=i) for i, d in enumerate(delays)]
    cancelled = {i for i in cancel if i < len(handles)}
    for i in cancelled:
        handles[i].cancel()
        handles[i].cancel()  # double-cancel is a no-op
    assert sim.pending() == len(delays) - len(cancelled)
    sim.run()
    assert sorted(fired) == sorted(set(range(len(delays))) - cancelled)
    assert sim.pending() == 0


@given(ops)
@settings(max_examples=40, deadline=None)
def test_rescheduling_from_callbacks_matches_oracle(program):
    """Callbacks that schedule more work mid-run interleave with plain
    heap events exactly as the same callbacks scheduled directly do."""

    def _run(via_class):
        sim = Simulator(seed=0)
        log = []
        queue = [None]

        def schedule(delay, owner):
            if via_class:
                queue[0].schedule(delay, owner=owner)
            else:
                sim.schedule_bound(delay, fire, (owner, None))

        def fire(owner, _p):
            log.append((sim.now, owner))
            if owner % 3 == 0 and len(log) < 200:
                schedule(0.25 * (owner + 1), owner + 1)

        queue[0] = sim.batch_class("prop.chain", fire, cancellable=False)
        for op in program:
            if op[0] == "batch":
                schedule(op[1], op[2] * 3)
            elif op[0] == "heap":
                sim.schedule(op[1], lambda: log.append((sim.now, -1)))
        sim.run(until=200.0)
        return log

    assert _run(True) == _run(False)
