"""A small execution-engine model (the "Exe" box, running).

The paper: "A device's execution environment and volatile memory must be
sufficiently responsive and yet use other resources economically ... this
is not just an issue of speed, but also of responsiveness and control."
This module runs tasks on a simulated CPU so those properties are
*measurable*: interactive tasks record their queueing delay, single-tasking
engines block interactive work behind batch work, and aborting is only
possible when the spec allows it — the exact frustration
:func:`repro.resource.matching.match` scores statically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..kernel.errors import ConfigurationError
from ..kernel.events import Priority
from ..kernel.scheduler import Simulator
from .platform import ExecutionSpec


@dataclass
class Task:
    """One unit of work submitted to an engine."""

    name: str
    #: work amount in million instructions.
    mi: float
    #: interactive tasks are what the user is waiting on right now.
    interactive: bool = False
    on_done: Optional[Callable[["Task"], None]] = None
    #: minted by the engine the task is first submitted to (None before).
    task_id: Optional[int] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    aborted: bool = False

    @property
    def queueing_delay(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def response_time(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


class ExecutionEngine:
    """A FIFO CPU with optional multitasking (processor sharing is
    approximated by round-robin quanta) and optional abort support."""

    QUANTUM_MI = 5.0  #: round-robin quantum in million instructions

    def __init__(self, sim: Simulator, spec: ExecutionSpec,
                 name: str = "engine") -> None:
        self.sim = sim
        self.spec = spec
        self.name = name
        self._ready: List[Task] = []
        self._remaining_mi: Dict[int, float] = {}
        self._running: Optional[Task] = None
        self._slice_event = None
        self.completed: List[Task] = []
        self.aborted: List[Task] = []
        self.interactive_delays: List[float] = []
        self._task_ids = itertools.count(1)

    # ------------------------------------------------------------------
    def submit(self, task: Task) -> Task:
        if task.mi <= 0:
            raise ConfigurationError("task work must be positive")
        if task.task_id is None:
            task.task_id = next(self._task_ids)
        task.submitted_at = self.sim.now
        self._remaining_mi[task.task_id] = task.mi
        self._ready.append(task)
        self._dispatch()
        return task

    def run_task(self, name: str, mi: float, interactive: bool = False,
                 on_done: Optional[Callable[[Task], None]] = None) -> Task:
        """Convenience: build and submit a task."""
        return self.submit(Task(name, mi, interactive, on_done))

    def abort(self, task: Task) -> bool:
        """Abort a queued or running task.  Returns False (and records an
        issue) when the engine does not support aborting."""
        if not self.spec.abortable:
            self.sim.issue("execution", self.name,
                           f"user tried to abort {task.name!r} but the "
                           "engine is not abortable")
            return False
        if task.finished_at is not None or task.aborted:
            return False
        task.aborted = True
        self._remaining_mi.pop(task.task_id, None)
        if task in self._ready:
            self._ready.remove(task)
        if self._running is task:
            self._cancel_slice()
            self._running = None
            self.sim.call_soon(self._dispatch, priority=Priority.APP)
        self.aborted.append(task)
        return True

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        if self._running is not None or not self._ready:
            return
        if self.spec.multitasking:
            task = self._ready.pop(0)  # round-robin over the ready list
        else:
            task = self._ready.pop(0)  # strict FIFO: no preemption at all
        if task.started_at is None:
            task.started_at = self.sim.now
            if task.interactive:
                delay = task.queueing_delay or 0.0
                self.interactive_delays.append(delay)
                if delay > 1.0:
                    self.sim.issue(
                        "execution", self.name,
                        f"interactive task {task.name!r} waited "
                        f"{delay:.2f}s behind other work",
                        delay=delay)
        self._running = task
        remaining = self._remaining_mi[task.task_id]
        slice_mi = (min(self.QUANTUM_MI, remaining)
                    if self.spec.multitasking else remaining)
        duration = slice_mi / self.spec.mips
        self._slice_event = self.sim.schedule(
            duration, self._slice_done, task, slice_mi, priority=Priority.APP)

    def _cancel_slice(self) -> None:
        if self._slice_event is not None:
            self._slice_event.cancel()
            self._slice_event = None

    def _slice_done(self, task: Task, slice_mi: float) -> None:
        self._slice_event = None
        self._running = None
        if task.aborted:
            self._dispatch()
            return
        remaining = self._remaining_mi.get(task.task_id, 0.0) - slice_mi
        if remaining <= 1e-12:
            self._remaining_mi.pop(task.task_id, None)
            task.finished_at = self.sim.now
            self.completed.append(task)
            if task.on_done is not None:
                task.on_done(task)
        else:
            self._remaining_mi[task.task_id] = remaining
            self._ready.append(task)  # back of the round-robin queue
        self._dispatch()

    # ------------------------------------------------------------------
    @property
    def utilisation_pending(self) -> int:
        """Tasks queued or running."""
        return len(self._ready) + (1 if self._running else 0)

    def worst_interactive_delay(self) -> float:
        return max(self.interactive_delays, default=0.0)
