"""Structured trace log and causal spans for simulations.

Components emit :class:`TraceRecord` entries through
:meth:`repro.kernel.scheduler.Simulator.trace`.  The trace is the raw
material for three consumers:

* metrics extraction in :mod:`repro.metrics` and the experiment harness;
* the LPC instrumentation bridge (:mod:`repro.core.instrument`) which
  classifies emitted *issues* into conceptual-model layers;
* the telemetry pipeline (:mod:`repro.telemetry`) which exports records,
  spans and metric snapshots as JSONL and renders per-layer run reports.

Alongside the flat record log the tracer stores :class:`Span` entries —
timed intervals with a ``parent_id`` forming a *causal tree*.  The
scheduler propagates the current span through every scheduled event (see
:meth:`repro.kernel.scheduler.Simulator.span_begin`), so a frame's journey
``transport.send -> mac.tx -> transport.deliver -> session.acquire`` is
reconstructable after the run even though it crossed many events.

Tracing is cheap when disabled (a single predicate test per emit) and
filterable by category when enabled.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .errors import ConfigurationError

#: Bounded-buffer policies for :class:`Tracer`.
#: ``head`` (default) drops the *newest* records once full — preserving the
#: warm-up behaviour experiments usually care about; ``ring`` drops the
#: *oldest*, keeping a sliding window of the most recent records.  Both
#: count every drop.  ``stream`` stores nothing at all: every record and
#: span is dispatched to subscribers/hooks and then discarded, giving
#: O(1) memory for million-event runs consumed by
#: :class:`repro.telemetry.streaming.StreamingAggregator` or a live
#: exporter.
TRACER_MODES: Tuple[str, ...] = ("head", "ring", "stream")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace entry.

    Attributes:
        time: simulation time of the emission.
        category: dotted category string, e.g. ``"mac.tx"`` or
            ``"issue.session"``.  Categories beginning with ``issue.`` feed
            the LPC issue classifier.
        source: name of the emitting component.
        message: human-readable one-liner.
        data: structured payload (numbers, ids) for programmatic consumers.
    """

    time: float
    category: str
    source: str
    message: str
    data: Dict[str, Any] = field(default_factory=dict)

    def matches(self, prefix: str) -> bool:
        """True if the record's category equals ``prefix`` or sits under it.

        The empty prefix is the root: it matches everything.
        """
        if not prefix:
            return True
        return self.category == prefix or self.category.startswith(prefix + ".")


@dataclass(slots=True)
class Span:
    """One timed interval in the causal tree.

    A span is *open* between :meth:`Simulator.span_begin` and
    :meth:`Simulator.span_end`; ``parent_id`` points at the span that was
    current when it began (possibly in an earlier event — the scheduler
    carries span context across ``schedule``/``schedule_bound``).
    """

    span_id: int
    parent_id: Optional[int]
    category: str
    source: str
    start: float
    end: Optional[float] = None
    status: str = "open"  #: "open" until ended, then "ok"/"error"/custom.
    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        """Span length in simulated seconds; None while still open."""
        return None if self.end is None else self.end - self.start

    def matches(self, prefix: str) -> bool:
        """True if the span's category equals ``prefix`` or sits under it
        (empty prefix matches everything)."""
        if not prefix:
            return True
        return self.category == prefix or self.category.startswith(prefix + ".")


class _NullSpan:
    """The span returned when tracing is disabled: inert and shared."""

    __slots__ = ()
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    category = ""
    source = ""
    status = "disabled"

    def matches(self, prefix: str) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullSpan>"


#: Singleton no-op span handed out by a disabled tracer.
NULL_SPAN = _NullSpan()


# ---------------------------------------------------------------------------
# Process-default hooks: installed into every Tracer constructed afterwards.
# The CLI uses these to stream records/spans to a JSONL file from runs whose
# simulators are built deep inside an experiment.
# ---------------------------------------------------------------------------

_DEFAULT_SUBSCRIBERS: List[Tuple[str, Callable[[TraceRecord], None]]] = []
_DEFAULT_SPAN_HOOKS: List[Callable[[Span], None]] = []
_DEFAULT_SPAN_BEGIN_HOOKS: List[Callable[[Span], None]] = []


def add_default_subscriber(prefix: str,
                           callback: Callable[[TraceRecord], None],
                           ) -> Callable[[], None]:
    """Subscribe ``callback`` to ``prefix`` on every *future* Tracer.

    Returns a remover.  Existing tracers are unaffected.
    """
    entry = (prefix, callback)
    _DEFAULT_SUBSCRIBERS.append(entry)

    def remove() -> None:
        try:
            _DEFAULT_SUBSCRIBERS.remove(entry)
        except ValueError:
            pass

    return remove


def add_default_span_hook(callback: Callable[[Span], None],
                          ) -> Callable[[], None]:
    """Call ``callback(span)`` on span end in every *future* Tracer."""
    _DEFAULT_SPAN_HOOKS.append(callback)

    def remove() -> None:
        try:
            _DEFAULT_SPAN_HOOKS.remove(callback)
        except ValueError:
            pass

    return remove


def add_default_span_begin_hook(callback: Callable[[Span], None],
                                ) -> Callable[[], None]:
    """Call ``callback(span)`` on span *begin* in every *future* Tracer.

    Begin hooks let streaming consumers observe spans that never close
    (leaks, crashes) without the tracer retaining the span list.
    """
    _DEFAULT_SPAN_BEGIN_HOOKS.append(callback)

    def remove() -> None:
        try:
            _DEFAULT_SPAN_BEGIN_HOOKS.remove(callback)
        except ValueError:
            pass

    return remove


class Tracer:
    """Collects trace records and spans; dispatches to live subscribers.

    Args:
        enabled: record anything at all.
        capacity: optional bound on stored *records* (spans are unbounded;
            heavy sweeps run with tracing disabled).
        mode: bounded-buffer policy, ``"head"`` (drop newest, the default)
            or ``"ring"`` (drop oldest); ``"stream"`` retains nothing and
            only dispatches to subscribers and span hooks.
    """

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None,
                 mode: str = "head") -> None:
        if mode not in TRACER_MODES:
            raise ConfigurationError(
                f"unknown tracer mode {mode!r}; choose from {TRACER_MODES}")
        if mode == "stream" and capacity is not None:
            raise ConfigurationError(
                "tracer mode 'stream' stores nothing; capacity is meaningless"
                " — drop the capacity or use 'head'/'ring'")
        self.enabled = enabled
        self.capacity = capacity
        self.mode = mode
        self._retain = mode != "stream"
        if mode == "ring" and capacity is not None:
            # deque(maxlen=...) evicts the oldest entry on append-when-full
            # in O(1); emit() counts the eviction.
            self.records: Any = deque(maxlen=capacity)
        else:
            self.records = []
        self._subscribers: List[tuple] = list(_DEFAULT_SUBSCRIBERS)
        self._span_hooks: List[Callable[[Span], None]] = \
            list(_DEFAULT_SPAN_HOOKS)
        self._span_begin_hooks: List[Callable[[Span], None]] = \
            list(_DEFAULT_SPAN_BEGIN_HOOKS)
        self.dropped = 0
        self.spans: List[Span] = []
        self._span_seq = itertools.count(1)

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def emit(self, record: TraceRecord) -> None:
        """Store ``record`` and notify matching subscribers.

        When a ``capacity`` is set the log behaves as a bounded buffer:
        ``head`` mode drops the *newest* records once full, ``ring`` mode
        drops the *oldest* — both count drops so nothing is silently lost.
        ``stream`` mode stores nothing (and counts nothing as dropped):
        subscribers are the only consumers.
        """
        if not self.enabled:
            return
        if not self._retain:
            pass
        elif self.capacity is not None and len(self.records) >= self.capacity:
            self.dropped += 1
            if self.mode == "ring":
                self.records.append(record)  # deque evicts the oldest
        else:
            self.records.append(record)
        # TraceRecord.matches(prefix), inlined: the empty prefix, the
        # category itself and its dotted children match.
        category = record.category
        for prefix, callback in self._subscribers:
            if (not prefix or category == prefix
                    or category.startswith(prefix + ".")):
                callback(record)

    def subscribe(self, prefix: str, callback: Callable[[TraceRecord], None]) -> Callable[[], None]:
        """Call ``callback`` for every future record under ``prefix``.

        Returns an unsubscribe function.
        """
        entry = (prefix, callback)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(entry)
            except ValueError:
                pass

        return unsubscribe

    def select(self, prefix: str) -> List[TraceRecord]:
        """All stored records whose category sits under ``prefix``."""
        return [r for r in self.records if r.matches(prefix)]

    def issues(self) -> List[TraceRecord]:
        """All records in the ``issue.*`` namespace (LPC classifier input)."""
        return self.select("issue")

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin_span(self, time: float, category: str, source: str,
                   parent_id: Optional[int] = None, **data: Any) -> Span:
        """Open a new span starting at ``time`` under ``parent_id``.

        In ``stream`` mode the span is handed to begin hooks but not
        retained; causal links still work because the caller holds the
        span object until :meth:`end_span`.
        """
        span = Span(next(self._span_seq), parent_id, category, source, time,
                    data=data)
        if self._retain:
            self.spans.append(span)
        for hook in self._span_begin_hooks:
            hook(span)
        return span

    def end_span(self, span: Span, time: float, status: str = "ok") -> None:
        """Close ``span`` at ``time`` and notify span hooks."""
        span.end = time
        span.status = status
        for hook in self._span_hooks:
            hook(span)

    def add_span_hook(self, callback: Callable[[Span], None]) -> Callable[[], None]:
        """Call ``callback(span)`` whenever a span ends; returns a remover."""
        self._span_hooks.append(callback)

        def remove() -> None:
            try:
                self._span_hooks.remove(callback)
            except ValueError:
                pass

        return remove

    def add_span_begin_hook(self, callback: Callable[[Span], None],
                            ) -> Callable[[], None]:
        """Call ``callback(span)`` whenever a span begins; returns a remover."""
        self._span_begin_hooks.append(callback)

        def remove() -> None:
            try:
                self._span_begin_hooks.remove(callback)
            except ValueError:
                pass

        return remove

    def select_spans(self, prefix: str) -> List[Span]:
        """All spans whose category sits under ``prefix``."""
        return [s for s in self.spans if s.matches(prefix)]

    def open_spans(self) -> List[Span]:
        """Spans begun but never ended (useful for leak hunting)."""
        return [s for s in self.spans if s.end is None]

    # ------------------------------------------------------------------
    def clear(self) -> None:
        self.records.clear()
        self.spans.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)


def span_children(spans: List[Span]) -> Dict[Optional[int], List[Span]]:
    """Index ``spans`` by parent: the causal tree as an adjacency map.

    Roots sit under the ``None`` key.  Children keep span-id order, which
    is begin order — deterministic for seeded runs.
    """
    tree: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        tree.setdefault(span.parent_id, []).append(span)
    for children in tree.values():
        children.sort(key=lambda s: s.span_id)
    return tree


def span_ancestry(spans: List[Span], leaf: Span) -> List[Span]:
    """The chain from ``leaf`` up to its root, leaf first."""
    by_id = {s.span_id: s for s in spans}
    chain = [leaf]
    seen = {leaf.span_id}
    while chain[-1].parent_id is not None:
        parent = by_id.get(chain[-1].parent_id)
        if parent is None or parent.span_id in seen:
            break
        chain.append(parent)
        seen.add(parent.span_id)
    return chain
