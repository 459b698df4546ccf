"""Reliable message transport over the lossy substrate.

The Smart Projector's services (VNC-like projection, control RPCs, lookup
registration) need messages larger than one frame delivered reliably over
a radio that loses frames.  :class:`ReliableEndpoint` provides that:

* messages are segmented to the MTU;
* a per-destination sliding window limits in-flight segments (so one bulk
  sender cannot flood the MAC queue);
* receivers acknowledge segments selectively; senders retransmit on
  timeout with exponential backoff up to a retry budget;
* receivers deduplicate, reassemble, and deliver exactly once per message.

The MAC below already retries individual frames; transport-level recovery
covers what the MAC gives up on (retry exhaustion, queue drops, lost
genie-ACK duplicates).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Set, Tuple

from ..kernel.errors import ConfigurationError, TransportError
from ..kernel.events import Priority
from ..kernel.scheduler import Simulator
from .frames import MTU_BYTES, Frame
from .stack import NetworkStack


# Headers are immutable NamedTuples (one per frame, so construction cost
# counts) and are dispatched by isinstance in ``_receive``; nothing
# compares them for equality.
class Segment(NamedTuple):
    """Transport header riding in a frame payload."""

    message_id: int
    index: int
    count: int
    data: Any  #: the message object, carried on the final segment only
    total_bytes: int = 0  #: declared size of the whole message


class Ack(NamedTuple):
    message_id: int
    index: int


class _TxMessage:
    """Sender-side state for one in-flight message."""

    __slots__ = ("message_id", "dst", "obj", "size_bytes", "segments",
                 "unacked", "inflight", "on_delivered", "on_failed",
                 "retries", "timer", "timeout", "started", "span")

    def __init__(self, message_id: int, dst: str, obj: Any, size_bytes: int,
                 count: int, on_delivered, on_failed, timeout: float,
                 started: float) -> None:
        self.span = None  #: causal span from send() to final ack/failure
        self.message_id = message_id
        self.dst = dst
        self.obj = obj
        self.size_bytes = size_bytes
        self.segments = count
        self.unacked: Set[int] = set(range(count))
        self.inflight: Set[int] = set()
        self.on_delivered = on_delivered
        self.on_failed = on_failed
        self.retries = 0
        self.timer = None
        self.timeout = timeout
        self.started = started


class _RxMessage:
    """Receiver-side reassembly state."""

    __slots__ = ("received", "count", "data")

    def __init__(self, count: int) -> None:
        self.received: Set[int] = set()
        self.count = count
        self.data: Any = None


class ReliableEndpoint:
    """Reliable, message-oriented endpoint bound to one stack port.

    Args:
        sim: simulator.
        stack: the node's network stack.
        port: port to bind (data and acks share it).
        on_message: ``callback(src_address, obj, size_bytes)`` for inbound
            messages.
        window: max unacked segments per destination.
        timeout: initial retransmission timeout (doubles per retry).
        max_retries: per-message retransmission rounds before failure.
    """

    ACK_BYTES = 8

    def __init__(self, sim: Simulator, stack: NetworkStack, port: int,
                 on_message: Optional[Callable[[str, Any, int], None]] = None,
                 window: int = 8, timeout: float = 0.08,
                 max_retries: int = 10) -> None:
        if window < 1 or timeout <= 0 or max_retries < 0:
            raise ConfigurationError("bad window/timeout/max_retries")
        self.sim = sim
        self.stack = stack
        self.port = port
        self.on_message = on_message
        self.window = window
        self.timeout = timeout
        self.max_retries = max_retries
        self._unbind = stack.bind(port, self._receive)
        self._tx: Dict[int, _TxMessage] = {}
        #: per-destination FIFO of message ids; only the head is in flight,
        #: so two large messages to one peer cannot interleave and thrash
        #: the shared radio (TCP-like serialisation per flow).
        self._tx_queues: Dict[str, list] = {}
        self._rx: Dict[Tuple[str, int], _RxMessage] = {}
        self._delivered: Set[Tuple[str, int]] = set()
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_failed = 0
        self.messages_received = 0
        self.bytes_received = 0
        self.closed = False

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dst: str, obj: Any = None, size_bytes: int = 0,
             on_delivered: Optional[Callable[[], None]] = None,
             on_failed: Optional[Callable[[], None]] = None) -> int:
        """Send ``obj`` (declared ``size_bytes`` on the wire) reliably.

        Returns the message id.  Completion is signalled through the
        optional callbacks.
        """
        if self.closed:
            raise TransportError("endpoint is closed")
        if size_bytes < 0:
            raise ConfigurationError("size_bytes must be non-negative")
        count = max(1, -(-size_bytes // MTU_BYTES))  # ceil division
        message_id = self.sim.next_seq("net.message_seq")
        tx = _TxMessage(message_id, dst, obj, size_bytes, count,
                        on_delivered, on_failed, self.timeout, self.sim.now)
        if self.sim.tracer.enabled:
            # Not activated here: the caller's context must survive the
            # send() call.  _push() makes it ambient while frames and the
            # retransmission timer are scheduled, so they nest beneath it.
            tx.span = self.sim.span_begin(
                "transport.send", self.stack.address, activate=False,
                msg=message_id, dst=dst, bytes=size_bytes, segments=count)
        self._tx[message_id] = tx
        queue = self._tx_queues.setdefault(dst, [])
        queue.append(message_id)
        self.messages_sent += 1
        if queue[0] == message_id:
            self._push(tx)
        return message_id

    def cancel_pending(self, dst: str) -> int:
        """Abandon queued (not-yet-started) messages to ``dst``.

        Used by senders whose payloads go stale — e.g. a framebuffer
        server that is about to send a fresher update.  The in-flight head
        message is not touched.  Returns how many messages were dropped;
        their ``on_failed`` callbacks fire.
        """
        queue = self._tx_queues.get(dst, [])
        dropped = 0
        for message_id in queue[1:]:
            tx = self._tx.pop(message_id, None)
            if tx is None:
                continue
            dropped += 1
            self.messages_failed += 1
            if tx.on_failed is not None:
                tx.on_failed()
        del queue[1:]
        return dropped

    def _segment_bytes(self, tx: _TxMessage, index: int) -> int:
        if tx.segments == 1:
            return tx.size_bytes
        if index < tx.segments - 1:
            return MTU_BYTES
        return max(1, tx.size_bytes - MTU_BYTES * (tx.segments - 1))

    def _push(self, tx: _TxMessage) -> None:
        """Fill the window with not-yet-in-flight segments, arm the timer.

        Only segments that are neither acked nor already in flight are
        (re)sent, so an arriving ACK opens exactly one window slot instead
        of blasting duplicates of everything outstanding.  With tracing on
        the message's span is ambient meanwhile, so the frames and the
        retransmission timer nest beneath it.
        """
        if tx.message_id not in self._tx:
            return
        sim = self.sim
        saved = sim._span_ctx
        span = tx.span
        if span is not None and span.span_id is not None:
            sim._span_ctx = span.span_id
        try:
            room = self.window - len(tx.inflight)
            if room > 0:
                if tx.segments == 1:
                    # The only candidate is segment 0: no set difference,
                    # no sort.
                    due = (0,) if tx.unacked and not tx.inflight else ()
                else:
                    due = sorted(tx.unacked - tx.inflight)[:room]
                for index in due:
                    tx.inflight.add(index)
                    data = tx.obj if index == tx.segments - 1 else None
                    segment = Segment(tx.message_id, index, tx.segments,
                                      data, tx.size_bytes)
                    self.stack.send(tx.dst, segment,
                                    self._segment_bytes(tx, index),
                                    self.port, kind="data")
            if tx.timer is not None:
                tx.timer.cancel()
            tx.timer = sim.schedule(tx.timeout, self._timeout, tx,
                                    priority=Priority.PROTOCOL)
        finally:
            sim._span_ctx = saved

    def _timeout(self, tx: _TxMessage) -> None:
        if tx.message_id not in self._tx or not tx.unacked:
            return
        tx.retries += 1
        if tx.retries > self.max_retries:
            self._finish_tx(tx, success=False)
            return
        tx.timeout = min(tx.timeout * 2.0, 2.0)
        tx.inflight.clear()  # everything outstanding is presumed lost
        self.sim.trace("transport.rto", self.stack.address,
                       f"msg {tx.message_id} retry {tx.retries}")
        self._push(tx)

    def _finish_tx(self, tx: _TxMessage, success: bool) -> None:
        if tx.timer is not None:
            tx.timer.cancel()
            tx.timer = None
        self._tx.pop(tx.message_id, None)
        queue = self._tx_queues.get(tx.dst)
        if queue and queue[0] == tx.message_id:
            queue.pop(0)
            while queue:  # start the next message to this destination
                next_tx = self._tx.get(queue[0])
                if next_tx is not None:
                    self._push(next_tx)
                    break
                queue.pop(0)
        if tx.span is not None:
            self.sim.span_end(tx.span, "ok" if success else "failed")
        if success:
            self.messages_delivered += 1
            if tx.on_delivered is not None:
                tx.on_delivered()
        else:
            self.messages_failed += 1
            self.sim.trace("transport.fail", self.stack.address,
                           f"msg {tx.message_id} to {tx.dst} failed")
            if tx.on_failed is not None:
                tx.on_failed()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _receive(self, frame: Frame) -> None:
        payload = frame.payload
        if isinstance(payload, Ack):
            self._handle_ack(payload)
        elif isinstance(payload, Segment):
            self._handle_segment(frame.src, payload)
        # anything else on this port is a stray; ignore silently

    def _handle_ack(self, ack: Ack) -> None:
        tx = self._tx.get(ack.message_id)
        if tx is None:
            return
        tx.unacked.discard(ack.index)
        tx.inflight.discard(ack.index)
        if not tx.unacked:
            self._finish_tx(tx, success=True)
        else:
            self._push(tx)

    def _handle_segment(self, src: str, segment: Segment) -> None:
        # Always ack, even duplicates (the earlier ack may have been lost).
        self.stack.send(src, Ack(segment.message_id, segment.index),
                        self.ACK_BYTES, self.port, kind="ctrl")
        key = (src, segment.message_id)
        if key in self._delivered:
            return
        state = self._rx.get(key)
        if state is None:
            state = _RxMessage(segment.count)
            self._rx[key] = state
        if segment.index in state.received:
            return
        state.received.add(segment.index)
        if segment.index == segment.count - 1:
            state.data = segment.data
        if len(state.received) == state.count:
            del self._rx[key]
            self._delivered.add(key)
            self.messages_received += 1
            self.bytes_received += segment.total_bytes
            if self.on_message is not None:
                # The delivery span nests under whatever frame carried the
                # final segment (a mac.tx or wired delivery), closing the
                # causal chain send -> airtime -> deliver -> handler work.
                with self.sim.span("transport.deliver", self.stack.address,
                                   msg=segment.message_id, src=src,
                                   bytes=segment.total_bytes):
                    self.on_message(src, state.data, segment.total_bytes)

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Messages still awaiting full acknowledgement."""
        return len(self._tx)

    def close(self) -> None:
        """Unbind; in-flight messages are abandoned (callbacks not fired)."""
        if not self.closed:
            for tx in list(self._tx.values()):
                if tx.timer is not None:
                    tx.timer.cancel()
            self._tx.clear()
            self._unbind()
            self.closed = True
