"""Wired point-to-point links.

"Connecting portable wireless devices to traditional networks" is one of
the Aroma project's four research areas — the wired side is the
traditional network.  A :class:`WiredLink` joins two :class:`WiredPort`
endpoints with serialisation delay, propagation delay, an optional random
loss rate, and a drop-tail queue per direction.  Ports expose the same
interface as a wireless NIC (``address``, ``send_frame``, ``on_receive``)
so stacks and bridges are transport-agnostic.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..kernel.errors import ConfigurationError
from ..kernel.events import Priority
from ..kernel.scheduler import Simulator
from .addresses import validate_address
from .frames import Frame, frame_id_counter
from .queueing import DropTailQueue, Pacer

_MEDIUM_PRI = int(Priority.MEDIUM)


def _fire_sent(_owner: int, pack: tuple) -> None:
    port, frame = pack
    port._sent(frame)


def _fire_deliver(_owner: int, pack: tuple) -> None:
    port, frame = pack
    port._deliver(frame)


class WiredPort:
    """One endpoint of a wired link."""

    def __init__(self, link: "WiredLink", address: str) -> None:
        self.link = link
        self.address = validate_address(address)
        self.on_receive: Optional[Callable[[Frame], None]] = None
        self.queue = DropTailQueue(link.queue_frames, link.sim,
                                   f"wired.{self.address}")
        self._busy = False
        self._frame_ids = frame_id_counter(link.sim)
        self.tx_frames = 0
        self.rx_frames = 0

    def send_frame(self, frame: Frame) -> bool:
        """Queue a frame for the far end; False on queue overflow.

        Mints the frame's id on first entry, like :meth:`CsmaMac.send`."""
        if frame.frame_id is None:
            frame.frame_id = next(self._frame_ids)
        if not self.queue.push(frame):
            self.link.sim.trace("link.qdrop", self.address,
                                f"queue full, dropping #{frame.frame_id}")
            return False
        self._pump()
        return True

    def send(self, dst: str, payload=None, payload_bytes: int = 0,
             kind: str = "data", port: int = 0) -> bool:
        return self.send_frame(Frame(self.address, dst, payload,
                                     payload_bytes, kind, port))

    def _pump(self) -> None:
        if self._busy or not self.queue:
            return
        frame = self.queue.pop()
        self._busy = True
        tx_time = 8.0 * frame.wire_bytes / self.link.rate_bps
        self.link._schedule_sent(tx_time, payload=(self, frame))

    def _sent(self, frame: Frame) -> None:
        self._busy = False
        self.tx_frames += 1
        self.link._propagate(self, frame)
        self._pump()

    def _deliver(self, frame: Frame) -> None:
        self.rx_frames += 1
        if self.on_receive is not None:
            self.on_receive(frame)


class WiredLink:
    """A full-duplex point-to-point wire between two named endpoints.

    Args:
        sim: the simulator.
        a, b: endpoint addresses.
        rate_bps: serialisation rate (10 Mb/s Ethernet by default).
        delay_s: one-way propagation delay.
        loss: independent per-frame loss probability (cable faults; 0.0
            for a healthy wire).
        queue_frames: per-direction interface queue capacity.
    """

    def __init__(self, sim: Simulator, a: str, b: str,
                 rate_bps: float = 10e6, delay_s: float = 1e-4,
                 loss: float = 0.0, queue_frames: int = 128) -> None:
        if rate_bps <= 0 or delay_s < 0:
            raise ConfigurationError("bad link rate/delay")
        if not (0.0 <= loss < 1.0):
            raise ConfigurationError("loss must be in [0, 1)")
        if a == b:
            raise ConfigurationError("link endpoints must differ")
        self.sim = sim
        self.rate_bps = float(rate_bps)
        self.delay_s = float(delay_s)
        self.loss = float(loss)
        self.queue_frames = queue_frames
        self._rng = sim.rng(f"link.{a}--{b}")
        # Serialisation-end and propagation timers are kernel timer
        # classes, shared by name across every wired link.
        self._sent_pacer = Pacer(sim, "link.sent", _fire_sent,
                                 priority=_MEDIUM_PRI)
        self._deliver_pacer = Pacer(sim, "link.deliver", _fire_deliver,
                                    priority=_MEDIUM_PRI)
        # Pre-bound handler table: each frame event is scheduled through a
        # direct method reference instead of two attribute walks per frame.
        self._schedule_sent = self._sent_pacer.after
        self._schedule_deliver = self._deliver_pacer.after
        self.port_a = WiredPort(self, a)
        self.port_b = WiredPort(self, b)
        self.frames_lost = 0

    def _propagate(self, from_port: WiredPort, frame: Frame) -> None:
        if self.loss > 0.0 and self._rng.random() < self.loss:
            self.frames_lost += 1
            self.sim.trace("link.loss", from_port.address,
                           f"frame #{frame.frame_id} lost on the wire")
            return
        to_port = self.port_b if from_port is self.port_a else self.port_a
        # Point-to-point: deliver unicast-for-us and broadcast frames; a
        # frame addressed elsewhere still arrives (the far end may be a
        # bridge that forwards it).
        self._schedule_deliver(self.delay_s, payload=(to_port, frame))

    def other_end(self, address: str) -> WiredPort:
        """The port opposite the one named ``address``."""
        if address == self.port_a.address:
            return self.port_b
        if address == self.port_b.address:
            return self.port_a
        raise ConfigurationError(f"{address!r} is not an endpoint of this link")
