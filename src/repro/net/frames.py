"""Frames: the unit of transmission on links and the wireless medium.

A frame carries an arbitrary Python payload but declares its *wire size*
explicitly — like mpi4py's pickle-based convenience API, the payload rides
along for programmer comfort while the simulated airtime and loss behaviour
depend only on the declared byte count.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Optional

from ..kernel.errors import ConfigurationError
from ..kernel.scheduler import Simulator
from .addresses import _ADDRESS_RE, validate_address

#: Link-layer framing overhead added to every frame (header + FCS), bytes.
HEADER_BYTES: int = 34

#: Conventional MTU for the payload portion, bytes.
MTU_BYTES: int = 1500

_FRAME_KINDS = ("data", "mgmt", "ctrl")
_address_ok = _ADDRESS_RE.match


def frame_id_counter(sim: Simulator) -> Iterator[int]:
    """The simulator's frame-id counter (lives in ``sim.context``).

    Every MAC and wired port on one simulator shares it and mints a
    frame's id when the frame is first sent.  Scoped to the simulator,
    not the module, so twin runs in one process mint identical ids.
    """
    return sim.context.setdefault("net.frame_ids", itertools.count(1))


class Frame:
    """One link-layer frame.

    Attributes:
        src: sender address.
        dst: destination address (may be :data:`BROADCAST`).
        payload: arbitrary Python object delivered to the receiver.
        payload_bytes: declared payload size on the wire.
        kind: coarse type tag — ``"data"``, ``"mgmt"`` (discovery, leases)
            or ``"ctrl"`` (transport acks).
        port: demultiplexing key for the receiving stack.
        frame_id: per-simulator id from :func:`frame_id_counter`, minted
            when the frame is first handed to a MAC or wired port (None
            until then); a retransmitted frame keeps its id.
        wire_bytes: total size on the wire including link-layer overhead
            (computed once: nothing changes ``payload_bytes`` after
            construction).
    """

    __slots__ = ("src", "dst", "payload", "payload_bytes", "kind", "port",
                 "frame_id", "wire_bytes")

    def __init__(self, src: str, dst: str, payload: Any = None,
                 payload_bytes: int = 0, kind: str = "data", port: int = 0,
                 frame_id: Optional[int] = None) -> None:
        # A plain ``str`` that matches the address pattern is valid; every
        # other input (BROADCAST, non-str, str subclasses, malformed) goes
        # through validate_address, so rejections raise exactly as before.
        if type(src) is not str or not _address_ok(src):
            validate_address(src)
        if type(dst) is not str or not _address_ok(dst):
            validate_address(dst)
        if payload_bytes < 0:
            raise ConfigurationError(f"negative payload size {payload_bytes}")
        if payload_bytes > MTU_BYTES:
            raise ConfigurationError(
                f"payload {payload_bytes}B exceeds MTU {MTU_BYTES}B; "
                "segment at the transport layer")
        if kind not in _FRAME_KINDS:
            raise ConfigurationError(f"unknown frame kind {kind!r}")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.kind = kind
        self.port = port
        self.frame_id = frame_id
        self.wire_bytes = payload_bytes + HEADER_BYTES

    def airtime(self, bits_per_second: float, preamble_s: float = 0.0) -> float:
        """Transmission duration at a given PHY rate."""
        if bits_per_second <= 0:
            raise ConfigurationError("rate must be positive")
        return preamble_s + (8.0 * self.wire_bytes) / bits_per_second

    def clone(self) -> "Frame":
        """A copy without an id: it is minted a fresh one when sent, so a
        retransmitted clone is distinguishable in traces."""
        return Frame(self.src, self.dst, self.payload, self.payload_bytes,
                     self.kind, self.port)

    def _fields(self) -> tuple:
        return (self.src, self.dst, self.payload, self.payload_bytes,
                self.kind, self.port, self.frame_id)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, like before

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Frame #{self.frame_id} {self.src}->{self.dst} "
                f"{self.kind}/{self.port} {self.payload_bytes}B>")
