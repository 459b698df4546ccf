"""``Frame`` accepts and rejects exactly what the dataclass rules did.

The constructor tests a plain ``str`` address against the address regex
inline and falls back to :func:`validate_address` for everything else.
This holds it against a verbatim copy of the earlier rules: the same
exception type and message for every rejected input, and the same
``wire_bytes`` and ``airtime`` for every accepted one.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.errors import AddressError, ConfigurationError
from repro.net.addresses import BROADCAST
from repro.net.frames import Frame

# -- reference rules (the dataclass Frame.__post_init__ and the address
# -- validator it called), kept here so a drift in either side shows ------
_REF_ADDRESS_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._:\-]*$")


def _ref_validate_address(address):
    if address == "*":
        return address
    if not isinstance(address, str) or not _REF_ADDRESS_RE.match(address):
        raise AddressError(f"malformed address {address!r}")
    return address


def _ref_frame(src, dst, payload_bytes, kind):
    """Wire size of a frame the old rules accept; raises like they did."""
    _ref_validate_address(src)
    _ref_validate_address(dst)
    if payload_bytes < 0:
        raise ConfigurationError(f"negative payload size {payload_bytes}")
    if payload_bytes > 1500:
        raise ConfigurationError(
            f"payload {payload_bytes}B exceeds MTU 1500B; "
            "segment at the transport layer")
    if kind not in ("data", "mgmt", "ctrl"):
        raise ConfigurationError(f"unknown frame kind {kind!r}")
    return payload_bytes + 34


class _Name(str):
    """A ``str`` subclass: must take the validate_address fallback."""


def _outcome(build):
    try:
        return ("ok", build())
    except Exception as exc:  # noqa: BLE001 - comparing any exception
        return (type(exc), str(exc))


valid_names = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9._:\-]{0,12}",
                            fullmatch=True)
addresses = st.one_of(
    valid_names,
    st.just(BROADCAST),
    st.text(max_size=8),
    valid_names.map(lambda s: s + "\n"),   # `$` matches before a newline
    valid_names.map(lambda s: "-" + s),
    valid_names.map(_Name),
    st.text(max_size=4).map(_Name),
    st.just(_Name(BROADCAST)),
    st.none(),
    st.integers(min_value=-2, max_value=2),
    st.binary(max_size=4),
)
sizes = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1497, max_value=1503),
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from([1499.5, 1500.0, 1500.5, -0.5, 0.0, 64.25]),
)
kinds = st.one_of(st.sampled_from(["data", "mgmt", "ctrl", "", "DATA",
                                   "data ", "weird"]),
                  st.text(max_size=5))
rates = st.sampled_from([1e6, 2e6, 5.5e6, 11e6])
preambles = st.sampled_from([0.0, 96e-6, 192e-6])


@settings(max_examples=400, deadline=None)
@given(addresses, addresses, sizes, kinds, rates, preambles)
def test_frame_rules_match_the_reference(src, dst, size, kind, rate,
                                         preamble):
    expected = _outcome(lambda: _ref_frame(src, dst, size, kind))
    got = _outcome(lambda: Frame(src, dst, None, size, kind))
    if expected[0] != "ok":
        assert got == expected
        return
    frame = got[1]
    assert isinstance(frame, Frame)
    wire_bytes = expected[1]
    assert frame.wire_bytes == wire_bytes
    assert frame.airtime(rate, preamble) == preamble + (8.0 * wire_bytes) / rate
    assert frame.airtime(rate) == 0.0 + (8.0 * wire_bytes) / rate


def test_airtime_rejects_non_positive_rate():
    frame = Frame("a", "b", None, 10)
    for rate in (0.0, -1e6):
        with pytest.raises(ConfigurationError, match="rate must be positive"):
            frame.airtime(rate)


def test_equality_is_field_wise_including_the_id():
    a = Frame("a", "b", "x", 10, "mgmt", 3)
    b = Frame("a", "b", "x", 10, "mgmt", 3)
    assert a == b and not (a != b)
    b.frame_id = 7
    assert a != b
    a.frame_id = 7
    assert a == b
    assert Frame("a", "c", "x", 10, "mgmt", 3, 7) != a
    # Not equal to a tuple of the same fields, and unhashable (mutable).
    assert a != ("a", "b", "x", 10, "mgmt", 3, 7)
    with pytest.raises(TypeError):
        hash(a)


def test_repr_and_clone():
    frame = Frame("a", BROADCAST, "p", 20, "mgmt", 9, frame_id=4)
    assert repr(frame) == "<Frame #4 a->* mgmt/9 20B>"
    clone = frame.clone()
    assert clone.frame_id is None
    clone.frame_id = 4
    assert clone == frame and clone is not frame
