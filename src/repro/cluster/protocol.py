"""Length-prefixed JSON framing for the cluster wire protocol.

Every message between a :mod:`~repro.cluster.coordinator` and a
:mod:`~repro.cluster.worker` is one frame::

    +----------------+---------------------------+
    | length (u32 BE)| UTF-8 JSON object payload |
    +----------------+---------------------------+

The payload is always a JSON object with a ``"type"`` key. Frames are
bounded by :data:`MAX_FRAME_BYTES` so a corrupt peer cannot make the
other side allocate unbounded memory, and only JSON ever crosses the
wire — no pickling, so neither side can be made to execute anything but
the scan the messages describe.

Message vocabulary (see the coordinator/worker modules for the flow):

========================  =======================================================
coordinator → worker
========================  =======================================================
``welcome``               scan config (wire form), ``shard_count``, heartbeat
                          interval, protocol version, ``failover`` standby
                          address list
``assign``                one shard descriptor: ``seed``, ``scale``, ``shard``
                          (index), ``shard_count``
``heartbeat``             park ping, sent every heartbeat interval while the
                          worker waits for work — bounds the worker's recv
                          timeout so a dead coordinator host is detectable
``drain``                 no more work — finish up and disconnect
========================  =======================================================

========================  =======================================================
worker → coordinator
========================  =======================================================
``hello``                 worker name + protocol version
``ready``                 request the next shard assignment
``heartbeat``             liveness signal, sent every interval (also mid-shard)
``result``                one finished shard: ``shard`` + serialized ShardResult
``shard-error``           shard failed on this worker: ``shard`` + ``error``
``bye``                   clean disconnect acknowledgement
========================  =======================================================

A peer decodes each frame that carries data where it arrives, against
that frame's field table (:func:`check_frame`): the coordinator checks
``hello``, ``result`` and ``shard-error``, the worker ``welcome`` and
``assign``. A frame that fails its table raises :class:`ProtocolError`,
so nothing undecoded is ever stored, merged or journaled.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

from ..engine.wire import Field, check_fields

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "HELLO",
    "WELCOME",
    "ConnectionClosed",
    "ProtocolError",
    "assign_frame",
    "check_frame",
    "recv_message",
    "result_frames",
    "send_message",
]

#: bumped on any incompatible change to the message vocabulary.
#: v2: coordinator→worker ``heartbeat`` park pings (a v1 worker would
#: treat them as a protocol error while parked).
#: v3: versioned wire payloads (``"v"`` on config and shard-result
#: frames, strict field validation) and an optional warm-start hint on
#: ``assign``.
#: v4: a fuller warm-start capsule (tagger state) on ``assign``, plus
#: the optional ``profile`` request flag on ``assign`` and the per-shard
#: ``profile`` payload on ``result``. The capsule is no longer sent:
#: worlds build cold, which costs no more than installing it did. Both
#: peers read optional ``assign`` keys with ``.get``, so dropping it
#: needed no version bump.
#: v5: hot-standby failover — ``welcome`` carries a ``failover`` address
#: list that workers merge into their connect list, and workers accept a
#: multi-address connect list, rotating through it in the reconnect loop
#: (a v4 worker pinned to one address would strand itself when the
#: primary coordinator dies).
PROTOCOL_VERSION = 5

#: upper bound on one frame; full-scale shard results stay far below this.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct("!I")


class ProtocolError(RuntimeError):
    """The peer sent something that is not a valid protocol frame."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (cleanly or mid-frame)."""


def send_message(sock: socket.socket, message: dict) -> None:
    """Serialize ``message`` and write it as one length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the protocol bound")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ConnectionClosed`."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                "peer closed the connection"
                + (" mid-frame" if remaining != count or chunks else "")
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict:
    """Read one frame and decode its JSON payload.

    Raises :class:`ConnectionClosed` on EOF and :class:`ProtocolError` on
    malformed frames (oversized length, bad JSON, non-object payload).
    """
    (length,) = _HEADER.unpack(_recv_exactly(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the protocol bound")
    payload = _recv_exactly(sock, length)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame payload is not a typed JSON object")
    return message


def check_frame(message: dict, table: dict) -> dict:
    """Check one received frame against its field table; returns it.

    Raises :class:`ProtocolError` naming the frame and the field.
    """
    try:
        return check_fields(message, table, f"{message.get('type')} frame")
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _kind(name: str) -> Field:
    return Field("string", lambda value: value == name, f"not {name!r}")


def _shard(shard_count: int) -> Field:
    return Field(
        "int", lambda value: 0 <= value < shard_count, f"outside 0..{shard_count - 1}"
    )


def _equal(types: str, what: str, expected) -> Field:
    return Field(
        types, lambda value: value == expected, f"not this run's {what} {expected!r}"
    )


def _is_address_list(pairs) -> bool:
    return all(
        isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
        and type(pair[1]) is int and 0 <= pair[1] <= 65535
        for pair in pairs
    )


def _is_profile(profile) -> bool:
    """A stage profile payload: ``{"timers_ns": {...}, "counters": {...}}``
    of integer values (:mod:`repro.runtime.profile`)."""
    return set(profile) == {"timers_ns", "counters"} and all(
        isinstance(part, dict)
        and all(isinstance(name, str) and type(value) is int for name, value in part.items())
        for part in profile.values()
    )


_PROTOCOL = Field(
    "int", lambda value: value == PROTOCOL_VERSION,
    f"not protocol version {PROTOCOL_VERSION} (a protocol mismatch)",
)

#: worker → coordinator: the first frame of a session.
HELLO = {"type": _kind("hello"), "protocol": _PROTOCOL, "worker": Field("string")}

#: coordinator → worker: the scan a session serves. ``heartbeat_interval``
#: (1 s when absent) is bounded by what a socket timeout of six
#: intervals can hold; ``failover`` (none when absent) lists standbys.
WELCOME = {
    "type": _kind("welcome"),
    "protocol": _PROTOCOL,
    "config": Field("object"),
    "shard_count": Field("int", lambda value: value >= 1, "below 1"),
    "heartbeat_interval": Field(
        "number", lambda value: 0 < value <= threading.TIMEOUT_MAX / 6,
        "not a positive number of seconds a socket timeout can hold",
        optional=True,
    ),
    "failover": Field(
        "list", _is_address_list, "not a list of [host, port] pairs", optional=True
    ),
}


def assign_frame(config, shard_count: int) -> dict:
    """The ``assign`` table of a session welcomed to ``config`` split in
    ``shard_count`` shards: a descriptor must name this scan."""
    return {
        "type": _kind("assign"),
        "seed": _equal("int", "seed", config.seed),
        "scale": _equal("number", "scale", config.scale),
        "shard": _shard(shard_count),
        "shard_count": _equal("int", "shard count", shard_count),
        "profile": Field("bool", optional=True),
    }


def result_frames(shard_count: int) -> dict[str, dict]:
    """The tables of the frames that report a shard of a run split in
    ``shard_count`` shards, by frame type: ``result`` and
    ``shard-error``. A ``result`` payload is a wire shard result, which
    the coordinator decodes next."""
    shard = _shard(shard_count)
    return {
        "result": {
            "type": _kind("result"),
            "shard": shard,
            "payload": Field("object"),
            "profile": Field("object", _is_profile, "not a stage profile", optional=True),
        },
        "shard-error": {
            "type": _kind("shard-error"), "shard": shard, "error": Field("string"),
        },
    }
