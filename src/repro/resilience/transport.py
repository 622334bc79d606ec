"""Length-prefixed, checksummed frame protocol for the process fleets.

The pool and nodes backends (:class:`repro.resilience.supervisor.
Supervisor`, :class:`repro.resilience.backends.NodesBackend`) move
tasks and packed :class:`~repro.frame.columns.RecordBlock` results over
local ``socket.socketpair()`` links.  A stream socket *can* deliver
half a message — a worker killed mid-send leaves exactly that — so
partial delivery must be **detected**, not avoided.  Every frame is
therefore::

    magic (2 bytes) | payload length (u32 BE) | crc32 (u32 BE) | payload

and every way a read can go wrong surfaces as a *typed* error
(:class:`~repro.errors.TransportError` subclasses), never a hang:

- :class:`~repro.errors.NodeLostError` — the connection dropped at a
  frame boundary (the node died between messages),
- :class:`~repro.errors.TruncatedFrameError` — EOF or a blown deadline
  in the middle of a frame (the node died, or stalled, mid-message),
- :class:`~repro.errors.MalformedFrameError` — bad magic, implausible
  length, checksum mismatch, or an undecodable payload (a peer that is
  not speaking the protocol, or bytes that rotted in flight).

All reads are deadline-bounded: :func:`recv_frame` with a timeout never
blocks past it.  A timeout with *zero* bytes read is not an error — it
returns None so an event loop can poll — but a timeout after the first
byte of a frame is a truncation, because a healthy peer never pauses
mid-frame.

Payloads are pickled with the highest protocol; ``array.array`` column
buffers pickle as raw bytes, so a sweep batch's ``RecordBlock`` crosses
the shard boundary columnar, without a per-record object graph (see
``docs/COLUMNAR.md``).
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
import zlib

from repro.errors import (
    MalformedFrameError,
    NodeLostError,
    TruncatedFrameError,
)

__all__ = [
    "FRAME_MAGIC",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "send_frame",
    "send_available",
    "recv_frame",
    "send_truncated_frame",
]

#: First two bytes of every frame ("repro nodes").
FRAME_MAGIC = b"RN"
#: Refuse frames past this size: a length field this large is corruption
#: (the full-grid batch blocks the sweep ships are a few MB).
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">2sII")


def encode_frame(message: object) -> bytes:
    """The wire bytes of one frame carrying ``message``."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise MalformedFrameError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload)) \
        + payload


def send_frame(sock: socket.socket, message: object) -> None:
    """Send one complete frame; a dead peer raises ``NodeLostError``."""
    try:
        sock.sendall(encode_frame(message))
    except OSError as exc:
        raise NodeLostError(f"peer unreachable during send: {exc}") from exc


def send_available(sock: socket.socket, data) -> int:
    """Send as much of ``data`` as the link takes without blocking and
    return how many bytes that was (0 when its buffer is full); a dead
    peer raises ``NodeLostError``.  A sender that must not wait on its
    peer sends the rest once the link reports room again."""
    sock.settimeout(0.0)
    try:
        return sock.send(data)
    except BlockingIOError:
        return 0
    except OSError as exc:
        raise NodeLostError(f"peer unreachable during send: {exc}") from exc


def send_truncated_frame(
    sock: socket.socket, message: object, fraction: float = 0.5
) -> None:
    """Send only the leading ``fraction`` of a frame (chaos injection).

    This is how the ``node-lost`` chaos fault models a node dying
    mid-message: the peer's next read must surface
    :class:`~repro.errors.TruncatedFrameError`, never block forever.
    """
    data = encode_frame(message)
    cut = max(1, min(len(data) - 1, int(len(data) * fraction)))
    try:
        sock.sendall(data[:cut])
    except OSError as exc:
        raise NodeLostError(f"peer unreachable during send: {exc}") from exc


def _recv_exact(
    sock: socket.socket,
    n: int,
    deadline: float | None,
    mid_frame: bool,
) -> bytes | None:
    """Read exactly ``n`` bytes, bounded by ``deadline`` (monotonic).

    Returns None on a timeout with zero bytes read at a frame boundary
    (``mid_frame=False``); any other shortfall raises the matching typed
    error.
    """
    buf = bytearray()

    def partial() -> bool:
        return mid_frame or bool(buf)

    while len(buf) < n:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if partial():
                    raise TruncatedFrameError(
                        f"peer stalled mid-frame: {len(buf)}/{n} bytes "
                        "before the read deadline"
                    )
                return None
            sock.settimeout(remaining)
        else:
            sock.settimeout(None)
        try:
            chunk = sock.recv(n - len(buf))
        except ConnectionResetError:
            # A peer that exits with input still unread resets the link
            # instead of closing it (after everything it sent was read):
            # it closed all the same.
            chunk = b""
        except socket.timeout:
            if partial():
                raise TruncatedFrameError(
                    f"peer stalled mid-frame: {len(buf)}/{n} bytes "
                    "before the read deadline"
                ) from None
            return None
        except OSError as exc:
            if partial():
                raise TruncatedFrameError(
                    f"connection failed mid-frame after {len(buf)}/{n} "
                    f"bytes: {exc}"
                ) from exc
            raise NodeLostError(
                f"connection lost at a frame boundary: {exc}"
            ) from exc
        if not chunk:
            if partial():
                raise TruncatedFrameError(
                    f"peer closed the connection mid-frame after "
                    f"{len(buf)}/{n} bytes"
                )
            raise NodeLostError(
                "peer closed the connection at a frame boundary"
            )
        buf += chunk
    return bytes(buf)


def recv_frame(
    sock: socket.socket, timeout_s: float | None = None
) -> object | None:
    """Read one frame and return its decoded message.

    Returns None if ``timeout_s`` elapses before the first byte of a
    frame arrives (poll semantics).  Messages in this protocol are
    always tuples, so None is unambiguous.  Raises the typed transport
    errors described in the module docstring; never blocks past the
    deadline.
    """
    deadline = (None if timeout_s is None
                else time.monotonic() + max(timeout_s, 0.001))
    header = _recv_exact(sock, _HEADER.size, deadline, mid_frame=False)
    if header is None:
        return None
    magic, length, crc = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise MalformedFrameError(
            f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r})"
        )
    if length > MAX_FRAME_BYTES:
        raise MalformedFrameError(
            f"implausible frame length {length} (limit {MAX_FRAME_BYTES})"
        )
    payload = _recv_exact(sock, length, deadline, mid_frame=True)
    if zlib.crc32(payload) != crc:
        raise MalformedFrameError(
            "frame checksum mismatch: payload corrupted in flight"
        )
    try:
        return pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types on garbage
        raise MalformedFrameError(
            f"undecodable frame payload: {type(exc).__name__}: {exc}"
        ) from exc
