"""Tests for the nodes-backend frame protocol.

Every way a socket read can go wrong must surface as a *typed*
:class:`~repro.errors.TransportError` subclass within its deadline —
never a hang, never a bare ``OSError``.  All tests run on in-process
``socket.socketpair()`` links with sub-second deadlines; none of them
sleeps waiting for a race to resolve.

Runs under the ``chaos`` marker alongside the fault-injection suite.
"""

import array
import socket
import struct
import time
import zlib

import pytest

from repro.errors import (
    MalformedFrameError,
    NodeLostError,
    TransportError,
    TruncatedFrameError,
)
from repro.resilience.transport import (
    FRAME_MAGIC,
    MAX_FRAME_BYTES,
    encode_frame,
    recv_frame,
    send_frame,
    send_truncated_frame,
)

pytestmark = pytest.mark.chaos

#: Generous cap on how long any deadline-bounded call may take: the
#: protocol promises "never blocks past the deadline", so a 0.05-0.2s
#: timeout finishing within a second means the bound holds.
BOUND_S = 1.0


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def _bounded(fn, *args, **kwargs):
    """Run ``fn`` and return (outcome-or-raiser, elapsed seconds)."""
    start = time.monotonic()
    try:
        out = fn(*args, **kwargs)
    except TransportError as exc:
        return exc, time.monotonic() - start
    return out, time.monotonic() - start


class TestRoundTrip:
    def test_message_round_trip(self, pair):
        a, b = pair
        message = ("result", 3, "ok", {"runtime": [1.5, 2.5]})
        send_frame(a, message)
        assert recv_frame(b, 1.0) == message

    def test_columnar_payload_round_trip(self, pair):
        # array.array columns are the RecordBlock wire shape: they must
        # cross the link intact (pickled as raw bytes, not per-element).
        a, b = pair
        column = array.array("d", [0.125 * i for i in range(1000)])
        send_frame(a, ("result", 0, "ok", {"runtime_s": column}))
        _tag, _tid, _status, value = recv_frame(b, 1.0)
        assert value["runtime_s"] == column
        assert value["runtime_s"].typecode == "d"

    def test_back_to_back_frames_keep_boundaries(self, pair):
        a, b = pair
        for i in range(5):
            send_frame(a, ("task", i))
        assert [recv_frame(b, 1.0) for _ in range(5)] == [
            ("task", i) for i in range(5)
        ]

    def test_oversize_frame_refused_at_send(self, pair):
        a, _b = pair
        with pytest.raises(MalformedFrameError):
            encode_frame(bytes(MAX_FRAME_BYTES + 1))


class TestPollSemantics:
    def test_quiet_link_returns_none_within_deadline(self, pair):
        _a, b = pair
        out, elapsed = _bounded(recv_frame, b, 0.05)
        assert out is None
        assert elapsed < BOUND_S


class TestMalformedFrames:
    def test_bad_magic(self, pair):
        a, b = pair
        payload = b"x"
        a.sendall(struct.pack(">2sII", b"XX", len(payload),
                              zlib.crc32(payload)) + payload)
        with pytest.raises(MalformedFrameError, match="magic"):
            recv_frame(b, 0.5)

    def test_implausible_length(self, pair):
        a, b = pair
        a.sendall(struct.pack(">2sII", FRAME_MAGIC,
                              MAX_FRAME_BYTES + 1, 0))
        with pytest.raises(MalformedFrameError, match="length"):
            recv_frame(b, 0.5)

    def test_checksum_mismatch(self, pair):
        a, b = pair
        data = bytearray(encode_frame(("task", 1)))
        data[-1] ^= 0xFF  # rot one payload byte in flight
        a.sendall(bytes(data))
        with pytest.raises(MalformedFrameError, match="checksum"):
            recv_frame(b, 0.5)

    def test_undecodable_payload(self, pair):
        a, b = pair
        payload = b"\x80\x05not really a pickle"
        a.sendall(struct.pack(">2sII", FRAME_MAGIC, len(payload),
                              zlib.crc32(payload)) + payload)
        with pytest.raises(MalformedFrameError, match="undecodable"):
            recv_frame(b, 0.5)


class TestTruncatedFrames:
    def test_peer_death_mid_frame(self, pair):
        # The node-lost chaos shape: half a result frame, then the link
        # closes.  Must be detected instantly, not waited out.
        a, b = pair
        send_truncated_frame(a, ("result", 0, "ok", list(range(64))))
        a.close()
        exc, elapsed = _bounded(recv_frame, b, 5.0)
        assert isinstance(exc, TruncatedFrameError)
        assert elapsed < BOUND_S

    def test_peer_stall_mid_frame_is_deadline_bounded(self, pair):
        # The peer sent part of a frame and went silent without dying:
        # only here does the deadline fire, and it fires as truncation.
        a, b = pair
        send_truncated_frame(a, ("result", 0, "ok", None), fraction=0.4)
        exc, elapsed = _bounded(recv_frame, b, 0.1)
        assert isinstance(exc, TruncatedFrameError)
        assert "stalled" in str(exc)
        assert elapsed < BOUND_S

    def test_truncation_cut_never_empty_or_complete(self):
        data = encode_frame(("task", 7, "payload"))
        for fraction in (0.0, 0.5, 1.0):
            a, b = socket.socketpair()
            try:
                send_truncated_frame(a, ("task", 7, "payload"), fraction)
                a.shutdown(socket.SHUT_WR)
                got = b.recv(len(data) + 1)
                assert 0 < len(got) < len(data)
            finally:
                a.close()
                b.close()


class TestNodeLoss:
    def test_close_at_frame_boundary(self, pair):
        a, b = pair
        send_frame(a, ("task", 0))
        a.close()
        assert recv_frame(b, 0.5) == ("task", 0)
        with pytest.raises(NodeLostError, match="frame boundary"):
            recv_frame(b, 0.5)

    def test_close_with_unread_input_reads_as_a_close(self, pair):
        """A peer that dies with a task still unread resets the link
        instead of closing it (a fleet process with a second task queued
        behind the one it dies on); it must read as the same close, at a
        frame boundary or mid-frame, so a failure report does not depend
        on whether a task was queued."""
        a, b = pair
        send_frame(b, ("task", 1))  # left unread in a's buffer
        send_frame(a, ("result", 0, "ok", None))
        a.close()
        assert recv_frame(b, 0.5) == ("result", 0, "ok", None)
        with pytest.raises(NodeLostError,
                           match="peer closed the connection at a frame"):
            recv_frame(b, 0.5)
        c, d = socket.socketpair()
        try:
            send_frame(d, ("task", 1))
            send_truncated_frame(c, ("result", 0, "ok", None))
            c.close()
            with pytest.raises(TruncatedFrameError,
                               match="peer closed the connection mid-frame"):
                recv_frame(d, 0.5)
        finally:
            c.close()
            d.close()

    def test_send_to_dead_peer(self, pair):
        a, b = pair
        b.close()
        a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        with pytest.raises(NodeLostError):
            for _ in range(1024):  # fill the buffer until EPIPE surfaces
                send_frame(a, ("task", 0, bytes(4096)))

    def test_typed_errors_share_the_transport_root(self):
        for err in (NodeLostError, TruncatedFrameError,
                    MalformedFrameError):
            assert issubclass(err, TransportError)
