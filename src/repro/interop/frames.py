"""Zero-copy wire frames: encode once, decode never on the simulated path.

Every layer of the stack used to pay a full ``dict -> encode -> bytes ->
decode -> dict`` round trip per hop, even though the bytes travel between
functions in the same process. A :class:`WireFrame` carries the message
dict *and* a lazily materialized, cached encoding:

* built from a message, it encodes only when something genuinely needs
  bytes (encryption, chaos tampering, the WAL, a real socket, a process
  boundary) — ``bytes(frame)`` is always bit-identical to
  ``codec.encode(message)``, enforced by a property test;
* ``len(frame)`` reports the exact encoded length *without* materializing
  (via :meth:`BinaryCodec.encoded_size`), so ``payload_bytes``-driven
  serialization delays, energy charges, and byte counters are unchanged;
* delivered by reference through the in-process fabrics,
  :func:`decode_frame` (the transport receive seam's decode step) returns
  the original dict with zero decode;
* built from bytes (:meth:`WireFrame.from_bytes`, e.g. after crossing a
  shard process boundary), the *decode* is the lazy, cached half.

:class:`PrefixedFrame` composes a packed binary header (reliable DATA,
multiplexer channel headers) with a lazy body so mid-stack layers frame
without forcing the body's encoding, and :class:`TailIntPacker` is a
compiled packer for fixed-schema beacons whose only varying field is a
trailing int (heartbeats): the constant prefix is encoded once per
configuration and each beat appends one varint.

Contract for receivers: a message dict extracted from a reference-passed
frame is shared with the sender (and every other receiver of a broadcast).
Treat it as immutable — copy (``{**message, ...}``) before patching, which
is what every receive path in this repo already does.

Observability: ``transport.frames.passthrough`` counts zero-decode dict
extractions, ``transport.frames.materialized`` counts forced encodes, and
``codec.encode_skipped`` counts frames consumed without their encode ever
having run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.errors import CodecError
from repro.interop.codec import (
    _T_INT,
    _encode_varint,
    _varint_size,
    _zigzag,
    BinaryCodec,
    Codec,
    get_codec,
    register_frame_types,
)
from repro.obs.metrics import get_registry


# Frame counters fire on every zero-copy hop, so the registry lookup
# (label-key build + dict probe) is cached per (registry, generation) —
# a registry.reset() orphans instruments, which the generation detects.
_counter_cache: Dict[str, Any] = {}
_cache_key = (None, -1)


def _count(name: str) -> None:
    global _cache_key
    registry = get_registry()
    key = (registry, registry.generation)
    if key != _cache_key:
        _counter_cache.clear()
        _cache_key = key
    counter = _counter_cache.get(name)
    if counter is None:
        counter = _counter_cache[name] = registry.counter(name)
    counter.inc()


class WireFrame:
    """A message and its wire encoding, each materialized at most once."""

    __slots__ = ("codec", "_message", "_encoded", "_length", "_packer")

    def __init__(
        self,
        message: Dict[str, Any],
        codec: Optional[Codec] = None,
        *,
        length: Optional[int] = None,
        packer: Optional[Callable[[], bytes]] = None,
    ):
        self.codec = codec if codec is not None else get_codec("binary")
        self._message = message
        self._encoded: Optional[bytes] = None
        self._length = length
        self._packer = packer

    @classmethod
    def from_bytes(cls, encoded: bytes, codec: Optional[Codec] = None) -> "WireFrame":
        """A frame whose *decode* is the lazy half (cross-process arrivals)."""
        frame = cls.__new__(cls)
        frame.codec = codec if codec is not None else get_codec("binary")
        frame._message = None
        frame._encoded = bytes(encoded)
        frame._length = len(encoded)
        frame._packer = None
        return frame

    # ------------------------------------------------------------ the halves

    @property
    def message(self) -> Dict[str, Any]:
        """The message dict; decodes (once) only for bytes-built frames.

        Raises :class:`CodecError` if a bytes-built frame does not decode
        to a value at all — on receive paths the transport seam maps that
        to a counted drop.
        """
        message = self._message
        if message is None:
            message = self._message = self.codec.decode(self._encoded)
        return message

    def materialize(self) -> bytes:
        """The encoded bytes — bit-identical to ``codec.encode(message)``."""
        encoded = self._encoded
        if encoded is None:
            packer = self._packer
            encoded = packer() if packer is not None else self.codec.encode(self._message)
            self._encoded = encoded
            self._length = len(encoded)
            _count("transport.frames.materialized")
        return encoded

    def __bytes__(self) -> bytes:
        return self.materialize()

    @property
    def encoded_length(self) -> int:
        """Exact wire length, computed without materializing when possible."""
        length = self._length
        if length is None:
            sizer = getattr(self.codec, "encoded_size", None)
            if sizer is not None:
                length = sizer(self._message)
            else:
                length = len(self.materialize())
            self._length = length
        return length

    def __len__(self) -> int:
        return self.encoded_length

    # -------------------------------------------------------------- plumbing

    def __reduce__(self):
        # Crossing a process boundary (sharded worlds) forces
        # materialization; the peer rebuilds a bytes-backed frame whose
        # decode is lazy, so behavior matches in-process delivery.
        return (_rebuild_frame, (self.codec, self.materialize()))

    def __repr__(self) -> str:
        state = "encoded" if self._encoded is not None else "lazy"
        return f"<WireFrame {self.codec.name} {state} len={self.encoded_length}>"


def _rebuild_frame(codec: Codec, encoded: bytes) -> WireFrame:
    return WireFrame.from_bytes(encoded, codec)


class PrefixedFrame:
    """A packed binary header plus a lazy body, concatenated only on demand.

    Mid-stack layers (reliable DATA, channel multiplexing) frame their
    payload with a fixed header; when the payload is itself a lazy frame,
    eager concatenation would force its encoding. The receiving twin peels
    :attr:`prefix` off by reference, so the body stays lazy end to end.
    """

    __slots__ = ("prefix", "body", "_encoded")

    def __init__(self, prefix: bytes, body: Union[bytes, "WireFrame", "PrefixedFrame"]):
        self.prefix = prefix
        self.body = body
        self._encoded: Optional[bytes] = None

    def __bytes__(self) -> bytes:
        encoded = self._encoded
        if encoded is None:
            encoded = self._encoded = self.prefix + bytes(self.body)
        return encoded

    def __len__(self) -> int:
        return len(self.prefix) + len(self.body)

    def __reduce__(self):
        return (bytes, (bytes(self),))

    def __repr__(self) -> str:
        return f"<PrefixedFrame {len(self.prefix)}+{len(self.body)}B>"


FRAME_TYPES = (WireFrame, PrefixedFrame)

FramePayload = Union[bytes, bytearray, WireFrame, PrefixedFrame]


def is_frame(payload: Any) -> bool:
    return isinstance(payload, FRAME_TYPES)


def frame_bytes(payload: FramePayload) -> bytes:
    """Real bytes for edges that need them (crypto, WAL, sockets, chaos)."""
    if isinstance(payload, bytes):
        return payload
    return bytes(payload)


def split_frame(payload: FramePayload, header_size: int):
    """``(header_bytes, body)`` with the body left lazy when possible.

    Returns ``(None, payload)`` when there are fewer than ``header_size``
    bytes (the caller's malformed-frame path). For a :class:`PrefixedFrame`
    whose prefix is exactly the header — the matching sender's shape — the
    split is free; any other frame shape falls back to materialized bytes.
    """
    if isinstance(payload, PrefixedFrame) and len(payload.prefix) == header_size:
        return payload.prefix, payload.body
    if not isinstance(payload, (bytes, bytearray)):
        payload = bytes(payload)
    if len(payload) < header_size:
        return None, payload
    return payload[:header_size], payload[header_size:]


def decode_frame(codec: Codec, payload: FramePayload) -> Any:
    """Decode a received payload; raises only :class:`CodecError`.

    A :class:`WireFrame` built for ``codec``'s wire format yields its
    message by reference, with zero decode. Any other frame is decoded
    from its real bytes, so a wire-format mismatch behaves exactly like
    the eager path. This is the decode step of the transport receive seam
    (:meth:`~repro.transport.base.Transport.receive_messages`).
    """
    if isinstance(payload, WireFrame):
        if payload.codec.name == codec.name:
            if payload._encoded is None:
                _count("codec.encode_skipped")
            message = payload.message
            _count("transport.frames.passthrough")
            return message
        payload = payload.materialize()
    elif isinstance(payload, PrefixedFrame):
        payload = bytes(payload)
    return codec.decode(payload)


register_frame_types(FRAME_TYPES)


class TailIntPacker:
    """Compiled packer for a fixed dict whose *last* field is a varying int.

    The schema's constant part — everything up to and including the final
    field's key — is encoded exactly once per configuration; each message
    then costs one cached-prefix concat plus a one-or-two-byte varint.
    Heartbeat beacons (``{"op": "hb", "from": node, "seq": n}``) are the
    canonical user: the beacon prefix is compiled when the detector is
    built, never re-encoded per period.
    """

    __slots__ = ("codec", "base", "field", "prefix", "_prefix_length")

    def __init__(self, codec: BinaryCodec, base: Dict[str, Any], field: str):
        if not isinstance(codec, BinaryCodec):
            raise CodecError("TailIntPacker requires the binary codec")
        if field in base:
            raise CodecError(f"varying field {field!r} must not be in the base")
        self.codec = codec
        self.base = dict(base)
        self.field = field
        probe = dict(base)
        probe[field] = 0
        encoded = codec.encode(probe)
        # encode(0) contributes the 2-byte tail b"I\x00"; everything before
        # it — dict header, base entries, the field's key — is constant.
        self.prefix = encoded[:-2]
        self._prefix_length = len(self.prefix)

    def frame(self, value: int) -> WireFrame:
        """A :class:`WireFrame` for ``{**base, field: value}``."""
        message = dict(self.base)
        message[self.field] = value
        prefix = self.prefix
        return WireFrame(
            message,
            self.codec,
            length=self._prefix_length + 1 + _varint_size(_zigzag(value)),
            packer=lambda: prefix + _T_INT + _encode_varint(_zigzag(value)),
        )
