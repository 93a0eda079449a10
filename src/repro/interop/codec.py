"""Payload codecs.

A :class:`Codec` turns a JSON-like value (None, bool, int, float, str,
bytes, list, dict with string keys) into wire bytes and back. Three
implementations cover the paper's interoperability tradeoff (Section 3.9):

* :class:`BinaryCodec` — a compact, self-describing binary format written
  from scratch; the "efficient but opaque" end of the spectrum.
* :class:`JsonCodec` — stdlib JSON (bytes values are not supported, matching
  real JSON middleware).
* :class:`SmlCodec` — values as SML markup; the "semantically independent
  but verbose" end the paper advocates for non-legacy interoperability.

Benchmark E9 measures the byte and CPU cost of each on identical RPC
workloads.

Every codec's ``decode`` raises only :class:`CodecError` on malformed
input, so receive paths catch exactly one type.
"""

from __future__ import annotations

import json
import struct
from sys import intern
from typing import Any, Dict, Protocol, runtime_checkable

from repro.errors import CodecError, MarkupError
from repro.interop import sml

_F64 = struct.Struct(">d")

# Binary type tags.
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"I"
_T_BIGINT = b"G"
_T_FLOAT = b"D"
_T_STR = b"S"
_T_BYTES = b"B"
_T_LIST = b"L"
_T_DICT = b"M"


def _encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise CodecError(f"varint must be non-negative, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _decode_varint(payload: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(payload):
            raise CodecError("truncated varint")
        byte = payload[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise CodecError("varint too long")


def _zigzag(value: int) -> int:
    """Map a signed 64-bit int onto the unsigned varint domain.

    Contract: ``value`` must satisfy ``-(2**63) <= value < 2**63``; anything
    wider belongs to the BIGINT encoding and is rejected here rather than
    silently mangled.
    """
    if not -(2**63) <= value < 2**63:
        raise CodecError(f"zigzag int out of 64-bit range: {value}")
    return (value << 1) ^ (value >> 63)


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _varint_size(value: int) -> int:
    """Encoded byte count of an unsigned LEB128 varint (without building it)."""
    return max(1, (value.bit_length() + 6) // 7)


def _utf8_size(text: str) -> int:
    # ASCII is the overwhelmingly common case for frame keys and addresses;
    # ``isascii`` is a C-speed scan that avoids building the encoded copy.
    return len(text) if text.isascii() else len(text.encode("utf-8"))


#: Lazy wire-frame types (registered by :mod:`repro.interop.frames` to avoid
#: an import cycle). The binary encoder treats them as bytes values,
#: materializing their cached encoding on demand.
_FRAME_TYPES: tuple = ()


def register_frame_types(types: tuple) -> None:
    """Teach the codec layer about lazy frame types (called once by
    :mod:`repro.interop.frames` at import time)."""
    global _FRAME_TYPES
    _FRAME_TYPES = types


@runtime_checkable
class Codec(Protocol):
    """Encoder/decoder pair with a wire-format name."""

    name: str

    def encode(self, value: Any) -> bytes:
        ...

    def decode(self, payload: bytes) -> Any:
        ...


class BinaryCodec:
    """Compact tagged binary encoding of JSON-like values.

    Integers use zigzag varints and all lengths/counts use LEB128 varints,
    so small values cost one or two bytes — the honest "efficient but
    opaque" contestant in the E9 wire-format comparison."""

    name = "binary"

    def encode(self, value: Any) -> bytes:
        pieces: list[bytes] = []
        try:
            self._encode_into(value, pieces)
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"cannot binary-encode {type(value).__name__}: {exc}") from exc
        return b"".join(pieces)

    def _encode_into(self, value: Any, pieces: list[bytes]) -> None:
        if value is None:
            pieces.append(_T_NONE)
        elif value is True:
            pieces.append(_T_TRUE)
        elif value is False:
            pieces.append(_T_FALSE)
        elif isinstance(value, int):
            if -(2**63) <= value < 2**63:
                pieces.append(_T_INT + _encode_varint(_zigzag(value)))
            else:
                encoded = str(value).encode("ascii")
                pieces.append(_T_BIGINT + _encode_varint(len(encoded)) + encoded)
        elif isinstance(value, float):
            pieces.append(_T_FLOAT + _F64.pack(value))
        elif isinstance(value, str):
            encoded = value.encode("utf-8")
            pieces.append(_T_STR + _encode_varint(len(encoded)) + encoded)
        elif isinstance(value, (bytes, bytearray)):
            pieces.append(_T_BYTES + _encode_varint(len(value)) + bytes(value))
        elif _FRAME_TYPES and isinstance(value, _FRAME_TYPES):
            # A nested lazy frame (e.g. an envelope's payload): materialize
            # its cached bytes — identical to the eager path, where the
            # upper layer would have handed us those bytes directly.
            data = bytes(value)
            pieces.append(_T_BYTES + _encode_varint(len(data)) + data)
        elif isinstance(value, (list, tuple)):
            pieces.append(_T_LIST + _encode_varint(len(value)))
            for item in value:
                self._encode_into(item, pieces)
        elif isinstance(value, dict):
            pieces.append(_T_DICT + _encode_varint(len(value)))
            for key, item in value.items():
                if not isinstance(key, str):
                    raise CodecError(f"dict keys must be str, got {type(key).__name__}")
                encoded = key.encode("utf-8")
                pieces.append(_encode_varint(len(encoded)) + encoded)
                self._encode_into(item, pieces)
        else:
            raise CodecError(f"unsupported type {type(value).__name__}")

    def encoded_size(self, value: Any) -> int:
        """``len(self.encode(value))`` without building the bytes.

        Exact by construction — the walk mirrors :meth:`_encode_into` branch
        for branch (a property test pins the equality) — and cheap: no
        buffer concatenation, no UTF-8 copies for ASCII strings, and nested
        lazy frames contribute their cached ``encoded_length``. This is what
        lets a :class:`~repro.interop.frames.WireFrame` report its wire size
        (the simulator's serialization-delay input) without materializing.
        """
        try:
            return self._size_of(value)
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"cannot binary-encode {type(value).__name__}: {exc}") from exc

    def _size_of(self, value: Any) -> int:
        if value is None or value is True or value is False:
            return 1
        if isinstance(value, int):
            if -(2**63) <= value < 2**63:
                return 1 + _varint_size(_zigzag(value))
            length = len(str(value))
            return 1 + _varint_size(length) + length
        if isinstance(value, float):
            return 1 + _F64.size
        if isinstance(value, str):
            length = _utf8_size(value)
            return 1 + _varint_size(length) + length
        if isinstance(value, (bytes, bytearray)):
            return 1 + _varint_size(len(value)) + len(value)
        if _FRAME_TYPES and isinstance(value, _FRAME_TYPES):
            length = len(value)  # the frame's (possibly cached) encoded_length
            return 1 + _varint_size(length) + length
        if isinstance(value, (list, tuple)):
            return (1 + _varint_size(len(value))
                    + sum(self._size_of(item) for item in value))
        if isinstance(value, dict):
            total = 1 + _varint_size(len(value))
            for key, item in value.items():
                if not isinstance(key, str):
                    raise CodecError(f"dict keys must be str, got {type(key).__name__}")
                key_length = _utf8_size(key)
                total += _varint_size(key_length) + key_length + self._size_of(item)
            return total
        raise CodecError(f"unsupported type {type(value).__name__}")

    def decode(self, payload: bytes) -> Any:
        if _FRAME_TYPES and isinstance(payload, _FRAME_TYPES):
            payload = bytes(payload)
        try:
            value, offset = self._decode_from(payload, 0)
        except CodecError:
            raise
        except (ValueError, OverflowError, RecursionError, struct.error) as exc:
            # Bad UTF-8/ASCII text, absurd lengths, pathological nesting.
            raise CodecError(f"cannot binary-decode: {exc}") from exc
        if offset != len(payload):
            raise CodecError(f"{len(payload) - offset} trailing bytes after value")
        return value

    def _decode_from(self, payload: bytes, offset: int) -> tuple[Any, int]:
        if offset >= len(payload):
            raise CodecError("truncated payload")
        tag = payload[offset:offset + 1]
        offset += 1
        if tag == _T_NONE:
            return None, offset
        if tag == _T_TRUE:
            return True, offset
        if tag == _T_FALSE:
            return False, offset
        if tag == _T_INT:
            raw_int, offset = _decode_varint(payload, offset)
            return _unzigzag(raw_int), offset
        if tag == _T_FLOAT:
            self._need(payload, offset, _F64.size)
            return _F64.unpack_from(payload, offset)[0], offset + _F64.size
        if tag in (_T_STR, _T_BYTES, _T_BIGINT):
            length, offset = _decode_varint(payload, offset)
            self._need(payload, offset, length)
            raw = payload[offset:offset + length]
            offset += length
            if tag == _T_BYTES:
                return raw, offset
            if tag == _T_BIGINT:
                # ``int()`` tolerates "+5", whitespace, and "5_0" — all
                # non-canonical spellings our encoder never emits. Accept
                # only digits that round-trip, so every value has exactly
                # one wire form (decode(encode(x)) == x and vice versa).
                text = raw.decode("ascii")
                try:
                    value = int(text)
                except ValueError as exc:
                    raise CodecError(f"bad bigint text {text!r}") from exc
                if str(value) != text:
                    raise CodecError(f"non-canonical bigint text {text!r}")
                return value, offset
            return raw.decode("utf-8"), offset
        if tag == _T_LIST:
            count, offset = _decode_varint(payload, offset)
            items = []
            for _ in range(count):
                item, offset = self._decode_from(payload, offset)
                items.append(item)
            return items, offset
        if tag == _T_DICT:
            count, offset = _decode_varint(payload, offset)
            result: Dict[str, Any] = {}
            for _ in range(count):
                key_length, offset = _decode_varint(payload, offset)
                self._need(payload, offset, key_length)
                # Frame field names ("op", "seq", "src", ...) recur on every
                # decoded frame; interning collapses the per-frame key
                # copies to shared singletons and makes downstream dict
                # lookups pointer-compares — measurable at swarm scale.
                key = intern(payload[offset:offset + key_length].decode("utf-8"))
                offset += key_length
                result[key], offset = self._decode_from(payload, offset)
            return result, offset
        raise CodecError(f"unknown type tag {tag!r} at offset {offset - 1}")

    @staticmethod
    def _need(payload: bytes, offset: int, count: int) -> None:
        if offset + count > len(payload):
            raise CodecError("truncated payload")


class JsonCodec:
    """Stdlib JSON; rejects bytes values like real JSON middleware does.

    ``allow_nan=False`` keeps the output *standard* JSON: ``float("nan")``
    and infinities raise :class:`CodecError` instead of silently emitting
    the non-interoperable ``NaN``/``Infinity`` tokens that a compliant peer
    would reject on receive.
    """

    name = "json"

    def encode(self, value: Any) -> bytes:
        try:
            return json.dumps(
                value, separators=(",", ":"), allow_nan=False
            ).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise CodecError(f"cannot JSON-encode: {exc}") from exc

    def decode(self, payload: bytes) -> Any:
        if _FRAME_TYPES and isinstance(payload, _FRAME_TYPES):
            payload = bytes(payload)
        try:
            return json.loads(payload.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # UnicodeDecodeError and JSONDecodeError are ValueErrors.
            raise CodecError(f"cannot JSON-decode: {exc}") from exc


class SmlCodec:
    """Values as SML markup — the paper's markup-based interoperability path.

    Mapping: ``<null/>``, ``<bool>true</bool>``, ``<int>3</int>``,
    ``<float>1.5</float>``, ``<str>hi</str>``, ``<bytes>hex</bytes>``,
    ``<list>...</list>``, ``<dict><entry key="k">value</entry></dict>``.
    """

    name = "sml"

    def encode(self, value: Any) -> bytes:
        return sml.serialize(self._to_element(value)).encode("utf-8")

    def decode(self, payload: bytes) -> Any:
        if _FRAME_TYPES and isinstance(payload, _FRAME_TYPES):
            payload = bytes(payload)
        try:
            return self._from_element(sml.parse(payload.decode("utf-8")))
        except CodecError:
            raise
        except (MarkupError, ValueError, RecursionError) as exc:
            raise CodecError(f"cannot SML-decode: {exc}") from exc

    def _to_element(self, value: Any) -> sml.SmlElement:
        if value is None:
            return sml.element("null")
        if value is True or value is False:
            return sml.element("bool", text="true" if value else "false")
        if isinstance(value, int):
            return sml.element("int", text=str(value))
        if isinstance(value, float):
            return sml.element("float", text=repr(value))
        if isinstance(value, str):
            return sml.element("str", text=value)
        if isinstance(value, (bytes, bytearray)):
            return sml.element("bytes", text=bytes(value).hex())
        if isinstance(value, (list, tuple)):
            node = sml.element("list")
            for item in value:
                node.append(self._to_element(item))
            return node
        if isinstance(value, dict):
            node = sml.element("dict")
            for key, item in value.items():
                if not isinstance(key, str):
                    raise CodecError(f"dict keys must be str, got {type(key).__name__}")
                entry = node.add("entry", key=key)
                entry.append(self._to_element(item))
            return node
        raise CodecError(f"unsupported type {type(value).__name__}")

    def _from_element(self, node: sml.SmlElement) -> Any:
        tag = node.tag
        if tag == "null":
            return None
        if tag == "bool":
            if node.text not in ("true", "false"):
                raise CodecError(f"bad bool text {node.text!r}")
            return node.text == "true"
        if tag == "int":
            try:
                return int(node.text)
            except ValueError as exc:
                raise CodecError(f"bad int text {node.text!r}") from exc
        if tag == "float":
            try:
                return float(node.text)
            except ValueError as exc:
                raise CodecError(f"bad float text {node.text!r}") from exc
        if tag == "str":
            return node.text
        if tag == "bytes":
            try:
                return bytes.fromhex(node.text)
            except ValueError as exc:
                raise CodecError(f"bad hex text {node.text!r}") from exc
        if tag == "list":
            return [self._from_element(child) for child in node.children]
        if tag == "dict":
            result: Dict[str, Any] = {}
            for entry in node.children:
                if entry.tag != "entry" or "key" not in entry.attributes:
                    raise CodecError(f"bad dict entry <{entry.tag}>")
                if len(entry.children) != 1:
                    raise CodecError(
                        f"dict entry {entry.attributes.get('key')!r} must have one value"
                    )
                result[entry.attributes["key"]] = self._from_element(entry.children[0])
            return result
        raise CodecError(f"unknown SML value tag <{tag}>")


_CODECS: Dict[str, Codec] = {
    codec.name: codec for codec in (BinaryCodec(), JsonCodec(), SmlCodec())
}


def get_codec(name: str) -> Codec:
    """Look up a codec by wire-format name ('binary', 'json', 'sml')."""
    try:
        return _CODECS[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(_CODECS)}"
        ) from None

