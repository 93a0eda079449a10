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

The binary codec is on every simulated hop, and its messages are small,
so its cost is per node, not per byte. Its ``encode``, ``decode`` and
``encoded_size`` therefore dispatch on the exact type (``type(v) is
str``, ``int``, ``dict``, ...) and send everything else (int and str
subclasses, bytes, nested frames, ...) to one general ``isinstance``
branch. Lengths, counts and ints in -64..63 take one-byte table lookups,
and the encoder and the sizer cache each dict key's wire bytes. The original
straightforward codec lives on in ``tests/codec_reference.py`` as the
specification that property tests hold this one to.
"""

from __future__ import annotations

import json
import struct
from sys import intern
from typing import Any, Callable, Dict, Protocol, runtime_checkable

from repro.errors import CodecError, MarkupError
from repro.interop import sml

_F64 = struct.Struct(">d")

# Binary type tags, and the same tags as the ints that indexing a payload
# yields.
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
_B_NONE, _B_TRUE, _B_FALSE, _B_INT, _B_BIGINT, _B_FLOAT, _B_STR, _B_BYTES, \
    _B_LIST, _B_DICT = b"NTFIGDSBLM"


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
    """Unsigned LEB128 in its one minimal form: a multi-byte varint whose
    last byte is zero spells a shorter varint's value, so it is rejected."""
    result = 0
    shift = 0
    while True:
        if offset >= len(payload):
            raise CodecError("truncated varint")
        byte = payload[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if not byte and shift:
                raise CodecError("non-minimal varint")
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


# One-byte varint tables. A length or count below 128 is its own varint
# byte, so a tag and its count come from one lookup. The ints -64..63
# zigzag to one byte: ``_SMALL_INTS[value]`` is their wire form (negative
# values index the table's tail), and ``_SMALL_INT_VALUES[byte]`` decodes it.
_STR_HEADS = [_T_STR + bytes((n,)) for n in range(128)]
_LIST_HEADS = [_T_LIST + bytes((n,)) for n in range(128)]
_DICT_HEADS = [_T_DICT + bytes((n,)) for n in range(128)]
_SMALL_INTS = [_T_INT + bytes((_zigzag(v),)) for v in (*range(64), *range(-64, 0))]
_SMALL_INT_VALUES = [_unzigzag(byte) for byte in range(128)]


def int_wire(value: int) -> bytes:
    """An int's wire bytes: ``I`` and a zigzag varint inside int64, ``G``
    and its decimal digits beyond. The encoder, the sizer (as ``len``) and
    :class:`~repro.interop.frames.TailIntPacker` all use this one form."""
    if -64 <= value < 64:
        return _SMALL_INTS[value]
    if -(2**63) <= value < 2**63:
        return _T_INT + _encode_varint(_zigzag(value))
    digits = str(value).encode("ascii")
    return _T_BIGINT + _encode_varint(len(digits)) + digits


#: Dict keys are a small, recurring vocabulary ("op", "rid", "term", ...):
#: at seed 0, every registered scenario, fault-free and under each
#: composable fault mix, uses at most 25 keys in one run and 49 in all. So
#: the encoder and the sizer cache each exact-str key's wire bytes
#: (``varint(len) + utf-8``), capped at the next power of two above twice
#: that union. The cache is cleared when it reaches the cap, so a stream of
#: ever-new keys costs a miss per key but never grows memory.
_KEY_CACHE_CAP = 128
_key_wire: Dict[str, bytes] = {}


def _new_key_wire(key: Any) -> bytes:
    if not isinstance(key, str):
        raise CodecError(f"dict keys must be str, got {type(key).__name__}")
    data = key.encode("utf-8")
    wire = _encode_varint(len(data)) + data
    if type(key) is str:
        if len(_key_wire) >= _KEY_CACHE_CAP:
            _key_wire.clear()
        _key_wire[key] = wire
    return wire


#: Lazy wire-frame types (registered by :mod:`repro.interop.frames` to avoid
#: an import cycle). The binary encoder treats them as bytes values,
#: materializing their cached encoding on demand.
_FRAME_TYPES: tuple = ()


def register_frame_types(types: tuple) -> None:
    """Teach the codec layer about lazy frame types (called once by
    :mod:`repro.interop.frames` at import time)."""
    global _FRAME_TYPES
    _FRAME_TYPES = types


def _encode_value(value: Any, append: Callable[[bytes], Any]) -> None:
    kind = type(value)
    if kind is str:
        data = value.encode("utf-8")
        n = len(data)
        append(_STR_HEADS[n] + data if n < 128 else _T_STR + _encode_varint(n) + data)
    elif kind is int:
        append(_SMALL_INTS[value] if -64 <= value < 64 else int_wire(value))
    elif kind is dict:
        n = len(value)
        append(_DICT_HEADS[n] if n < 128 else _T_DICT + _encode_varint(n))
        key_wire = _key_wire.get
        for key, item in value.items():
            append(key_wire(key) or _new_key_wire(key))
            _encode_value(item, append)
    elif kind is list or kind is tuple:
        n = len(value)
        append(_LIST_HEADS[n] if n < 128 else _T_LIST + _encode_varint(n))
        for item in value:
            _encode_value(item, append)
    elif value is None:
        append(_T_NONE)
    elif kind is bool:
        append(_T_TRUE if value else _T_FALSE)
    elif kind is float:
        append(_T_FLOAT + _F64.pack(value))
    else:
        _encode_other(value, append)


def _encode_other(value: Any, append: Callable[[bytes], Any]) -> None:
    """Every value not of an exact JSON type: bytes and nested lazy frames
    are ``B`` values; any other value takes its exact type's path."""
    if isinstance(value, (bytes, bytearray, *_FRAME_TYPES)):
        # A nested frame (e.g. an envelope's payload) materializes its
        # cached bytes — identical to the eager path, where the upper
        # layer would have handed us those bytes directly.
        data = bytes(value)
        append(_T_BYTES + _encode_varint(len(data)) + data)
    else:
        _encode_value(_exact(value), append)


def _exact(value: Any) -> Any:
    """A subclass value (an ``IntEnum``, a str subclass, ...) as the exact
    JSON type it is an instance of, read through the base type's own
    methods so an override cannot change the wire form."""
    if isinstance(value, int):
        return int.__int__(value)
    if isinstance(value, float):
        return float.__float__(value)
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, dict):
        return dict(value.items())
    raise CodecError(f"unsupported type {type(value).__name__}")


def _size_value(value: Any) -> int:
    kind = type(value)
    if kind is str:
        n = len(value) if value.isascii() else len(value.encode("utf-8"))
        return n + 2 if n < 128 else n + 1 + _varint_size(n)
    if kind is int:
        return 2 if -64 <= value < 64 else len(int_wire(value))
    if kind is dict:
        n = len(value)
        total = 2 if n < 128 else 1 + _varint_size(n)
        key_wire = _key_wire.get
        for key, item in value.items():
            total += len(key_wire(key) or _new_key_wire(key)) + _size_value(item)
        return total
    if kind is list or kind is tuple:
        n = len(value)
        total = 2 if n < 128 else 1 + _varint_size(n)
        for item in value:
            total += _size_value(item)
        return total
    if value is None or kind is bool:
        return 1
    if kind is float:
        return 1 + _F64.size
    return _size_other(value)


def _size_other(value: Any) -> int:
    """``len(encode(value))`` for a value not of an exact JSON type; a
    nested frame counts its (possibly cached) ``encoded_length`` without
    materializing."""
    if isinstance(value, (bytes, bytearray, *_FRAME_TYPES)):
        n = len(value)
        return 1 + _varint_size(n) + n
    return _size_value(_exact(value))


def _decode_value(payload: bytes, offset: int) -> tuple[Any, int]:
    """One value at ``offset``. Reading past the end raises IndexError,
    which :meth:`BinaryCodec.decode` reports as a truncated payload."""
    tag = payload[offset]
    offset += 1
    if tag == _B_STR or tag == _B_BYTES or tag == _B_BIGINT:
        n = payload[offset]
        if n < 0x80:
            offset += 1
        else:
            n, offset = _decode_varint(payload, offset)
        end = offset + n
        if end > len(payload):
            raise CodecError("truncated payload")
        if tag == _B_STR:
            return payload[offset:end].decode("utf-8"), end
        if tag == _B_BYTES:
            return payload[offset:end], end
        return _decode_bigint(payload[offset:end]), end
    if tag == _B_INT:
        raw = payload[offset]
        if raw < 0x80:
            return _SMALL_INT_VALUES[raw], offset + 1
        raw, offset = _decode_varint(payload, offset)
        if raw >> 64:
            raise CodecError("I value outside int64 (its wire form is G)")
        return _unzigzag(raw), offset
    if tag == _B_DICT:
        count = payload[offset]
        if count < 0x80:
            offset += 1
        else:
            count, offset = _decode_varint(payload, offset)
        result: Dict[str, Any] = {}
        for _ in range(count):
            n = payload[offset]
            if n < 0x80:
                offset += 1
            else:
                n, offset = _decode_varint(payload, offset)
            end = offset + n
            if end > len(payload):
                raise CodecError("truncated payload")
            # Interning makes every decoded frame share one key object per
            # field name, so downstream dict lookups are pointer compares.
            key = intern(payload[offset:end].decode("utf-8"))
            result[key], offset = _decode_value(payload, end)
        if len(result) != count:
            # A repeated key would give the dict a second wire form.
            raise CodecError("repeated dict key")
        return result, offset
    if tag == _B_LIST:
        count = payload[offset]
        if count < 0x80:
            offset += 1
        else:
            count, offset = _decode_varint(payload, offset)
        items = []
        append = items.append
        for _ in range(count):
            item, offset = _decode_value(payload, offset)
            append(item)
        return items, offset
    if tag == _B_NONE:
        return None, offset
    if tag == _B_TRUE:
        return True, offset
    if tag == _B_FALSE:
        return False, offset
    if tag == _B_FLOAT:
        if offset + _F64.size > len(payload):
            raise CodecError("truncated payload")
        return _F64.unpack_from(payload, offset)[0], offset + _F64.size
    raise CodecError(f"unknown type tag {bytes((tag,))!r} at offset {offset - 1}")


def _decode_bigint(raw: bytes) -> int:
    # ``int()`` tolerates "+5", whitespace, and "5_0" — all non-canonical
    # spellings our encoder never emits — and an int64 value has the
    # shorter ``I`` form. Accept only what the encoder writes, so every
    # value has exactly one wire form.
    text = raw.decode("ascii")
    try:
        value = int(text)
    except ValueError as exc:
        raise CodecError(f"bad bigint text {text!r}") from exc
    if str(value) != text:
        raise CodecError(f"non-canonical bigint text {text!r}")
    if -(2**63) <= value < 2**63:
        raise CodecError(f"bigint {value} inside int64 (its wire form is I)")
    return value


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
    opaque" contestant in the E9 wire-format comparison. Every value has
    exactly one wire form: ``decode`` rejects non-minimal varints, an int
    spelled with the wrong one of ``I`` and ``G``, and a repeated dict
    key."""

    name = "binary"

    def encode(self, value: Any) -> bytes:
        pieces: list[bytes] = []
        try:
            _encode_value(value, pieces.append)
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"cannot binary-encode {type(value).__name__}: {exc}") from exc
        return b"".join(pieces)

    def encoded_size(self, value: Any) -> int:
        """``len(self.encode(value))`` without building the bytes.

        Cheap — no buffers, no UTF-8 copies of ASCII strings, cached key
        bytes — and exact: a property test holds it to the reference
        codec. Nested lazy frames contribute their cached
        ``encoded_length``. This is what lets a
        :class:`~repro.interop.frames.WireFrame` report its wire size (the
        simulator's serialization-delay input) without materializing.
        """
        try:
            return _size_value(value)
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"cannot binary-encode {type(value).__name__}: {exc}") from exc

    def decode(self, payload: bytes) -> Any:
        if type(payload) is not bytes:
            if not isinstance(payload, (bytes, bytearray, memoryview, *_FRAME_TYPES)):
                raise CodecError(f"cannot binary-decode {type(payload).__name__}")
            payload = bytes(payload)
        try:
            value, offset = _decode_value(payload, 0)
        except CodecError:
            raise
        except IndexError as exc:
            raise CodecError("truncated payload") from exc
        except (ValueError, OverflowError, RecursionError) as exc:
            # Bad UTF-8/ASCII text, absurd lengths, pathological nesting.
            raise CodecError(f"cannot binary-decode: {exc}") from exc
        if offset != len(payload):
            raise CodecError(f"{len(payload) - offset} trailing bytes after value")
        return value


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

