"""The binary codec against its reference model.

``tests/codec_reference.py`` keeps the original ``isinstance``-chain codec
verbatim. The optimized :class:`BinaryCodec` must match it byte for byte
on ``encode``, value and type for value and type on ``decode``, and count
for count on ``encoded_size``. The strategies deliberately straddle every
fast-path boundary: one-byte varints end at 127, one-byte zigzag ints at
-64..63, int64 at ±2**63, and the exact-type dispatch at subclasses of
int, float, str, list and dict.
"""

from collections import OrderedDict
from enum import IntEnum
from sys import intern

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.interop import codec as codec_module
from repro.interop.codec import BinaryCodec, int_wire
from repro.interop.frames import PrefixedFrame, WireFrame
from tests.codec_reference import ReferenceBinaryCodec

CODEC = BinaryCodec()
REFERENCE = ReferenceBinaryCodec()


class Level(IntEnum):
    LOW = 1
    EDGE = 64
    WIDE = 2**40


class Text(str):
    pass


class Real(float):
    pass


class Items(list):
    pass


BOUNDARY_SIZES = [63, 64, 127, 128, 300]

ints = st.one_of(
    st.sampled_from([
        -65, -64, -1, 0, 63, 64, 127, 128, 8191, 8192,
        -(2**63) - 1, -(2**63), 2**63 - 1, 2**63,
    ]),
    st.integers(min_value=-(2**80), max_value=2**80),
)
# ASCII, two-byte and three-byte UTF-8 repeated to a boundary char count,
# so the byte length lands on both sides of 127/128.
boundary_texts = st.builds(lambda n, ch: ch * n, st.sampled_from(BOUNDARY_SIZES),
                           st.sampled_from(["k", "é", "✓"]))
texts = st.one_of(st.text(max_size=20), boundary_texts)
keys = st.one_of(texts, texts.map(Text))
byte_values = st.one_of(
    st.binary(max_size=20),
    st.sampled_from(BOUNDARY_SIZES).map(lambda n: b"\xff" * n),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    st.sampled_from(list(Level)),
    st.floats(),
    st.floats().map(Real),
    texts,
    texts.map(Text),
    byte_values,
    byte_values.map(bytearray),
)
frames = st.one_of(
    st.builds(WireFrame, st.dictionaries(keys, scalars, max_size=3)),
    st.builds(lambda prefix, body: PrefixedFrame(prefix, WireFrame(body)),
              st.binary(max_size=4), st.dictionaries(keys, scalars, max_size=3)),
)


# A scalar repeated to a boundary count: cheap to draw, and the count
# varint lands on both sides of one byte. Kept to leaves, so two boundary
# counts never multiply.
boundary_containers = st.one_of(
    st.builds(lambda n, item: [item] * n, st.sampled_from(BOUNDARY_SIZES), scalars),
    st.builds(lambda n, item: {f"k{i}": item for i in range(n)},
              st.sampled_from(BOUNDARY_SIZES), scalars),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5).map(Items),
        st.dictionaries(keys, children, max_size=5),
        st.dictionaries(keys, children, max_size=5).map(OrderedDict),
    )


values = st.recursive(st.one_of(scalars, frames, boundary_containers), containers,
                      max_leaves=10)


def typed(value):
    """``value`` with every node's type made explicit, so ``0 == False``,
    ``1 == 1.0`` and ``0.0 == -0.0`` do not pass for equal."""
    if isinstance(value, list):
        return ("list", [typed(item) for item in value])
    if isinstance(value, dict):
        return ("dict", [(type(key), key, typed(item)) for key, item in value.items()])
    return (type(value), repr(value))


class TestAgainstReference:
    @given(values)
    @settings(max_examples=300)
    def test_encode_is_byte_identical(self, value):
        assert CODEC.encode(value) == REFERENCE.encode(value)

    @given(values)
    @settings(max_examples=300)
    def test_encoded_size_matches(self, value):
        assert CODEC.encoded_size(value) == REFERENCE.encoded_size(value)
        assert CODEC.encoded_size(value) == len(REFERENCE.encode(value))

    @given(values)
    @settings(max_examples=300)
    def test_decode_matches_value_and_type(self, value):
        encoded = REFERENCE.encode(value)
        assert typed(CODEC.decode(encoded)) == typed(REFERENCE.decode(encoded))

    @given(values)
    @settings(max_examples=100)
    def test_wire_frame_bytes_match_reference_encode(self, value):
        assert bytes(WireFrame(value, CODEC)) == REFERENCE.encode(value)

    @given(st.binary(max_size=48))
    @settings(max_examples=500)
    def test_accepted_bytes_decode_as_the_reference_does(self, payload):
        # The fast decoder is stricter (canonical forms only), never looser.
        try:
            value = CODEC.decode(payload)
        except CodecError:
            return
        assert typed(value) == typed(REFERENCE.decode(payload))

    @given(st.dictionaries(
        st.one_of(st.integers(), st.floats(allow_nan=False), st.binary(max_size=4),
                  st.none(), st.tuples(st.integers())),
        scalars, min_size=1, max_size=3,
    ), st.booleans())
    @settings(max_examples=100)
    def test_non_str_keys_raise_codec_error(self, bad, nested):
        value = {"outer": [bad]} if nested else bad
        for method in (CODEC.encode, CODEC.encoded_size,
                       REFERENCE.encode, REFERENCE.encoded_size):
            with pytest.raises(CodecError):
                method(value)

    @pytest.mark.parametrize("value", [object(), {"k": {1, 2}}, [1, 2j]],
                             ids=["object", "set", "complex"])
    def test_unsupported_types_raise_codec_error(self, value):
        for method in (CODEC.encode, CODEC.encoded_size):
            with pytest.raises(CodecError):
                method(value)


class TestKeyCache:
    def test_more_keys_than_the_cap_stay_correct_and_bounded(self):
        cap = codec_module._KEY_CACHE_CAP
        peak = 0
        for i in range(2 * cap + 10):
            value = {"op": "probe", f"key-{i}": i, Text(f"sub-{i}"): [i]}
            encoded = CODEC.encode(value)
            assert encoded == REFERENCE.encode(value)
            assert CODEC.encoded_size(value) == len(encoded)
            assert typed(CODEC.decode(encoded)) == typed(REFERENCE.decode(encoded))
            peak = max(peak, len(codec_module._key_wire))
        assert peak == cap

    def test_str_subclass_keys_are_not_cached(self):
        CODEC.encode({Text("only-as-subclass"): 1})
        assert "only-as-subclass" not in codec_module._key_wire

    def test_decoded_keys_are_interned(self):
        (key,) = CODEC.decode(CODEC.encode({"interned-key": 1}))
        assert key is intern("interned-key")


class TestCanonicalDecode:
    """Every value has exactly one wire form; ``decode`` accepts only it."""

    @pytest.mark.parametrize("payload,lenient", [
        (b"I\x80\x00", 0),                       # 0 in two varint bytes
        (b"I" + b"\xff" * 9 + b"\x03", -(2**64)),  # past int64: its form is G
        (b"M\x02\x01aN\x01aN", {"a": None}),      # one key twice
    ], ids=["non-minimal-varint", "int-beyond-int64", "repeated-dict-key"])
    def test_regressions(self, payload, lenient):
        # The original decoder read these as values that encode differently.
        assert REFERENCE.decode(payload) == lenient
        assert CODEC.encode(lenient) != payload
        with pytest.raises(CodecError):
            CODEC.decode(payload)

    @pytest.mark.parametrize("payload", [
        b"S\x80\x00",                             # padded string length
        b"L\x81\x00N",                            # padded list count
        b"M\x81\x00\x01kN",                       # padded dict count
        b"M\x01\x81\x00kN",                       # padded key length
        b"G\x015",                                # int64 value spelled as G
        b"G\x14" + str(-(2**63)).encode(),
    ])
    def test_other_non_canonical_forms_rejected(self, payload):
        with pytest.raises(CodecError):
            CODEC.decode(payload)

    @pytest.mark.parametrize("value", [-(2**63), 2**63 - 1, 2**63, -(2**63) - 1, 2**100])
    def test_int_boundaries_round_trip(self, value):
        assert CODEC.decode(CODEC.encode(value)) == value

    def test_non_bytes_payload_rejected(self):
        for payload in (None, 5, "N"):
            with pytest.raises(CodecError):
                CODEC.decode(payload)


@pytest.mark.parametrize("value", [-65, -64, 0, 63, 64, 2**63 - 1, 2**63, -(2**70), Level.EDGE])
def test_int_wire_is_the_encoders_int_form(value):
    assert int_wire(value) == REFERENCE.encode(value)
