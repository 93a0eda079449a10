"""Zero-copy wire frames: bit-identity, laziness, and forced-bytes edges.

The load-bearing guarantee is that laziness is *unobservable* on the wire:
``bytes(WireFrame(v))`` must be bit-identical to the eager
``BinaryCodec().encode(v)`` on an arbitrary value corpus, lengths must be
exact without materializing, and every edge that genuinely needs bytes
(crypto, chaos corruption, the WAL, pickling) must keep receiving them.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.interop.codec import (
    _varint_size,
    _zigzag,
    BinaryCodec,
    JsonCodec,
)
from repro.interop.frames import (
    decode_frame,
    is_frame,
    PrefixedFrame,
    split_frame,
    TailIntPacker,
    WireFrame,
)
from repro.netsim import topology
from repro.netsim.failures import FrameCorruptor
from repro.netsim.packet import Packet
from repro.obs.metrics import get_registry
from repro.recovery.wal import StableStorage
from repro.routing.base import build_routed_network
from repro.routing.flooding import FloodingRouter
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.transport.secure import SecureChannel
from repro.transport.simnet import SimFabric

# Same JSON-like value model the codec property tests use.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestWireFrameIdentity:
    @given(json_values)
    @settings(max_examples=200)
    def test_bytes_identical_to_eager_encode(self, value):
        codec = BinaryCodec()
        assert bytes(WireFrame(value, codec)) == codec.encode(value)

    @given(json_values)
    @settings(max_examples=200)
    def test_length_exact_without_materializing(self, value):
        codec = BinaryCodec()
        frame = WireFrame(value, codec)
        assert len(frame) == len(codec.encode(value))
        # len() must not have forced the encoding — payload_bytes accounting
        # on the simulated fabrics relies on this staying lazy.
        assert frame._encoded is None

    @given(json_values)
    @settings(max_examples=100)
    def test_materialized_bytes_decode_to_original(self, value):
        codec = BinaryCodec()
        assert codec.decode(bytes(WireFrame(value, codec))) == codec.decode(
            codec.encode(value)
        )

    @given(json_values)
    @settings(max_examples=100)
    def test_from_bytes_is_lazy_then_cached(self, value):
        codec = BinaryCodec()
        frame = WireFrame.from_bytes(codec.encode(value), codec)
        assert frame._message is None
        decoded = frame.message
        assert decoded == codec.decode(codec.encode(value))
        assert frame.message is frame._message  # cached, decoded once
        assert len(frame) == len(codec.encode(value))

    def test_materialization_cached(self):
        frame = WireFrame({"a": 1}, BinaryCodec())
        assert bytes(frame) is bytes(frame)

    def test_pickle_round_trip_yields_bytes_backed_frame(self):
        codec = BinaryCodec()
        frame = WireFrame({"op": "hb", "seq": 7}, codec)
        clone = pickle.loads(pickle.dumps(frame))
        assert isinstance(clone, WireFrame)
        assert clone._message is None  # decode stays lazy on the far side
        assert bytes(clone) == bytes(frame)
        assert clone.message == frame.message

    def test_repr_does_not_materialize_message(self):
        frame = WireFrame({"a": 1}, BinaryCodec())
        repr(frame)
        assert frame._encoded is None


class TestTailIntPacker:
    @pytest.mark.parametrize(
        "value", [0, 1, -1, 63, 64, -64, 1000, 123456789, -(2**62), 2**62,
                  2**63, -(2**63) - 1, True, False]
    )
    def test_frame_matches_eager_encode(self, value):
        codec = BinaryCodec()
        packer = TailIntPacker(codec, {"op": "hb", "from": "n1"}, "seq")
        frame = packer.frame(value)
        expected = codec.encode({"op": "hb", "from": "n1", "seq": value})
        assert len(frame) == len(expected)
        assert bytes(frame) == expected
        assert frame.message == {"op": "hb", "from": "n1", "seq": value}

    def test_requires_binary_codec(self):
        with pytest.raises(CodecError):
            TailIntPacker(JsonCodec(), {"op": "hb"}, "seq")

    def test_rejects_field_already_in_base(self):
        with pytest.raises(CodecError):
            TailIntPacker(BinaryCodec(), {"op": "hb", "seq": 0}, "seq")


class TestPrefixedFrame:
    def test_len_and_bytes_without_forcing_body(self):
        codec = BinaryCodec()
        body = WireFrame({"k": "v"}, codec)
        frame = PrefixedFrame(b"HDR", body)
        assert len(frame) == 3 + len(codec.encode({"k": "v"}))
        assert body._encoded is None  # len stayed lazy
        assert bytes(frame) == b"HDR" + codec.encode({"k": "v"})

    def test_split_peels_prefix_by_reference(self):
        body = WireFrame({"k": 1}, BinaryCodec())
        frame = PrefixedFrame(b"ABCD", body)
        header, peeled = split_frame(frame, 4)
        assert header == b"ABCD"
        assert peeled is body  # zero-copy: the very same lazy frame

    def test_split_falls_back_to_bytes_on_shape_mismatch(self):
        frame = PrefixedFrame(b"AB", b"CDEF")  # prefix shorter than header
        header, rest = split_frame(frame, 4)
        assert header == b"ABCD" and rest == b"EF"

    def test_split_reports_truncation(self):
        header, rest = split_frame(b"xy", 4)
        assert header is None and rest == b"xy"

    def test_pickles_as_bytes(self):
        frame = PrefixedFrame(b"H", WireFrame([1, 2], BinaryCodec()))
        assert pickle.loads(pickle.dumps(frame)) == bytes(frame)

    def test_is_frame(self):
        assert is_frame(WireFrame({}, BinaryCodec()))
        assert is_frame(PrefixedFrame(b"", b""))
        assert not is_frame(b"raw")


class TestPassthrough:
    def test_try_decode_dict_returns_original_dict_without_encoding(self):
        codec = BinaryCodec()
        message = {"op": "x", "n": 3}
        frame = WireFrame(message, codec)
        registry = get_registry()
        passthrough = registry.counter_total("transport.frames.passthrough")
        skipped = registry.counter_total("codec.encode_skipped")
        extracted = decode_frame(codec, frame)
        assert extracted is message  # identity, not a copy
        assert frame._encoded is None  # encode never ran
        assert registry.counter_total("transport.frames.passthrough") == passthrough + 1
        assert registry.counter_total("codec.encode_skipped") == skipped + 1

    def test_decode_payload_passthrough_and_raw_bytes(self):
        codec = BinaryCodec()
        message = {"op": "x"}
        assert decode_frame(codec, WireFrame(message, codec)) is message
        assert decode_frame(codec, codec.encode(message)) == message

    def test_codec_mismatch_materializes_real_bytes(self):
        binary, json_codec = BinaryCodec(), JsonCodec()
        frame = WireFrame({"a": 1}, binary)
        # The JSON receiver sees its own view of the sender's real bytes —
        # binary wire bytes are not JSON, so the counted-drop path fires.
        with pytest.raises(CodecError):
            decode_frame(json_codec, frame)
        assert frame._encoded is not None
        json_frame = WireFrame({"a": 1}, json_codec)
        assert decode_frame(json_codec, json_frame) is json_frame._message

    def test_raw_decode_coerces_frames(self):
        # Receivers that call codec.decode() directly on a transport payload
        # (test harnesses, gateways) must keep working on lazy frames.
        codec = BinaryCodec()
        frame = WireFrame({"a": [1, 2]}, codec)
        assert codec.decode(frame) == {"a": [1, 2]}
        json_codec = JsonCodec()
        assert json_codec.decode(WireFrame({"a": 1}, json_codec)) == {"a": 1}

    def test_non_dict_frame_is_not_extracted(self):
        codec = BinaryCodec()
        fabric = InMemoryFabric()
        sender, receiver = fabric.endpoint("a"), fabric.endpoint("b")
        got = []
        receiver.receive_messages(codec, lambda source, message: got.append(message))
        sender.send(receiver.local_address, WireFrame([1, 2, 3], codec))
        fabric.run()
        assert got == []
        assert receiver.malformed_frames == 1


class TestEndToEndZeroCopy:
    def test_routed_chain_never_materializes(self):
        network = topology.linear_chain(4, spacing=60)
        fabric = SimFabric(network)
        agents = build_routed_network(fabric, lambda node: FloodingRouter())
        nodes = sorted(agents)
        src, dst = nodes[0], nodes[-1]
        src_port = agents[src].open_port("app")
        dst_port = agents[dst].open_port("app")
        received = []
        dst_port.set_receiver(lambda source, data: received.append(data))
        registry = get_registry()
        materialized = registry.counter_total("transport.frames.materialized")
        passthrough = registry.counter_total("transport.frames.passthrough")
        src_port.send(Address(dst, "app"), b"payload")
        network.sim.run()
        assert received == [b"payload"]
        # Every hop crossed by reference: dict in, dict out, zero encodes.
        assert registry.counter_total("transport.frames.materialized") == materialized
        assert registry.counter_total("transport.frames.passthrough") > passthrough


class TestForcedBytesEdges:
    def test_chaos_corruption_lands_on_real_bytes(self):
        codec = BinaryCodec()
        frame = WireFrame({"op": "data", "n": 42}, codec)
        original = codec.encode({"op": "data", "n": 42})
        corruptor = FrameCorruptor(seed=1, probability=1.0, truncate_fraction=0.0)
        packet = Packet(
            source="a",
            destination="b",
            payload=("p", "q", frame),
            payload_bytes=len(frame),
        )
        mangled = corruptor(receiver_id="b", packet=packet)
        tampered = mangled.payload[2]
        assert isinstance(tampered, bytes)  # never a lazy frame downstream
        assert tampered != original
        assert len(tampered) == len(original)
        assert corruptor.corrupted == 1

    def test_secure_channel_seals_frame_plaintext(self):
        channel = SecureChannel(b"k" * 16)
        frame = WireFrame({"secret": 1}, BinaryCodec())
        sealed = channel.seal("a", frame)
        assert isinstance(sealed, bytes)
        assert channel.open(sealed) == bytes(frame)

    def test_stable_storage_stores_real_bytes(self):
        storage = StableStorage()
        frame = WireFrame({"lsn": 1}, BinaryCodec())
        storage.append(frame)
        assert type(storage.blobs[0]) is bytes
        assert storage.blobs[0] == bytes(frame)


class TestCodecRegressions:
    def test_json_rejects_nan_and_infinities(self):
        codec = JsonCodec()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(CodecError):
                codec.encode(bad)
            with pytest.raises(CodecError):
                codec.encode({"v": [bad]})

    def test_bigint_decode_rejects_non_canonical_text(self):
        codec = BinaryCodec()
        big = 2**80
        encoded = codec.encode(big)
        assert codec.decode(encoded) == big
        digits = str(big).encode("ascii")
        for bad in (b"+" + digits, b" " + digits, b"0" + digits, digits + b"\n"):
            tampered = encoded[:1] + bytes([len(bad)]) + bad
            with pytest.raises(CodecError):
                codec.decode(tampered)

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**100])
    def test_zigzag_rejects_out_of_range(self, value):
        with pytest.raises(CodecError):
            _zigzag(value)

    @given(int64s)
    @settings(max_examples=100)
    def test_varint_size_matches_encoded_varint(self, value):
        from repro.interop.codec import _encode_varint

        zz = _zigzag(value)
        assert _varint_size(zz) == len(_encode_varint(zz))
