"""The transport receive seam: decode once, count-and-drop garbage once.

Every message protocol binds its endpoint with
``Transport.receive_messages`` and sees only decoded dicts. These tests
feed each protocol's endpoint the four kinds of remote garbage — truncated
bytes, random bytes, a valid encoding of a non-dict, and a same-codec
frame of a non-dict — and check that each is counted exactly once on that
port, that nothing raises out of the event loop, and that the endpoint
then serves a valid exchange normally. They also pin the codec error
contract the seam relies on (``decode`` raises only ``CodecError``) and
the corrupt-mix scenarios that used to crash.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.discovery.description import ServiceDescription
from repro.discovery.distributed import DistributedDiscovery
from repro.discovery.matching import Query
from repro.discovery.registry import RegistryClient, RegistryServer
from repro.errors import CodecError, MarkupError
from repro.interop.codec import BinaryCodec, JsonCodec, SmlCodec
from repro.interop.frames import WireFrame
from repro.naming.locator import LocationClient, LocationServer
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.obs.metrics import get_registry
from repro.recovery.heartbeat import HeartbeatDetector
from repro.replication.client import GroupClient
from repro.replication.replica import deploy_group
from repro.replication.services import KVMachine
from repro.routing.base import build_routed_network
from repro.routing.datacentric import DataCentricAgent
from repro.routing.flooding import FloodingRouter
from repro.transactions.agents import AgentHost, MobileAgent
from repro.transactions.messaging import MessageBroker, MessagingClient
from repro.transactions.pubsub import PubSubBroker, PubSubClient
from repro.transactions.rpc import RpcEndpoint
from repro.transactions.sharedobjects import SharedObjectCache, SharedObjectHost
from repro.transactions.tuplespace import TupleSpaceClient, TupleSpaceServer
from repro.transport.base import Address
from repro.transport.simnet import SimFabric
from repro.workloads import run_scenario, validate_scorecard
from tests.codec_reference import ReferenceBinaryCodec
from tests.replication_helpers import FAST

CODEC = BinaryCodec()


def garbage_frames():
    """The four kinds of remote garbage every message endpoint must drop."""
    random_bytes = random.Random(7).randbytes(32)
    with pytest.raises(CodecError):  # self-check: really undecodable
        CODEC.decode(random_bytes)
    return [
        CODEC.encode({"op": "call", "rid": "r1", "method": "echo"})[:-3],
        random_bytes,
        CODEC.encode(["op", "call", None]),
        WireFrame(["op", 1], CODEC),
    ]


class Collector(MobileAgent):
    def visit(self, host):
        self.state.setdefault("readings", []).append(host.services["reading"]())


def printer(service_id="p1"):
    return ServiceDescription(service_id=service_id, service_type="printer",
                              provider="leaf0:svc")


# Each builder stands up one protocol on ``fabric`` and returns the
# endpoint under test plus a callable that runs one valid exchange through
# it and asserts the exchange succeeded.

def build_rpc(fabric, run):
    server = RpcEndpoint(fabric.endpoint("hub", "svc"))
    server.expose("echo", lambda value: value)
    caller = RpcEndpoint(fabric.endpoint("leaf0", "svc"))

    def exercise():
        reply = caller.call(Address("hub", "svc"), "echo", {"value": 7})
        run()
        assert reply.result() == 7

    return server, caller, exercise


def build_pubsub(fabric, run):
    broker = PubSubBroker(fabric.endpoint("hub", "ps"))
    subscriber = PubSubClient(fabric.endpoint("leaf0", "ps"), Address("hub", "ps"))
    publisher = PubSubClient(fabric.endpoint("leaf1", "ps"), Address("hub", "ps"))

    def exercise():
        got = []
        subscriber.subscribe("t", lambda topic, event: got.append(event))
        run()
        publisher.publish("t", 5)
        run()
        assert got == [5]

    return broker, subscriber, exercise


def build_tuplespace(fabric, run):
    server = TupleSpaceServer(fabric.endpoint("hub", "ts"))
    client = TupleSpaceClient(fabric.endpoint("leaf0", "ts"), Address("hub", "ts"))

    def exercise():
        client.out("a", 1)
        read = client.rd("a", None)
        run()
        assert read.result() == ["a", 1]

    return server, client, exercise


def build_messaging(fabric, run):
    broker = MessageBroker(fabric.endpoint("hub", "mq"))
    producer = MessagingClient(fabric.endpoint("leaf1", "mq"), Address("hub", "mq"))
    consumer = MessagingClient(fabric.endpoint("leaf0", "mq"), Address("hub", "mq"))

    def exercise():
        got = []
        producer.put("jobs", {"n": 1})
        consumer.subscribe("jobs", got.append)
        run()
        assert got == [{"n": 1}]

    return broker, consumer, exercise


def build_sharedobjects(fabric, run):
    host = SharedObjectHost(fabric.endpoint("hub", "so"))
    reader = SharedObjectCache(fabric.endpoint("leaf0", "so"), Address("hub", "so"))
    writer = SharedObjectCache(fabric.endpoint("leaf1", "so"), Address("hub", "so"))

    def exercise():
        writer.write("k", 3)
        run()
        read = reader.read("k")
        run()
        assert read.result() == 3

    return host, reader, exercise


def build_locator(fabric, run):
    server = LocationServer(fabric.endpoint("hub", "loc"))
    client = LocationClient(fabric.endpoint("leaf0", "loc"), Address("hub", "loc"))

    def exercise():
        client.bind("sensors/a", Address("leaf1", "svc"))
        run()
        resolved = client.resolve("sensors/a")
        run()
        assert resolved.result() == Address("leaf1", "svc")

    return server, client, exercise


def build_registry(fabric, run):
    server = RegistryServer(fabric.endpoint("hub", "reg"))
    client = RegistryClient(fabric.endpoint("leaf0", "reg"), Address("hub", "reg"))

    def exercise():
        client.register(printer(), auto_renew=False)
        run()
        found = client.lookup(Query("printer"))
        run()
        assert [d.service_id for d in found.result()] == ["p1"]

    return server, client, exercise


def build_agents(fabric, run):
    home = AgentHost(fabric.endpoint("hub", "agents"))
    remote = AgentHost(fabric.endpoint("leaf0", "agents"),
                       services={"reading": lambda: 42})
    for host in (home, remote):
        host.register(Collector)

    def exercise():
        done = home.dispatch(Collector(), [Address("leaf0", "agents")])
        run()
        assert done.result()["readings"] == [42]

    return remote, home, exercise


def build_heartbeat(fabric, run):
    watcher = HeartbeatDetector(fabric.endpoint("hub", "hb"), interval_s=0.5)
    beater = HeartbeatDetector(fabric.endpoint("leaf0", "hb"), interval_s=0.5)
    watcher.watch("leaf0")
    beater.send_to(Address("hub", "hb"))

    def exercise():
        run()  # far past the 1.5 s timeout: only heard beats keep it alive
        assert not watcher.suspected("leaf0")

    return watcher, None, exercise


def build_replication(fabric, run):
    replicas = deploy_group(lambda node, port: fabric.endpoint(node, port),
                            ["hub", "leaf0", "leaf1"], KVMachine,
                            port="g", params=FAST)
    client = GroupClient(fabric.endpoint("leaf2", "c"),
                         [Address(node, "g") for node in replicas],
                         request_timeout_s=0.4)
    primary = next(r for r in replicas.values() if r.role == "primary")

    def exercise():
        write = client.command("write", "k", "v")
        run()
        assert write.fulfilled

    return primary, client, exercise


def build_discovery(fabric, run):
    consumer = DistributedDiscovery(fabric.endpoint("hub", "disc"))
    supplier = DistributedDiscovery(fabric.endpoint("leaf0", "disc"))
    supplier.advertise(printer())

    def exercise():
        found = consumer.lookup(Query("printer"))
        run()
        assert [d.service_id for d in found.result()] == ["p1"]

    return consumer, None, exercise


def build_routing(fabric, run):
    agents = build_routed_network(fabric, lambda _node: FloodingRouter())
    sender = agents["leaf0"].open_port("app")
    receiver = agents["hub"].open_port("app")
    got = []
    receiver.set_receiver(lambda source, data: got.append(data))

    def exercise():
        sender.send(Address("hub", "app"), b"hello")
        run()
        assert got == [b"hello"]

    return agents["hub"], None, exercise


def build_datacentric(fabric, run):
    sink = DataCentricAgent(fabric, "hub")
    source = DataCentricAgent(fabric, "leaf0")
    got = []
    sink.subscribe("temp", lambda name, value, origin: got.append(value))

    def exercise():
        run()
        source.publish("temp", 21.5)
        run()
        assert got == [21.5]

    return sink, None, exercise


BUILDERS = {
    "rpc": build_rpc,
    "pubsub": build_pubsub,
    "tuplespace": build_tuplespace,
    "messaging": build_messaging,
    "sharedobjects": build_sharedobjects,
    "locator": build_locator,
    "registry": build_registry,
    "agents": build_agents,
    "heartbeat": build_heartbeat,
    "replication": build_replication,
    "discovery": build_discovery,
    "routing": build_routing,
    "datacentric": build_datacentric,
}

#: (protocol, side): side 0 is the serving endpoint, side 1 its client.
ENDPOINTS = [
    (name, side)
    for name in BUILDERS
    for side in ((0, 1) if name in {
        "rpc", "pubsub", "tuplespace", "messaging", "sharedobjects",
        "locator", "registry", "agents", "replication",
    } else (0,))
]


def endpoint_of(protocol_object):
    for attr in ("transport", "endpoint"):
        transport = getattr(protocol_object, attr, None)
        if transport is not None:
            return transport
    raise AssertionError(f"no endpoint on {protocol_object!r}")


@pytest.mark.parametrize(
    "name,side", ENDPOINTS,
    ids=[f"{name}-{'client' if side else 'server'}" for name, side in ENDPOINTS],
)
def test_endpoint_counts_and_drops_garbage_then_serves(name, side):
    get_registry().reset()
    network = topology.star(4, radius=40, radio_profile=IDEAL_RADIO)
    fabric = SimFabric(network)
    sim = network.sim

    def run():
        sim.run_until(sim.now() + 5.0)

    built = BUILDERS[name](fabric, run)
    target = endpoint_of(built[side])
    address = target.local_address
    attacker = fabric.endpoint("leaf2", "raw")
    for frame in garbage_frames():
        attacker.send(address, frame)
    run()  # nothing may raise out of the event loop

    assert target.malformed_frames == 4
    counted = sum(
        c.value for c in get_registry().counters()
        if c.name == "transport.malformed"
        and dict(c.labels) == {"node": address.node, "port": address.port}
    )
    assert counted == 4
    built[2]()  # the endpoint still serves a valid exchange
    assert target.malformed_frames == 4


def test_set_receiver_rebinds_to_raw_bytes():
    fabric = SimFabric(topology.star(2, radius=40, radio_profile=IDEAL_RADIO))
    endpoint = fabric.endpoint("hub", "p")
    endpoint.receive_messages(CODEC, lambda source, message: None)
    got = []
    endpoint.set_receiver(lambda source, data: got.append(data))
    fabric.endpoint("leaf0", "p").send(endpoint.local_address, b"\xffraw")
    fabric.run()
    assert got == [b"\xffraw"]
    assert endpoint.malformed_frames == 0


# ------------------------------------------------------ codec error contract

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)
binary_values = st.recursive(
    st.one_of(json_scalars, st.binary(max_size=20)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def mangle(data, encoded):
    """Truncate, or flip bits in one byte of, a valid encoding."""
    if not encoded or data.draw(st.booleans()):
        return encoded[:data.draw(st.integers(0, max(0, len(encoded) - 1)))]
    index = data.draw(st.integers(0, len(encoded) - 1))
    mask = data.draw(st.integers(1, 255))
    return encoded[:index] + bytes([encoded[index] ^ mask]) + encoded[index + 1:]


def assert_value_or_codec_error(codec, payload):
    try:
        codec.decode(payload)
    except CodecError:
        pass


@pytest.mark.parametrize("codec,values", [
    (BinaryCodec(), binary_values),
    (JsonCodec(), json_values),
    (SmlCodec(), binary_values),
], ids=["binary", "json", "sml"])
@settings(max_examples=300)
@given(data=st.data())
def test_decode_of_mangled_frames_raises_only_codec_error(codec, values, data):
    value = data.draw(values)
    try:
        encoded = codec.encode(value)
    except (CodecError, MarkupError):
        return  # not expressible in this wire format
    assert_value_or_codec_error(codec, mangle(data, encoded))


@pytest.mark.parametrize("codec", [BinaryCodec(), JsonCodec(), SmlCodec()],
                         ids=["binary", "json", "sml"])
@settings(max_examples=300)
@given(payload=st.binary(max_size=64))
def test_decode_of_random_bytes_raises_only_codec_error(codec, payload):
    assert_value_or_codec_error(codec, payload)


@pytest.mark.parametrize("codec,payload", [
    (BinaryCodec(), b"S\x02\xc3\x28"),        # invalid UTF-8 string
    (BinaryCodec(), b"M\x01\x02\xff\xfeN"),   # invalid UTF-8 dict key
    (BinaryCodec(), b"G\x02\xff\xff"),        # non-ASCII bigint text
    (BinaryCodec(), b"L\x01" * 5000 + b"N"),  # nesting past the recursion limit
    (JsonCodec(), b"1" * 5000),               # int past the digit limit
    (JsonCodec(), b"[" * 5000),
    (SmlCodec(), b"<int>1"),                  # markup error
    (SmlCodec(), b"<list>" * 3000),
], ids=["bad-utf8-str", "bad-utf8-key", "bad-bigint", "deep-binary",
        "huge-json-int", "deep-json", "bad-markup", "deep-sml"])
def test_decode_wraps_errors_that_used_to_leak(codec, payload):
    with pytest.raises(CodecError):
        codec.decode(payload)


# Message shapes as the registered workloads send them (replication,
# RPC and tuple-space traffic), for exhaustive fuzzing of the binary
# decoder's fast paths.
CAPTURED_SHAPES = {
    "append": {"op": "append", "term": 1, "commit": 0, "prev": 0, "prev_term": 0,
               "entries": [{"i": 1, "t": 1, "r": "tx:t0", "n": "transfer",
                            "a": ["t0", "ingress", "s0", 1]}]},
    "append_ack": {"op": "append_ack", "term": 3, "index": 12},
    "cmd_ack": {"op": "cmd_ack", "rid": "tx:t0", "result": True, "index": 1},
    "call": {"op": "call", "rid": "rpc:leaf0:api.c-0", "method": "echo",
             "params": {"n": 48}},
    "result": {"op": "result", "rid": "rpc:leaf0:api.c-0", "value": 48},
    "out": {"op": "out", "tuple": ["chat", 0, "x" * 48], "rid": "ts:leaf0:ts.pub-0"},
    "tuple": {"op": "tuple", "rid": "ts:leaf1:ts.sub-0", "tuple": ["chat", 0, "x" * 48]},
}


def test_binary_decode_fast_paths_survive_exhaustive_mangling():
    reference = ReferenceBinaryCodec()
    frames = {name: CODEC.encode(shape) for name, shape in CAPTURED_SHAPES.items()}
    for encoded in frames.values():
        mangled = [encoded[:cut] for cut in range(len(encoded))]
        mangled += [encoded[:index] + bytes([encoded[index] ^ mask]) + encoded[index + 1:]
                    for index in range(len(encoded)) for mask in range(1, 256)]
        for payload in mangled:
            try:
                value = CODEC.decode(payload)
            except CodecError:
                continue
            # Whatever the stricter fast decoder accepts, the reference
            # decoder reads the same way.
            assert value == reference.decode(payload)
    # Decoding the mangled frames left no state behind that changes how
    # the intact ones decode.
    for name, encoded in frames.items():
        assert CODEC.decode(encoded) == reference.decode(encoded) == CAPTURED_SHAPES[name]


# ------------------------------------------- corrupt-mix scenario regression

@pytest.mark.parametrize("traffic", ["closed_loop", "diurnal", "flash_crowd",
                                     "heavy_tail"])
@pytest.mark.parametrize("seed", [0, 1])
def test_chat_fanout_survives_the_corrupt_mix(traffic, seed):
    card = run_scenario(f"chat_fanout:{traffic}", seed=seed, horizon_s=24,
                        chaos_mix="corrupt")
    # validate_scorecard checks the schema and the accounting identity
    # (ok + failed + refused + pending == arrivals).
    assert validate_scorecard(card) == []
    assert card["faults"]["corrupt_windows"] > 0
