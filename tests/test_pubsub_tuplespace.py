"""Tests for publish/subscribe, tuple space, and shared objects."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.discovery.matching import AttributeConstraint
from repro.transactions import tuplespace
from repro.transactions.pubsub import PubSubBroker, PubSubClient, topic_matches
from repro.transactions.sharedobjects import SharedObjectCache, SharedObjectHost
from repro.transactions.tuplespace import (
    TupleSpaceClient,
    TupleSpaceServer,
    TupleStore,
    template_matches,
)
from repro.transport.inmemory import InMemoryFabric


class TestTopicMatching:
    @pytest.mark.parametrize(
        "pattern,topic,expected",
        [
            ("a.b.c", "a.b.c", True),
            ("a.b.c", "a.b.d", False),
            ("a.*.c", "a.x.c", True),
            ("a.*.c", "a.x.y.c", False),
            ("a.#", "a.x.y.z", True),
            ("a.#", "a", True),  # '#' matches zero or more trailing segments
            ("#", "anything.at.all", True),
            ("a.b", "a.b.c", False),
            ("a.b.c", "a.b", False),
            ("", "a", False),
        ],
    )
    def test_patterns(self, pattern, topic, expected):
        assert topic_matches(pattern, topic) is expected


class TestPubSub:
    def setup_pair(self):
        fabric = InMemoryFabric(latency_s=0.01)
        broker = PubSubBroker(fabric.endpoint("broker", "ps"))
        publisher = PubSubClient(fabric.endpoint("pub", "ps"),
                                 broker.transport.local_address)
        subscriber = PubSubClient(fabric.endpoint("sub", "ps"),
                                  broker.transport.local_address)
        return fabric, broker, publisher, subscriber

    def test_topic_delivery(self):
        fabric, broker, publisher, subscriber = self.setup_pair()
        received = []
        subscriber.subscribe("alerts.*", lambda t, e: received.append((t, e)))
        fabric.run()
        publisher.publish("alerts.fire", {"level": 3})
        publisher.publish("status.ok", {})
        fabric.run()
        assert received == [("alerts.fire", {"level": 3})]

    def test_content_filters(self):
        fabric, broker, publisher, subscriber = self.setup_pair()
        received = []
        subscriber.subscribe(
            "vitals.#", lambda t, e: received.append(e),
            filters=[AttributeConstraint("level", "=", "high")],
        )
        fabric.run()
        publisher.publish("vitals.bp", {"level": "high"})
        publisher.publish("vitals.bp", {"level": "low"})
        fabric.run()
        assert received == [{"level": "high"}]

    def test_unsubscribe_stops_delivery(self):
        fabric, broker, publisher, subscriber = self.setup_pair()
        received = []
        subscriber.subscribe("t.x", lambda t, e: received.append(e))
        fabric.run()
        subscriber.unsubscribe("t.x")
        fabric.run()
        publisher.publish("t.x", 1)
        fabric.run()
        assert received == []
        assert broker.subscription_count() == 0

    def test_multiple_subscribers_fan_out(self):
        fabric = InMemoryFabric(latency_s=0.01)
        broker = PubSubBroker(fabric.endpoint("broker", "ps"))
        publisher = PubSubClient(fabric.endpoint("pub", "ps"),
                                 broker.transport.local_address)
        received = []
        for i in range(3):
            client = PubSubClient(fabric.endpoint(f"s{i}", "ps"),
                                  broker.transport.local_address)
            client.subscribe("t", lambda topic, event, i=i: received.append(i))
        fabric.run()
        publisher.publish("t", "x")
        fabric.run()
        assert sorted(received) == [0, 1, 2]
        assert broker.events_delivered == 3

    def test_subscribe_ack(self):
        fabric, broker, publisher, subscriber = self.setup_pair()
        promise = subscriber.subscribe("a.b", lambda t, e: None)
        fabric.run()
        assert promise.fulfilled


class TestTemplateMatching:
    @pytest.mark.parametrize(
        "template,candidate,expected",
        [
            (["a", 1], ["a", 1], True),
            (["a", 1], ["a", 2], False),
            ([None, None], ["x", 5], True),
            (["a"], ["a", "b"], False),
            (["?int", "?str"], [3, "x"], True),
            (["?int"], [True], False),  # bool is not an int here
            (["?float"], [1.5], True),
            (["?list"], [[1, 2]], True),
            ([], [], True),
        ],
    )
    def test_patterns(self, template, candidate, expected):
        assert template_matches(template, candidate) is expected


class TestTupleSpace:
    def setup_space(self):
        fabric = InMemoryFabric(latency_s=0.01)
        server = TupleSpaceServer(fabric.endpoint("space", "ts"))
        a = TupleSpaceClient(fabric.endpoint("a", "ts"),
                             server.transport.local_address)
        b = TupleSpaceClient(fabric.endpoint("b", "ts"),
                             server.transport.local_address)
        return fabric, server, a, b

    def test_out_then_rdp(self):
        fabric, server, a, b = self.setup_space()
        a.out("temp", 36.6)
        fabric.run()
        probe = b.rdp("temp", None)
        fabric.run()
        assert probe.result() == ["temp", 36.6]
        assert len(server) == 1  # rd does not consume

    def test_inp_consumes(self):
        fabric, server, a, b = self.setup_space()
        a.out("job", 1)
        fabric.run()
        take = b.inp("job", None)
        fabric.run()
        assert take.result() == ["job", 1]
        assert len(server) == 0

    def test_probe_miss_returns_none(self):
        fabric, server, a, b = self.setup_space()
        probe = b.rdp("nothing", None)
        fabric.run()
        assert probe.result() is None

    def test_blocking_read_wakes_on_out(self):
        fabric, server, a, b = self.setup_space()
        blocked = b.rd("data", "?int")
        fabric.run()
        assert blocked.pending
        a.out("data", 42)
        fabric.run()
        assert blocked.result() == ["data", 42]

    def test_single_in_wins_competition(self):
        fabric, server, a, b = self.setup_space()
        first = a.in_("tok", None)
        second = b.in_("tok", None)
        fabric.run()
        a.out("tok", 1)
        fabric.run()
        settled = [p for p in (first, second) if p.fulfilled]
        assert len(settled) == 1  # exactly one taker got the tuple
        assert len(server) == 0

    def test_rd_and_in_both_wake(self):
        fabric, server, a, b = self.setup_space()
        reader = a.rd("x", None)
        taker = b.in_("x", None)
        fabric.run()
        a.out("x", 9)
        fabric.run()
        assert reader.result() == ["x", 9]
        assert taker.result() == ["x", 9]

    def test_out_with_confirm(self):
        fabric, server, a, b = self.setup_space()
        promise = a.out("k", "v", confirm=True)
        fabric.run()
        assert promise.fulfilled

    def test_type_templates(self):
        fabric, server, a, b = self.setup_space()
        a.out("reading", 21.5)
        a.out("reading", "broken")
        fabric.run()
        take = b.inp("reading", "?float")
        fabric.run()
        assert take.result() == ["reading", 21.5]


    def test_indexed_rd_confirms_one_candidate(self, monkeypatch):
        fabric, server, a, b = self.setup_space()
        for i in range(1000):
            a.out("chat", i, "payload")
        fabric.run()
        calls = []
        real = tuplespace.template_matches

        def counting(template, candidate):
            calls.append(candidate)
            return real(template, candidate)

        monkeypatch.setattr(tuplespace, "template_matches", counting)
        read = b.rd("chat", 999, None)
        fabric.run()
        assert read.result() == ["chat", 999, "payload"]
        assert len(calls) <= 1


class LinearStore:
    """The reference: oldest match by scanning every tuple in arrival order."""

    def __init__(self):
        self.tuples = []

    def __len__(self):
        return len(self.tuples)

    def add(self, values):
        self.tuples.append(values)

    def find(self, template, remove=False):
        for i, candidate in enumerate(self.tuples):
            if template_matches(template, candidate):
                if remove:
                    del self.tuples[i]
                return candidate
        return None


# Small pools so tuples collide: duplicates, True/1/1.0, 0/False/-0.0, a
# stored "?int" string, and unhashable list/dict fields.
_values = st.one_of(
    st.sampled_from([0, 1, 2, True, False, 1.0, -0.0, 2.5, "a", "b", "?int", b"x", None]),
    st.lists(st.sampled_from([0, 1, True, 1.0]), max_size=2),
    st.dictionaries(st.just("k"), st.sampled_from([0, 1, 1.0]), max_size=1),
)
_patterns = st.one_of(
    st.sampled_from([None, "?int", "?float", "?str", "?bool", "?list", "?dict"]),
    _values,
)
_tuples = st.lists(_values, max_size=3)


class TestTupleStoreEquivalence:
    @given(st.data())
    @settings(max_examples=300)
    def test_matches_linear_scan(self, data):
        store, reference = TupleStore(), LinearStore()
        for _ in range(data.draw(st.integers(1, 40), label="steps")):
            action = data.draw(st.sampled_from(["add", "copy", "find", "take"]))
            if action == "add" or (action == "copy" and not reference.tuples):
                values = data.draw(_tuples)
            elif action == "copy":
                values = list(data.draw(st.sampled_from(reference.tuples)))
            if action in ("add", "copy"):
                store.add(values)
                reference.add(values)
            else:
                if reference.tuples and data.draw(st.booleans()):
                    # Derived from a stored tuple, so lookups often hit.
                    base = data.draw(st.sampled_from(reference.tuples))
                    template = [data.draw(st.one_of(st.just(v), _patterns))
                                for v in base]
                else:
                    template = data.draw(st.lists(_patterns, max_size=3))
                remove = action == "take"
                expected = reference.find(template, remove=remove)
                found = store.find(template, remove=remove)
                assert found is expected  # the same (oldest) tuple object
            assert len(store) == len(reference)
        assert [id(t) for t in store] == [id(t) for t in reference.tuples]


class TestSharedObjects:
    def setup_objects(self):
        fabric = InMemoryFabric(latency_s=0.01)
        host = SharedObjectHost(fabric.endpoint("host", "so"))
        a = SharedObjectCache(fabric.endpoint("a", "so"),
                              host.transport.local_address)
        b = SharedObjectCache(fabric.endpoint("b", "so"),
                              host.transport.local_address)
        return fabric, host, a, b

    def test_write_then_read(self):
        fabric, host, a, b = self.setup_objects()
        a.write("cfg", {"rate": 5})
        fabric.run()
        read = b.read("cfg")
        fabric.run()
        assert read.result() == {"rate": 5}

    def test_cache_hit_avoids_network(self):
        fabric, host, a, b = self.setup_objects()
        a.write("cfg", 1)
        fabric.run()
        b.read("cfg")
        fabric.run()
        reads_before = host.reads_served
        cached = b.read("cfg")
        assert cached.fulfilled and cached.result() == 1
        assert host.reads_served == reads_before
        assert b.cache_hits == 1

    def test_write_invalidates_other_caches(self):
        fabric, host, a, b = self.setup_objects()
        a.write("cfg", 1)
        fabric.run()
        b.read("cfg")
        fabric.run()
        a.write("cfg", 2)
        fabric.run()
        assert b.invalidations_received == 1
        fresh = b.read("cfg")
        fabric.run()
        assert fresh.result() == 2

    def test_writer_cache_stays_warm(self):
        fabric, host, a, b = self.setup_objects()
        a.write("cfg", 1)
        fabric.run()
        cached = a.read("cfg")
        assert cached.fulfilled and cached.result() == 1

    def test_versions_increase(self):
        fabric, host, a, b = self.setup_objects()
        first = a.write("k", "v1")
        fabric.run()
        second = a.write("k", "v2")
        fabric.run()
        assert second.result() == first.result() + 1

    def test_read_missing_key(self):
        fabric, host, a, b = self.setup_objects()
        read = a.read("ghost")
        fabric.run()
        assert read.result() is None
