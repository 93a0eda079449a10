"""Coverage for less-traveled paths across the subsystems."""

import pytest

from repro.discovery.adaptive import AdaptiveDiscovery, AdaptivePolicy
from repro.discovery.description import ServiceDescription
from repro.discovery.distributed import DistributedDiscovery
from repro.discovery.matching import Query
from repro.discovery.registry import RegistryClient, RegistryServer
from repro.experiments.__main__ import EXPERIMENTS, main as experiments_main
from repro.netsim.link import ATM_155M, ETHERNET_10M, LinkProfile
from repro.netsim.network import Network
from repro.netsim.packet import BROADCAST, Packet
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.routing.base import build_routed_network
from repro.routing.datacentric import DataCentricAgent
from repro.routing.linkstate import LinkStateRouter
from repro.transport.base import Address
from repro.transport.simnet import SimFabric
from repro.util.geometry import Point


class TestWiredLinkExtras:
    def test_lossy_wire_drops_fraction(self):
        network = Network(seed=5)
        network.add_node("a")
        node_b = network.add_node("b", position=Point(50000, 0))
        lossy = LinkProfile("lossy-wire", bandwidth_bps=1e6, latency_s=0.001,
                            loss_probability=0.5)
        network.add_link("a", "b", lossy)
        got = []
        node_b.set_packet_handler(lambda node, pkt: got.append(1))
        for _ in range(200):
            network.send("a", Packet("a", "b", payload=b"x", payload_bytes=10))
        network.sim.run()
        assert 50 < len(got) < 150

    def test_atm_faster_than_ethernet_for_big_frames(self):
        def one_way_latency(profile):
            network = Network()
            network.add_node("a")
            node_b = network.add_node("b", position=Point(50000, 0))
            network.add_link("a", "b", profile)
            arrival = []
            node_b.set_packet_handler(lambda node, pkt: arrival.append(network.sim.now()))
            network.send("a", Packet("a", "b", payload=b"x", payload_bytes=100000))
            network.sim.run()
            return arrival[0]

        # 100 kB serializes in 80 ms at 10 Mbps vs ~5 ms at 155 Mbps; ATM's
        # higher base latency does not make up the difference.
        assert one_way_latency(ATM_155M) < one_way_latency(ETHERNET_10M)

    def test_broadcast_crosses_wired_links_too(self):
        network = Network()
        network.add_node("a")
        far = network.add_node("far", position=Point(50000, 0))
        network.add_link("a", "far")
        got = []
        far.set_packet_handler(lambda node, pkt: got.append(pkt.payload))
        network.send("a", Packet("a", BROADCAST, payload=b"hi", payload_bytes=2))
        network.sim.run()
        assert got == [b"hi"]


class TestDataCentricExtras:
    def test_unsubscribe_stops_local_delivery(self, chain):
        network, fabric = chain
        agent = DataCentricAgent(fabric, "n0")
        got = []
        agent.subscribe("x", lambda n, v, o: got.append(v))
        agent.publish("x", 1)
        agent.unsubscribe("x")
        agent.publish("x", 2)
        assert got == [1]

    def test_refreshed_interest_keeps_gradient_alive(self, chain):
        network, fabric = chain
        agents = {i: DataCentricAgent(fabric, f"n{i}", gradient_lifetime_s=3.0)
                  for i in range(5)}
        got = []
        agents[0].subscribe("t", lambda n, v, o: got.append(v),
                            refresh_interval_s=1.0)
        network.sim.run_until(10.0)  # far beyond one gradient lifetime
        agents[4].publish("t", 9)
        network.sim.run_until(12.0)
        assert got == [9]


class TestRoutedBroadcast:
    def test_routed_port_broadcast_reaches_neighbors(self):
        network = topology.star(3, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        agents = build_routed_network(
            fabric, lambda nid: LinkStateRouter(network, nid)
        )
        hub_port = agents["hub"].open_port("app")
        got = []
        for leaf in ("leaf0", "leaf1", "leaf2"):
            port = agents[leaf].open_port("app")
            port.set_receiver(lambda src, data, leaf=leaf: got.append(leaf))
        hub_port.broadcast(b"hello all")
        network.sim.run()
        assert sorted(got) == ["leaf0", "leaf1", "leaf2"]


class TestAdaptiveWithdraw:
    def test_withdraw_in_both_modes(self):
        network = topology.star(4, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        server = RegistryServer(fabric.endpoint("hub", "registry"))
        distributed = DistributedDiscovery(fabric.endpoint("leaf0", "disc"),
                                           collect_window_s=0.5)
        registry = RegistryClient(fabric.endpoint("leaf0", "reg"),
                                  server.transport.local_address)
        agent = AdaptiveDiscovery(
            distributed, registry,
            policy=AdaptivePolicy(density_threshold=1, reevaluate_interval_s=1.0),
            density_probe=lambda: 10,  # centralized
        )
        agent.advertise(ServiceDescription("svc", "cam", "leaf0:svc"))
        network.sim.run_for(1.0)
        assert len(server) == 1
        agent.withdraw("svc")
        network.sim.run_for(1.0)
        assert len(server) == 0
        assert distributed.local_services() == []


class TestExperimentsCli:
    def test_listing(self, capsys):
        assert experiments_main(["prog"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_name(self, capsys):
        assert experiments_main(["prog", "nope"]) == 2

    def test_runs_fast_experiment(self, capsys):
        assert experiments_main(["prog", "degradation"]) == 0
        out = capsys.readouterr().out
        assert "E4" in out and "degrading" in out
