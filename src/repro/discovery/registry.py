"""Centralized service registry (the SLP/Jini-style directory).

One node runs a :class:`RegistryServer`; every other node uses a
:class:`RegistryClient` over any transport. Registrations carry a lease
(Section 3.3's plug-and-play: a supplier that disappears stops renewing and
its advertisement ages out instead of going stale forever).

Protocol (codec-encoded dicts):

=============  =======================================================
``register``   desc + lease_s -> ``register_ack`` (granted lease)
``renew``      service_id + lease_s -> ``renew_ack`` (ok flag)
``unregister`` service_id -> ``unregister_ack``
``lookup``     query -> ``lookup_ack`` (list of matching descriptions)
=============  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.discovery.description import ServiceDescription
from repro.discovery.matching import Matcher, Query
from repro.errors import DiscoveryError, MiddlewareError
from repro.interop.codec import Codec, get_codec
from repro.interop.frames import WireFrame
from repro.obs.tracing import NOOP_SPAN, TRACER
from repro.transport.base import Address, Transport
from repro.util.events import EventEmitter
from repro.util.ids import IdGenerator
from repro.util.promise import Promise

#: Default and maximum lease the server grants.
DEFAULT_LEASE_S = 30.0
MAX_LEASE_S = 300.0


@dataclass
class Registration:
    description: ServiceDescription
    expires_at: float


class RegistryServer:
    """The directory process.

    Events (via :attr:`events`): ``"registered"``, ``"renewed"``,
    ``"unregistered"``, ``"expired"`` — each with the service description.
    """

    def __init__(
        self,
        transport: Transport,
        codec: Optional[Codec] = None,
        sweep_interval_s: float = 1.0,
        peers: Optional[List[Address]] = None,
    ):
        self.transport = transport
        self.codec = codec if codec is not None else get_codec("binary")
        self.events = EventEmitter()
        self._registrations: Dict[str, Registration] = {}
        self._matcher = Matcher()
        self.peers = list(peers) if peers else []
        self.lookups_served = 0
        self.registrations_accepted = 0
        self.replications_sent = 0
        transport.receive_messages(self.codec, self._on_message)
        self._sweep_interval = sweep_interval_s
        self._schedule_sweep()

    # ------------------------------------------------------------ inspection

    def registered_services(self) -> List[ServiceDescription]:
        return [r.description for r in self._registrations.values()]

    def __len__(self) -> int:
        return len(self._registrations)

    # ---------------------------------------------------------------- leases

    def _schedule_sweep(self) -> None:
        self.transport.scheduler.schedule(self._sweep_interval, self._sweep)

    def _sweep(self) -> None:
        if self.transport.closed:
            return
        now = self.transport.scheduler.now()
        expired = [
            service_id
            for service_id, registration in self._registrations.items()
            if registration.expires_at <= now
        ]
        for service_id in expired:
            registration = self._registrations.pop(service_id)
            self.events.emit("expired", registration.description)
        self._schedule_sweep()

    # -------------------------------------------------------------- protocol

    def _on_message(self, source: Address, message: Dict[str, Any]) -> None:
        try:
            op = message.get("op")
            rid = message.get("rid")
            if op == "register":
                self._handle_register(source, rid, message)
            elif op == "renew":
                self._handle_renew(source, rid, message)
            elif op == "unregister":
                self._handle_unregister(source, rid, message)
            elif op == "lookup":
                self._handle_lookup(source, rid, message)
            # Unknown ops are dropped: forward compatibility over loud
            # failure at a network boundary.
        except (KeyError, TypeError, ValueError, AttributeError, MiddlewareError):
            # Decodable but mangled (corrupted keys/values/field types): drop.
            self.transport.drop_malformed(source, "mangled registry request")

    def _reply(self, destination: Address, message: Dict[str, Any]) -> None:
        self.transport.send(destination, WireFrame(message, self.codec))

    def _grant_lease(self, requested: Any) -> float:
        lease = float(requested) if requested else DEFAULT_LEASE_S
        return max(0.1, min(lease, MAX_LEASE_S))

    def _replicate(self, message: Dict[str, Any]) -> None:
        """Forward a mutation to mirror peers (Section 3.3's mirroring).

        Replicated copies carry ``sync=True`` so peers apply without
        re-forwarding; their acks come back with ``rid=None`` and are
        dropped by :meth:`_on_message` as unknown correlation ids.
        """
        if not self.peers or message.get("sync"):
            return
        copy = WireFrame({**message, "sync": True, "rid": None}, self.codec)
        for peer in self.peers:
            self.replications_sent += 1
            self.transport.send(peer, copy)

    def _handle_register(self, source: Address, rid: Any, message: Dict[str, Any]) -> None:
        description = ServiceDescription.from_dict(message["desc"])
        lease = self._grant_lease(message.get("lease_s"))
        is_new = description.service_id not in self._registrations
        self._registrations[description.service_id] = Registration(
            description, self.transport.scheduler.now() + lease
        )
        self.registrations_accepted += 1
        self._replicate(message)
        self.events.emit("registered" if is_new else "renewed", description)
        self._reply(
            source,
            {"op": "register_ack", "rid": rid, "service_id": description.service_id,
             "lease_s": lease},
        )

    def _handle_renew(self, source: Address, rid: Any, message: Dict[str, Any]) -> None:
        service_id = message["service_id"]
        registration = self._registrations.get(service_id)
        ok = registration is not None
        if registration is not None:
            lease = self._grant_lease(message.get("lease_s"))
            registration.expires_at = self.transport.scheduler.now() + lease
            self._replicate(message)
            self.events.emit("renewed", registration.description)
        self._reply(source, {"op": "renew_ack", "rid": rid, "ok": ok})

    def _handle_unregister(self, source: Address, rid: Any, message: Dict[str, Any]) -> None:
        registration = self._registrations.pop(message["service_id"], None)
        if registration is not None:
            self._replicate(message)
        if registration is not None:
            self.events.emit("unregistered", registration.description)
        self._reply(
            source,
            {"op": "unregister_ack", "rid": rid, "removed": registration is not None},
        )

    def _handle_lookup(self, source: Address, rid: Any, message: Dict[str, Any]) -> None:
        query = Query.from_dict(message["query"])
        matches = self._matcher.match(self.registered_services(), query)
        self.lookups_served += 1
        self._reply(
            source,
            {
                "op": "lookup_ack",
                "rid": rid,
                "results": [m.description.to_dict() for m in matches],
            },
        )


class RegistryClient:
    """A node's handle onto the central registry."""

    def __init__(
        self,
        transport: Transport,
        registry_address: Address,
        codec: Optional[Codec] = None,
        request_timeout_s: float = 2.0,
        retries: int = 2,
    ):
        self.transport = transport
        self.registry_address = registry_address
        self.codec = codec if codec is not None else get_codec("binary")
        self.request_timeout_s = request_timeout_s
        self.retries = retries
        self._rids = IdGenerator(f"reg:{transport.local_address}")
        # rid -> (promise, request frame, retries left). Requests are
        # retransmitted on timeout because the transport below may be lossy;
        # server operations are idempotent, so duplicates are harmless. The
        # frame is lazy: it encodes at most once across all retransmissions.
        self._pending: Dict[str, Tuple[Promise, WireFrame, int]] = {}
        self.timeouts = 0
        self.retransmissions = 0
        self._auto_renew: Dict[str, float] = {}  # service_id -> lease_s
        transport.receive_messages(self.codec, self._on_message)

    # --------------------------------------------------------------- sending

    def _request(self, message: Dict[str, Any]) -> Promise:
        rid = self._rids.next()
        message["rid"] = rid
        promise: Promise = Promise()
        encoded = WireFrame(message, self.codec)
        self._pending[rid] = (promise, encoded, self.retries)
        self.transport.send(self.registry_address, encoded)
        self.transport.scheduler.schedule(self.request_timeout_s, self._timeout, rid)
        return promise

    def _timeout(self, rid: str) -> None:
        entry = self._pending.get(rid)
        if entry is None:
            return
        promise, encoded, retries_left = entry
        if retries_left > 0:
            self.retransmissions += 1
            self._pending[rid] = (promise, encoded, retries_left - 1)
            self.transport.send(self.registry_address, encoded)
            self.transport.scheduler.schedule(self.request_timeout_s, self._timeout, rid)
            return
        del self._pending[rid]
        self.timeouts += 1
        promise.reject(DiscoveryError(f"registry request {rid} timed out"))

    def _on_message(self, source: Address, message: Dict[str, Any]) -> None:
        rid = message.get("rid")
        if not isinstance(rid, str):
            return
        entry = self._pending.pop(rid, None)
        if entry is None:
            return
        promise, _encoded, _retries = entry
        promise.fulfill(message)

    # ------------------------------------------------------------ operations

    def register(
        self,
        description: ServiceDescription,
        lease_s: float = DEFAULT_LEASE_S,
        auto_renew: bool = True,
    ) -> Promise:
        """Register a service; with ``auto_renew`` the lease is kept alive
        until :meth:`unregister` is called. Fulfills with the granted lease."""
        promise = self._request(
            {"op": "register", "desc": description.to_dict(), "lease_s": lease_s}
        )

        def arm_renewal(settled: Promise) -> None:
            if settled.rejected or not auto_renew:
                return
            granted = settled.result().get("lease_s", lease_s)
            self._auto_renew[description.service_id] = granted
            self._schedule_renew(description.service_id, granted)

        promise.on_settle(arm_renewal)
        return promise

    def _schedule_renew(self, service_id: str, lease_s: float) -> None:
        self.transport.scheduler.schedule(
            lease_s * 0.5, self._renew_if_active, service_id
        )

    def _renew_if_active(self, service_id: str) -> None:
        lease_s = self._auto_renew.get(service_id)
        if lease_s is None or self.transport.closed:
            return
        self._request({"op": "renew", "service_id": service_id, "lease_s": lease_s})
        self._schedule_renew(service_id, lease_s)

    def renew(self, service_id: str, lease_s: float = DEFAULT_LEASE_S) -> Promise:
        return self._request({"op": "renew", "service_id": service_id, "lease_s": lease_s})

    def unregister(self, service_id: str) -> Promise:
        self._auto_renew.pop(service_id, None)
        return self._request({"op": "unregister", "service_id": service_id})

    def lookup(self, query: Query) -> Promise:
        """Find services; fulfills with a list of :class:`ServiceDescription`.

        The server filters hard constraints; the client re-ranks locally
        with the full consumer QoS (including benefit and spatial terms).
        """
        span: Any = NOOP_SPAN
        if TRACER.enabled:
            span = TRACER.span(
                "discovery.lookup",
                node=self.transport.local_address.node,
                service_type=query.service_type,
            )
        with TRACER.activate(span):
            promise = self._request({"op": "lookup", "query": query.to_dict()})
        results: Promise = Promise()

        def unpack(settled: Promise) -> None:
            if settled.rejected:
                span.set_label(outcome="failed")
                span.finish()
                results.reject(settled.error())  # type: ignore[arg-type]
                return
            descriptions = [
                ServiceDescription.from_dict(raw)
                for raw in settled.result().get("results", [])
            ]
            matcher = Matcher()
            ranked = matcher.match(descriptions, query)
            span.set_label(outcome="ok", matches=len(ranked))
            span.finish()
            results.fulfill([m.description for m in ranked])

        promise.on_settle(unpack)
        return results
