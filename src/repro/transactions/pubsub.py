"""Event-based publish/subscribe.

The event middleware of the literature review ([67, 68]): publishers emit
events on dot-separated topics (``"patient.bp.alarm"``); subscribers give
topic patterns where ``*`` matches one segment and ``#`` matches any
remaining suffix, optionally with content filters over dict-valued events.
The broker fans out; neither side knows the other — Section 3.10's
"the middleware should react to events from all system components".

Protocol (codec dicts)::

    sub:   {"op": "sub", "rid": id, "pattern": p [, "filters": [...]]}
    unsub: {"op": "unsub", "pattern": p}
    pub:   {"op": "pub", "topic": t, "event": v}
    event: {"op": "event", "topic": t, "event": v, "pattern": p}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.discovery.matching import AttributeConstraint
from repro.errors import ConfigurationError
from repro.interop.codec import Codec, get_codec
from repro.transport.base import Address, Transport
from repro.util.ids import IdGenerator
from repro.util.promise import Promise


def topic_matches(pattern: str, topic: str) -> bool:
    """Match ``a.*.c`` / ``a.#`` patterns against a concrete topic."""
    if not pattern or not topic:
        return False
    pattern_parts = pattern.split(".")
    topic_parts = topic.split(".")
    for i, part in enumerate(pattern_parts):
        if part == "#":
            return True
        if i >= len(topic_parts):
            return False
        if part != "*" and part != topic_parts[i]:
            return False
    return len(pattern_parts) == len(topic_parts)


def _content_matches(filters: List[Dict[str, str]], event: Any) -> bool:
    """Apply attribute constraints to dict events (non-dicts fail filters)."""
    if not filters:
        return True
    if not isinstance(event, dict):
        return False
    attributes = {k: str(v) for k, v in event.items()}
    return all(
        AttributeConstraint.from_dict(f).matches(attributes) for f in filters
    )


@dataclass
class _Subscription:
    subscriber: Address
    pattern: str
    filters: List[Dict[str, str]] = field(default_factory=list)


class PubSubBroker:
    """The event dispatcher process."""

    def __init__(self, transport: Transport, codec: Optional[Codec] = None):
        self.transport = transport
        self.codec = codec if codec is not None else get_codec("binary")
        self._subscriptions: List[_Subscription] = []
        self.events_published = 0
        self.events_delivered = 0
        transport.receive_messages(self.codec, self._on_message)

    def subscription_count(self) -> int:
        return len(self._subscriptions)

    def _on_message(self, source: Address, message: Dict[str, Any]) -> None:
        op = message.get("op")
        if op == "sub":
            self._subscriptions.append(
                _Subscription(source, message["pattern"], message.get("filters", []))
            )
            self.transport.send(
                source, self.codec.encode({"op": "sub_ack", "rid": message.get("rid")})
            )
        elif op == "unsub":
            self._subscriptions = [
                s
                for s in self._subscriptions
                if not (s.subscriber == source and s.pattern == message["pattern"])
            ]
        elif op == "pub":
            self._fan_out(message["topic"], message["event"])

    def _fan_out(self, topic: str, event: Any) -> None:
        self.events_published += 1
        for subscription in self._subscriptions:
            if not topic_matches(subscription.pattern, topic):
                continue
            if not _content_matches(subscription.filters, event):
                continue
            self.events_delivered += 1
            self.transport.send(
                subscription.subscriber,
                self.codec.encode(
                    {"op": "event", "topic": topic, "event": event,
                     "pattern": subscription.pattern}
                ),
            )


EventHandler = Callable[[str, Any], None]  # (topic, event)


class PubSubClient:
    """A publisher/subscriber handle onto the broker."""

    def __init__(
        self,
        transport: Transport,
        broker_address: Address,
        codec: Optional[Codec] = None,
        request_timeout_s: float = 2.0,
    ):
        self.transport = transport
        self.broker_address = broker_address
        self.codec = codec if codec is not None else get_codec("binary")
        self.request_timeout_s = request_timeout_s
        self._rids = IdGenerator(f"ps:{transport.local_address}")
        self._pending: Dict[str, Promise] = {}
        self._handlers: Dict[str, Tuple[EventHandler, List[Dict[str, str]]]] = {}
        self.events_received = 0
        transport.receive_messages(self.codec, self._on_message)

    def subscribe(
        self,
        pattern: str,
        handler: EventHandler,
        filters: Optional[List[AttributeConstraint]] = None,
    ) -> Promise:
        """Subscribe to a topic pattern with optional content filters."""
        if pattern in self._handlers:
            raise ConfigurationError(f"already subscribed to {pattern!r}")
        raw_filters = [f.to_dict() for f in (filters or [])]
        self._handlers[pattern] = (handler, raw_filters)
        rid = self._rids.next()
        promise: Promise = Promise()
        self._pending[rid] = promise
        self.transport.send(
            self.broker_address,
            self.codec.encode(
                {"op": "sub", "rid": rid, "pattern": pattern, "filters": raw_filters}
            ),
        )
        self.transport.scheduler.schedule(self.request_timeout_s, self._timeout, rid)
        return promise

    def unsubscribe(self, pattern: str) -> None:
        self._handlers.pop(pattern, None)
        self.transport.send(
            self.broker_address,
            self.codec.encode({"op": "unsub", "pattern": pattern}),
        )

    def publish(self, topic: str, event: Any) -> None:
        """Emit an event; fire-and-forget, as events are."""
        self.transport.send(
            self.broker_address,
            self.codec.encode({"op": "pub", "topic": topic, "event": event}),
        )

    def _timeout(self, rid: str) -> None:
        promise = self._pending.pop(rid, None)
        if promise is not None:
            from repro.errors import DeliveryError

            promise.reject(DeliveryError(f"broker request {rid} timed out"))

    def _on_message(self, source: Address, message: Dict[str, Any]) -> None:
        op = message.get("op")
        if op == "event":
            entry = self._handlers.get(message.get("pattern", ""))
            if entry is not None:
                handler, _filters = entry
                self.events_received += 1
                handler(message["topic"], message["event"])
            return
        promise = self._pending.pop(message.get("rid"), None)
        if promise is not None:
            promise.fulfill(message)
