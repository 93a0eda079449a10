"""Linda-style tuple space.

The shared-memory/tuple-space middleware of the literature review ([69, 70];
LIME [68, 100] is the authors' own lineage). A tuple is a list of values; a
template is a list where ``None`` matches anything and a type-name string
like ``"?int"`` matches any value of that type. Operations:

* ``out(tuple)`` — write;
* ``rd(template)`` / ``in_(template)`` — blocking read / take (the promise
  settles when a match appears);
* ``rdp(template)`` / ``inp(template)`` — non-blocking probes (fulfill with
  the tuple or None immediately).

Blocked readers are served in arrival order; a single ``out`` wakes every
matching ``rd`` but only the first matching ``in``.

Protocol (codec dicts): ``{"op": out|rd|in|rdp|inp, "rid", "tuple"|"template"}``
answered by ``{"op": "tuple", "rid", "tuple": t or None}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.interop.codec import Codec, get_codec
from repro.transport.base import Address, Transport
from repro.util.ids import IdGenerator
from repro.util.promise import Promise

_TYPE_NAMES = {
    "?int": int,
    "?float": float,
    "?str": str,
    "?bool": bool,
    "?bytes": bytes,
    "?list": list,
    "?dict": dict,
}


def template_matches(template: List[Any], candidate: List[Any]) -> bool:
    """Match a template against a tuple."""
    if len(template) != len(candidate):
        return False
    for pattern, value in zip(template, candidate):
        if pattern is None:
            continue
        if isinstance(pattern, str) and pattern in _TYPE_NAMES:
            expected = _TYPE_NAMES[pattern]
            if expected in (int, float) and isinstance(value, bool):
                return False
            if not isinstance(value, expected):
                return False
            continue
        if pattern != value:
            return False
    return True


@dataclass
class _Waiter:
    source: Address
    rid: Any
    template: List[Any]
    destructive: bool


class TupleSpaceServer:
    """The space itself."""

    def __init__(self, transport: Transport, codec: Optional[Codec] = None):
        self.transport = transport
        self.codec = codec if codec is not None else get_codec("binary")
        self._tuples: List[List[Any]] = []
        self._waiters: List[_Waiter] = []
        self.outs = 0
        self.takes = 0
        self.reads = 0
        transport.receive_messages(self.codec, self._on_message)

    def __len__(self) -> int:
        return len(self._tuples)

    def snapshot(self) -> List[List[Any]]:
        return [list(t) for t in self._tuples]

    # -------------------------------------------------------------- protocol

    def _on_message(self, source: Address, message: Dict[str, Any]) -> None:
        op = message.get("op")
        rid = message.get("rid")
        if op == "out":
            self._handle_out(list(message["tuple"]))
            if rid is not None:
                self._answer(source, rid, list(message["tuple"]))
        elif op in ("rd", "in"):
            self._handle_blocking(source, rid, list(message["template"]), op == "in")
        elif op in ("rdp", "inp"):
            self._handle_probe(source, rid, list(message["template"]), op == "inp")

    def _answer(self, destination: Address, rid: Any, value: Optional[List[Any]]) -> None:
        self.transport.send(
            destination, self.codec.encode({"op": "tuple", "rid": rid, "tuple": value})
        )

    def _handle_out(self, new_tuple: List[Any]) -> None:
        self.outs += 1
        # Wake matching waiters: every rd, at most one in (which consumes).
        consumed = False
        remaining: List[_Waiter] = []
        for waiter in self._waiters:
            if consumed and waiter.destructive:
                remaining.append(waiter)
                continue
            if template_matches(waiter.template, new_tuple):
                self._answer(waiter.source, waiter.rid, new_tuple)
                if waiter.destructive:
                    self.takes += 1
                    consumed = True
                else:
                    self.reads += 1
            else:
                remaining.append(waiter)
        self._waiters = remaining
        if not consumed:
            self._tuples.append(new_tuple)

    def _find(self, template: List[Any]) -> Optional[int]:
        for i, candidate in enumerate(self._tuples):
            if template_matches(template, candidate):
                return i
        return None

    def _handle_blocking(
        self, source: Address, rid: Any, template: List[Any], destructive: bool
    ) -> None:
        index = self._find(template)
        if index is None:
            self._waiters.append(_Waiter(source, rid, template, destructive))
            return
        matched = self._tuples[index]
        if destructive:
            self.takes += 1
            del self._tuples[index]
        else:
            self.reads += 1
        self._answer(source, rid, matched)

    def _handle_probe(
        self, source: Address, rid: Any, template: List[Any], destructive: bool
    ) -> None:
        index = self._find(template)
        if index is None:
            self._answer(source, rid, None)
            return
        matched = self._tuples[index]
        if destructive:
            self.takes += 1
            del self._tuples[index]
        else:
            self.reads += 1
        self._answer(source, rid, matched)


class TupleSpaceClient:
    """A handle onto a tuple-space server."""

    def __init__(
        self,
        transport: Transport,
        space_address: Address,
        codec: Optional[Codec] = None,
    ):
        self.transport = transport
        self.space_address = space_address
        self.codec = codec if codec is not None else get_codec("binary")
        self._rids = IdGenerator(f"ts:{transport.local_address}")
        self._pending: Dict[str, Promise] = {}
        transport.receive_messages(self.codec, self._on_message)

    def _request(self, message: Dict[str, Any]) -> Promise:
        rid = self._rids.next()
        message["rid"] = rid
        promise: Promise = Promise()
        self._pending[rid] = promise
        self.transport.send(self.space_address, self.codec.encode(message))
        return promise

    def out(self, *values: Any, confirm: bool = False) -> Optional[Promise]:
        """Write a tuple. Fire-and-forget unless ``confirm``."""
        if confirm:
            return self._request({"op": "out", "tuple": list(values)})
        self.transport.send(
            self.space_address,
            self.codec.encode({"op": "out", "tuple": list(values)}),
        )
        return None

    def rd(self, *template: Any) -> Promise:
        """Blocking read: fulfills (possibly much later) with a matching tuple."""
        return self._request({"op": "rd", "template": list(template)})

    def in_(self, *template: Any) -> Promise:
        """Blocking take: like rd but removes the tuple."""
        return self._request({"op": "in", "template": list(template)})

    def rdp(self, *template: Any) -> Promise:
        """Probe read: fulfills immediately with the tuple or None."""
        return self._request({"op": "rdp", "template": list(template)})

    def inp(self, *template: Any) -> Promise:
        """Probe take: fulfills immediately with the tuple or None."""
        return self._request({"op": "inp", "template": list(template)})

    def _on_message(self, source: Address, message: Dict[str, Any]) -> None:
        promise = self._pending.pop(message.get("rid"), None)
        if promise is not None:
            promise.fulfill(message.get("tuple"))
