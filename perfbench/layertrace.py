"""Exclusive per-layer host time, measured from outside the program.

The tracer never edits ``repro``: it wraps the public functions the layers
are called through, and only while :meth:`LayerTracer.install` is active:

* callbacks passed to ``Simulator.schedule``, ``schedule_at`` and
  ``call_later`` (each one a span), with ``Simulator.run_until`` as the
  root span;
* receivers passed to ``Transport.set_receiver``, and ``Transport.send``;
* ``BinaryCodec.encode``, ``decode`` and ``encoded_size``;
* ``WirelessMedium.transmit`` and ``AdmissionController.try_admit``.

A span is charged to the layer of its callee's ``repro.<package>``
(``repro.transactions`` is split into ``tuplespace`` and ``rpc``; codec
calls are ``interop.encode``/``.decode``/``.size``). Its self time is its
duration minus its child spans' durations, so the layer times add up to
the traced time instead of charging the whole receive stack to the
medium's delivery callback.

Spans stay in memory in flat arrays (start, end, layer, name, parent) and
can be written out as a Chrome trace-event file.
"""

from __future__ import annotations

import functools
import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: Layers that count as "named" when the traced time is attributed; any
#: other span lands in ``trace.unattributed_s``.
NAMED_LAYERS = (
    "netsim", "interop.encode", "interop.decode", "interop.size", "interop",
    "transport", "tuplespace", "rpc", "transactions", "replication",
    "recovery", "qos.admission", "qos", "workloads",
)


def layer_of_module(module: str) -> str:
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "transactions" and len(parts) > 2:
        if parts[2] in ("tuplespace", "rpc"):
            return parts[2]
    return parts[1]


class LayerTracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.names: List[str] = []
        self._fn_ids: Dict[Any, Tuple[int, int]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self.reset()

    # ------------------------------------------------------------ spans

    def reset(self) -> None:
        """Forget every span and count (between traced repetitions)."""
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.self_s = [0.0] * len(self.layers)
        self.span_calls = [0] * len(self.layers)
        self._stack: List[int] = []
        self._child: List[float] = []
        self.sends = 0
        self.sent_bytes = 0
        self.match_calls = 0
        self.match_hits = 0

    def _layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_s.append(0.0)
            self.span_calls.append(0)
        return lid

    def _name_id(self, label: str) -> int:
        self.names.append(label)
        return len(self.names) - 1

    def _ids_for(self, fn: Any) -> Tuple[int, int]:
        """(layer id, name id) of a callback, cached per code object so
        per-request closures do not grow the name table."""
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", None) or type(fn)
        ids = self._fn_ids.get(key)
        if ids is None:
            module = (getattr(func, "__module__", None)
                      or type(fn).__module__)
            label = (getattr(func, "__qualname__", None)
                     or type(fn).__qualname__)
            ids = self._fn_ids[key] = (
                self._layer_id(layer_of_module(module)),
                self._name_id(f"{module}.{label}"),
            )
        return ids

    def span(self, lid: int, nid: int, fn: Callable, *args: Any,
             **kwargs: Any) -> Any:
        stack = self._stack
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.layer.append(lid)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        stack.append(idx)
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            child = self._child.pop()
            duration = t1 - t0
            self.self_s[lid] += duration - child
            self.span_calls[lid] += 1
            if self._child:
                self._child[-1] += duration
            self.start[idx] = t0
            self.end[idx] = t1

    def traced_callback(self, fn: Callable) -> Callable:
        lid, nid = self._ids_for(fn)
        span = self.span

        def traced(*args: Any) -> Any:
            return span(lid, nid, fn, *args)

        return traced

    # --------------------------------------------------------- patching

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_method(self, owner: Any, attr: str, layer: str) -> None:
        original = getattr(owner, attr)
        lid = self._layer_id(layer)
        nid = self._name_id(f"{owner.__module__}.{owner.__name__}.{attr}")
        span = self.span

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return span(lid, nid, original, *args, **kwargs)

        functools.update_wrapper(wrapper, original)
        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer entry points (class attributes, process-wide)."""
        from repro.interop.codec import BinaryCodec
        from repro.netsim.medium import WirelessMedium
        from repro.netsim.simulator import Simulator
        from repro.qos.admission import AdmissionController
        from repro.transactions import tuplespace
        from repro.transport.base import Transport

        tracer = self

        def wrap_scheduler(attr: str) -> None:
            original = getattr(Simulator, attr)

            def schedule(sim, when, fn, *args):
                return original(sim, when, tracer.traced_callback(fn), *args)

            functools.update_wrapper(schedule, original)
            self._patch(Simulator, attr, schedule)

        for attr in ("schedule", "schedule_at", "call_later"):
            wrap_scheduler(attr)
        self._wrap_method(Simulator, "run_until", "netsim")
        self._wrap_method(WirelessMedium, "transmit", "netsim")
        self._wrap_method(BinaryCodec, "encode", "interop.encode")
        self._wrap_method(BinaryCodec, "decode", "interop.decode")
        self._wrap_method(BinaryCodec, "encoded_size", "interop.size")
        self._wrap_method(AdmissionController, "try_admit", "qos.admission")

        original_set_receiver = Transport.set_receiver

        def set_receiver(transport, receiver):
            if receiver is not None:
                receiver = tracer.traced_callback(receiver)
            return original_set_receiver(transport, receiver)

        functools.update_wrapper(set_receiver, original_set_receiver)
        self._patch(Transport, "set_receiver", set_receiver)

        original_send = Transport.send
        send_lid = self._layer_id("transport")
        send_nid = self._name_id("repro.transport.base.Transport.send")
        span = self.span

        def send(transport, destination, payload):
            # The transport's own byte counter, so the frame is never
            # sized a second time on the tracer's behalf.
            before = transport.sent_bytes
            try:
                return span(send_lid, send_nid, original_send, transport,
                            destination, payload)
            finally:
                tracer.sends += 1
                tracer.sent_bytes += transport.sent_bytes - before

        functools.update_wrapper(send, original_send)
        self._patch(Transport, "send", send)

        # Counted, not timed: one span per match would swamp the store.
        original_match = tuplespace.template_matches

        def template_matches(template, candidate):
            hit = original_match(template, candidate)
            tracer.match_calls += 1
            if hit:
                tracer.match_hits += 1
            return hit

        self._patch(tuplespace, "template_matches", template_matches)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- report

    def layer_self_s(self) -> Dict[str, float]:
        return {layer: self.self_s[i] for i, layer in enumerate(self.layers)}

    def layer_spans(self) -> Dict[str, int]:
        return {layer: self.span_calls[i]
                for i, layer in enumerate(self.layers)}

    def write_chrome_trace(self, path: Path, process: str,
                           max_spans: int) -> int:
        """Write the first ``max_spans`` spans (in start order, so every
        written span's ancestors are written too); returns the count."""
        count = min(len(self.start), max_spans)
        origin = self.start[0] if count else 0.0
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": process}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "host"}},
        ]
        for i in range(count):
            layer = self.layers[self.layer[i]]
            args: Dict[str, Any] = {"span": i, "layer": layer}
            if self.parent[i] >= 0:
                args["parent"] = self.parent[i]
            events.append({
                "name": self.names[self.name[i]],
                "cat": layer,
                "ph": "X",
                "ts": round((self.start[i] - origin) * 1e6, 3),
                "dur": round((self.end[i] - self.start[i]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        trace = {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": {"spans_total": len(self.start),
                               "spans_written": count}}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(trace, separators=(",", ":")) + "\n")
        return count
