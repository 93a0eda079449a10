"""Channel multiplexing over one transport endpoint.

A :class:`Multiplexer` wraps a transport and hands out named
:class:`ChannelTransport` views. Each middleware service (discovery, RPC,
pub/sub, ...) gets its own channel without consuming another port on the
fabric. Frames carry a length-prefixed channel name::

    u16 name length (big-endian) + name utf-8 + payload
"""

from __future__ import annotations

import struct
from typing import Dict

from repro.errors import ConfigurationError
from repro.interop.frames import PrefixedFrame, is_frame
from repro.transport.base import Address, Scheduler, Transport

_LEN = struct.Struct(">H")


class Multiplexer:
    """Demultiplexes channel frames arriving on the wrapped transport.

    Malformed frames (truncated header or name, undecodable name) are
    counted on the wrapped endpoint and dropped rather than raised — a
    raise here would unwind the simulator event loop and abort the whole
    run.
    """

    def __init__(self, inner: Transport):
        self.inner = inner
        self._channels: Dict[str, "ChannelTransport"] = {}
        inner.set_receiver(self._on_frame)

    def channel(self, name: str) -> "ChannelTransport":
        """Create (once) and return the channel named ``name``."""
        if not name:
            raise ConfigurationError("channel name must be non-empty")
        if len(name.encode("utf-8")) > 0xFFFF:
            raise ConfigurationError(f"channel name too long: {name[:32]!r}...")
        if name in self._channels:
            return self._channels[name]
        channel = ChannelTransport(self.inner.local_address, self, name)
        self._channels[name] = channel
        return channel

    def _transmit(self, name: str, destination: Address, payload: bytes) -> None:
        encoded = name.encode("utf-8")
        header = _LEN.pack(len(encoded)) + encoded
        if is_frame(payload):
            # Keep a lazy payload lazy: the header rides as a prefix and the
            # receiving multiplexer peels it off by reference.
            self.inner.send(destination, PrefixedFrame(header, payload))
            return
        self.inner.send(destination, header + payload)

    def _on_frame(self, source: Address, frame: bytes) -> None:
        body = None
        if isinstance(frame, PrefixedFrame):
            prefix = frame.prefix
            if (len(prefix) >= _LEN.size
                    and _LEN.size + _LEN.unpack_from(prefix, 0)[0] == len(prefix)):
                # The prefix is exactly our header (the sending mux's shape):
                # peel it off by reference, the body stays lazy.
                frame, body = prefix, frame.body
            else:
                frame = bytes(frame)
        elif not isinstance(frame, (bytes, bytearray)):
            frame = bytes(frame)
        if len(frame) < _LEN.size:
            self.inner.drop_malformed(source, "truncated header")
            return
        (name_length,) = _LEN.unpack_from(frame, 0)
        header_end = _LEN.size + name_length
        if len(frame) < header_end:
            self.inner.drop_malformed(source, "truncated channel name")
            return
        try:
            name = frame[_LEN.size:header_end].decode("utf-8")
        except UnicodeDecodeError:
            self.inner.drop_malformed(source, "channel name is not UTF-8")
            return
        channel = self._channels.get(name)
        if channel is None or channel.closed:
            return  # no listener on this channel: drop, like an unbound port
        if body is None:
            body = frame[header_end:]
        channel._dispatch(source, body)

    def close(self) -> None:
        for channel in self._channels.values():
            Transport.close(channel)
        self.inner.close()


class ChannelTransport(Transport):
    """A named channel view over a multiplexer; behaves as a Transport."""

    def __init__(self, local: Address, mux: Multiplexer, name: str):
        super().__init__(local)
        self._mux = mux
        self.name = name

    @property
    def scheduler(self) -> Scheduler:
        return self._mux.inner.scheduler

    def _send(self, destination: Address, payload: bytes) -> None:
        self._mux._transmit(self.name, destination, payload)
