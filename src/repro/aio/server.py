"""Asyncio front for the memcached server (docs/SERVING.md).

:class:`AsyncMemcachedServer` serves the *same*
:class:`repro.protocol.memserver.MemcachedServer` backend as the
threaded ``serve_tcp`` front, over ``asyncio`` streams: one lightweight
reader task per connection instead of one OS thread, so a single process
holds tens of thousands of concurrent connections — the regime the
open-loop load generator (:mod:`repro.loadgen`) drives.

Properties the async front preserves from the threaded one:

* **shared storage** — the backend's lock still serialises command
  execution, so a threaded front, an async front and in-process
  loopback callers can all serve the same byte-accounted LRU at once;
* **pipelining** — a connection may send many commands before reading
  any response; responses come back in request order (the memcached
  contract the pipelined :class:`repro.aio.transport.AsyncConnection`
  relies on);
* **admission verdicts** — an attached
  :class:`repro.overload.load.AdmissionControl` sheds ``get``
  transactions with ``SERVER_ERROR busy`` exactly as before; the
  verdict stays retryable end-to-end (docs/OVERLOAD.md).

Two ways to run it: ``await server.start()`` inside an existing event
loop (the load generator does this), or :func:`serve_aio` which owns a
background thread + loop for synchronous callers (tests, examples) and
mirrors :func:`repro.protocol.memserver.serve_tcp`'s return shape.
"""

from __future__ import annotations

import asyncio
import threading

from repro.errors import ProtocolError
from repro.protocol import codec
from repro.protocol.codec import CRLF
from repro.protocol.memserver import MemcachedServer


class AsyncMemcachedServer:
    """Asyncio TCP front for a :class:`MemcachedServer` backend."""

    def __init__(
        self,
        backend: MemcachedServer | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        gate=None,
    ) -> None:
        self.backend = backend if backend is not None else MemcachedServer()
        self.host = host
        self.port = port
        #: optional link gate ``gate() -> bool`` — True means the path to
        #: this server is currently *cut* (a nemesis blackout window, see
        #: docs/PARTITIONS.md): new connections are refused and live ones
        #: are dropped before the next command batch, which is how a
        #: loopback fleet imitates a network partition without touching
        #: the kernel.  None (the default) never blocks.
        self.gate = gate
        self._server: asyncio.AbstractServer | None = None
        #: connections accepted over this front's lifetime
        self.connections_accepted = 0
        #: connections refused or dropped by the link gate
        self.connections_refused = 0

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address.

        ``port=0`` picks a free port, mirroring ``serve_tcp``.
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: parse pipelined commands, answer in order.

        Command *execution* is synchronous (the backend is an in-memory
        dict behind a lock), so responses are computed inline and the
        loop yields at the socket reads/writes — the same cooperative
        shape AppScale's datastore servers use for their memcache path.
        """
        if self.gate is not None and self.gate():
            self.connections_refused += 1
            try:
                writer.close()
            except (OSError, RuntimeError):  # pragma: no cover - teardown race
                pass
            return
        self.connections_accepted += 1
        frames = codec.FrameBuffer()
        try:
            while True:
                if self.gate is not None and self.gate():
                    # the link was cut mid-connection: drop it without a
                    # response, exactly what a partitioned TCP peer sees
                    self.connections_refused += 1
                    return
                chunk = await reader.read(65536)
                if not chunk:
                    return
                frames.feed(chunk)
                try:
                    commands = frames.next_commands()
                except ProtocolError:
                    writer.write(b"ERROR" + CRLF)
                    await writer.drain()
                    return
                if not commands:
                    continue
                out = b"".join([self.backend.execute(cmd) for cmd in commands])
                if out:
                    writer.write(out)
                    await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away / server shutting down
        finally:
            try:
                writer.close()
            except (OSError, RuntimeError):  # pragma: no cover - teardown race
                pass


class AioServerHandle:
    """A running async server on a background thread (sync-caller API).

    Returned by :func:`serve_aio`; ``handle.address`` is the bound
    ``(host, port)`` and ``handle.stop()`` tears everything down.
    """

    def __init__(self, server: AsyncMemcachedServer):
        self.server = server
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def _main() -> None:
            self.address = await self.server.start()
            self._started.set()

        self._loop.run_until_complete(_main())
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def start(self) -> "AioServerHandle":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):  # pragma: no cover - startup hang
            raise RuntimeError("async server failed to start within 10s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)


def serve_aio(
    backend: MemcachedServer | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[AioServerHandle, tuple[str, int]]:
    """Start an async front on a background thread (sync-caller helper).

    Returns ``(handle, (host, port))``; call ``handle.stop()`` to stop.
    The signature mirrors :func:`repro.protocol.memserver.serve_tcp`, so
    sync tests exercise both fronts through one fixture shape.
    """
    handle = AioServerHandle(AsyncMemcachedServer(backend, host=host, port=port))
    handle.start()
    assert handle.address is not None
    return handle, handle.address
