"""Async memcached client over a pipelined connection or pool.

The coroutine twin of :class:`repro.protocol.memclient.MemcachedConnection`
with the same policy split: *idempotent* operations (retrieval, plain
``set``, ``delete``) retry under the attached
:class:`repro.protocol.retry.RetryPolicy`; everything else runs
single-shot.  ``SERVER_ERROR busy`` surfaces as
:class:`repro.errors.ServerBusy` inside the retried callable, so
backpressure sheds ride the same bounded-backoff schedule as transient
connection faults (docs/OVERLOAD.md).
"""

from __future__ import annotations

from repro.errors import ProtocolError, ServerBusy
from repro.protocol.codec import Command, encode_command
from repro.protocol.retry import RetryPolicy, async_call_with_retries


class AsyncMemcachedClient:
    """Typed async get/set/delete over one server's transport.

    ``transport`` is anything with ``async exchange(request, n)`` —
    an :class:`repro.aio.transport.AsyncConnection` or an
    :class:`repro.aio.transport.AsyncConnectionPool`.
    """

    def __init__(
        self,
        transport,
        *,
        policy: RetryPolicy | None = None,
        rng=None,
        sleep=None,
    ):
        self.transport = transport
        self.policy = policy
        self.rng = rng
        self.sleep = sleep  # None -> asyncio.sleep (injectable for tests)
        self.transactions = 0
        self.retries = 0

    async def _exchange_checked(self, payload: bytes):
        responses = await self.transport.exchange(payload)
        for resp in responses:
            if resp.status == "SERVER_ERROR busy":
                raise ServerBusy(f"{resp.status} (server shed the transaction)")
        return responses

    async def _exchange_idempotent(self, payload: bytes):
        if self.policy is None:
            return await self._exchange_checked(payload)

        def _count(attempt, exc):
            self.retries += 1

        return await async_call_with_retries(
            lambda: self._exchange_checked(payload),
            self.policy,
            rng=self.rng,
            sleep=self.sleep,
            on_retry=_count,
        )

    # -- retrieval -------------------------------------------------------

    async def get_multi(
        self, keys, *, with_cas: bool = False, raw: bool = False
    ) -> dict:
        """Fetch many keys in ONE transaction (missing keys absent).

        VALUE bodies are parsed zero-copy off the connection's receive
        buffer and materialised to ``bytes`` here by default; ``raw=True``
        returns the memoryview slices themselves (no per-item copy —
        see :meth:`repro.protocol.memclient.MemcachedConnection.get_multi`).
        """
        keys = tuple(keys)
        if not keys:
            return {}
        [resp] = await self._exchange_idempotent(
            encode_command("gets" if with_cas else "get", keys)
        )
        if resp.status != "END":
            raise ProtocolError(f"unexpected retrieval status: {resp.status}")
        self.transactions += 1
        if raw:
            if with_cas:
                return {k: (v[1], v[2]) for k, v in resp.values.items()}
            return {k: v[1] for k, v in resp.values.items()}
        if with_cas:
            return {k: (bytes(v[1]), v[2]) for k, v in resp.values.items()}
        return {k: bytes(v[1]) for k, v in resp.values.items()}

    async def get(self, key: str) -> bytes | None:
        return (await self.get_multi([key])).get(key)

    # -- storage ------------------------------------------------------------

    async def set(
        self, key: str, value: bytes, *, flags: int = 0, exptime: int = 0
    ) -> bool:
        # plain set is idempotent (last-writer-wins), so it may retry
        [resp] = await self._exchange_idempotent(
            encode_command(
                Command(name="set", keys=(key,), flags=flags, exptime=exptime, data=value)
            )
        )
        self.transactions += 1
        return resp.status == "STORED"

    async def delete(self, key: str) -> bool:
        [resp] = await self._exchange_checked(
            encode_command(Command(name="delete", keys=(key,)))
        )
        self.transactions += 1
        return resp.status == "DELETED"

    async def flush_all(self) -> None:
        [resp] = await self._exchange_checked(
            encode_command(Command(name="flush_all"))
        )
        if resp.status != "OK":
            raise ProtocolError(f"flush_all failed: {resp.status}")

    async def stats(self, arg: str = "") -> dict:
        """The server's ``stats`` report; ``arg`` selects a sub-report
        (``"metrics"`` returns Prometheus-style telemetry samples)."""
        keys = (arg,) if arg else ()
        [resp] = await self._exchange_checked(
            encode_command(Command(name="stats", keys=keys))
        )
        if resp.status.startswith(("CLIENT_ERROR", "SERVER_ERROR")):
            raise ProtocolError(f"stats {arg!r} failed: {resp.status}")
        return dict(resp.stats)

    def close(self) -> None:
        self.transport.close()
