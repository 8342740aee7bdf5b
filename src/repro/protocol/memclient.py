"""Plain memcached clients over a transport.

:class:`MemcachedConnection` wraps one transport with typed get/set/cas
methods.  :class:`ShardedClient` is the classic memcached client the
paper's section II describes: a consistent-hash ring routes each key to
one server, and a multi-get is split into one transaction per contacted
server — it exhibits the multi-get hole and is the protocol-level
baseline for :class:`repro.protocol.rnbclient.RnBProtocolClient`.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.errors import ProtocolError, ServerBusy
from repro.hashing.hashring import ConsistentHashRing
from repro.protocol.codec import Command, encode_command
from repro.protocol.retry import RetryPolicy, call_with_retries


class MemcachedConnection:
    """One client connection to one server.

    With a :class:`repro.protocol.retry.RetryPolicy` attached, the
    *idempotent* operations (retrieval and plain ``set``) are retried
    under its bounded backoff schedule; non-idempotent ops (``add``,
    ``append``, ``cas``, counters, ``delete``) always run single-shot —
    a retried ``incr`` after an ambiguous timeout could double-count.
    ``sleep`` and ``rng`` are injectable so tests stay instant and
    deterministic.
    """

    def __init__(
        self,
        transport,
        *,
        policy: RetryPolicy | None = None,
        rng=None,
        sleep=time.sleep,
    ):
        self.transport = transport
        self.policy = policy
        self.rng = rng
        self.sleep = sleep
        self.transactions = 0
        self.retries = 0

    def _exchange_checked(self, payload: bytes):
        """One exchange, with BUSY verdicts surfaced as exceptions.

        A ``SERVER_ERROR busy`` status is the server shedding under
        backpressure (docs/OVERLOAD.md) — raising
        :class:`repro.errors.ServerBusy` *inside* the retried callable
        lets the bounded-backoff schedule treat it like any transient
        connection fault.
        """
        responses = self.transport.exchange(payload)
        for resp in responses:
            if resp.status == "SERVER_ERROR busy":
                raise ServerBusy(f"{resp.status} (server shed the transaction)")
        return responses

    def _exchange_idempotent(self, payload: bytes):
        """Exchange with retries (when a policy is set) for safe-to-repeat ops."""
        if self.policy is None:
            return self._exchange_checked(payload)

        def _count(attempt, exc):
            self.retries += 1

        return call_with_retries(
            lambda: self._exchange_checked(payload),
            self.policy,
            rng=self.rng,
            sleep=self.sleep,
            on_retry=_count,
        )

    # -- retrieval -------------------------------------------------------

    def get_multi(self, keys, *, with_cas: bool = False, raw: bool = False) -> dict:
        """Fetch many keys in ONE transaction.

        Returns key -> bytes (or key -> (bytes, cas) when ``with_cas``);
        missing keys are simply absent.

        The transport parses VALUE bodies zero-copy (memoryview slices
        into the receive buffer); by default they are materialised to
        independent ``bytes`` here, at the client boundary.  ``raw=True``
        hands back the memoryviews themselves — no per-item copy, equal
        (``==``) to the bytes they alias, but they pin the underlying
        receive buffer alive for as long as the caller holds them.
        """
        keys = tuple(keys)
        if not keys:
            return {}
        [resp] = self._exchange_idempotent(
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

    def get(self, key: str) -> bytes | None:
        return self.get_multi([key]).get(key)

    # -- storage ------------------------------------------------------------

    def set(self, key: str, value: bytes, *, flags: int = 0, exptime: int = 0) -> bool:
        # plain set is idempotent (last-writer-wins), so it may retry
        [resp] = self._exchange_idempotent(
            encode_command(
                Command(name="set", keys=(key,), flags=flags, exptime=exptime, data=value)
            )
        )
        self.transactions += 1
        return resp.status == "STORED"

    def _storage(self, name: str, key: str, value: bytes, flags: int, exptime: int) -> bool:
        [resp] = self.transport.exchange(
            encode_command(
                Command(name=name, keys=(key,), flags=flags, exptime=exptime, data=value)
            )
        )
        self.transactions += 1
        return resp.status == "STORED"

    def add(self, key: str, value: bytes, *, flags: int = 0, exptime: int = 0) -> bool:
        """Store only if the key does NOT exist."""
        return self._storage("add", key, value, flags, exptime)

    def replace(self, key: str, value: bytes, *, flags: int = 0, exptime: int = 0) -> bool:
        """Store only if the key already exists."""
        return self._storage("replace", key, value, flags, exptime)

    def append(self, key: str, value: bytes) -> bool:
        """Append bytes to an existing value."""
        return self._storage("append", key, value, 0, 0)

    def prepend(self, key: str, value: bytes) -> bool:
        """Prepend bytes to an existing value."""
        return self._storage("prepend", key, value, 0, 0)

    def _counter(self, name: str, key: str, delta: int) -> int | None:
        [resp] = self.transport.exchange(
            encode_command(Command(name=name, keys=(key,), delta=delta))
        )
        self.transactions += 1
        if resp.status == "NOT_FOUND":
            return None
        if resp.status.startswith("CLIENT_ERROR"):
            raise ProtocolError(resp.status)
        return int(resp.status)

    def incr(self, key: str, delta: int = 1) -> int | None:
        """Atomically increment a numeric value; None if the key is absent."""
        return self._counter("incr", key, delta)

    def decr(self, key: str, delta: int = 1) -> int | None:
        """Atomically decrement (clamped at 0); None if the key is absent."""
        return self._counter("decr", key, delta)

    def cas(self, key: str, value: bytes, cas_id: int, *, flags: int = 0) -> str:
        """Compare-and-swap; returns STORED / EXISTS / NOT_FOUND."""
        [resp] = self.transport.exchange(
            encode_command(
                Command(name="cas", keys=(key,), flags=flags, data=value, cas=cas_id)
            )
        )
        self.transactions += 1
        return resp.status

    def delete(self, key: str) -> bool:
        [resp] = self.transport.exchange(encode_command(Command(name="delete", keys=(key,))))
        self.transactions += 1
        return resp.status == "DELETED"

    def touch(self, key: str, exptime: int) -> bool:
        """Update a key's TTL without transferring its value."""
        [resp] = self.transport.exchange(
            encode_command(Command(name="touch", keys=(key,), exptime=exptime))
        )
        self.transactions += 1
        return resp.status == "TOUCHED"

    def flush_all(self) -> None:
        [resp] = self.transport.exchange(encode_command(Command(name="flush_all")))
        if resp.status != "OK":
            raise ProtocolError(f"flush_all failed: {resp.status}")

    def stats(self, arg: str = "") -> dict:
        """The server's ``stats`` report; ``arg`` selects a sub-report
        (``"metrics"`` returns Prometheus-style telemetry samples)."""
        keys = (arg,) if arg else ()
        [resp] = self.transport.exchange(
            encode_command(Command(name="stats", keys=keys))
        )
        if resp.status.startswith(("CLIENT_ERROR", "SERVER_ERROR")):
            raise ProtocolError(f"stats {arg!r} failed: {resp.status}")
        return dict(resp.stats)


class ShardedClient:
    """Consistent-hashing client over several connections (the baseline).

    ``connections`` maps server id -> :class:`MemcachedConnection`.
    """

    def __init__(self, connections: dict, *, vnodes: int = 64, seed: int = 0):
        if not connections:
            raise ValueError("need at least one connection")
        self.connections = dict(connections)
        self.ring = ConsistentHashRing(self.connections, vnodes=vnodes, seed=seed)

    def server_for(self, key: str):
        return self.ring.lookup(key)

    def set(self, key: str, value: bytes) -> bool:
        return self.connections[self.server_for(key)].set(key, value)

    def delete(self, key: str) -> bool:
        return self.connections[self.server_for(key)].delete(key)

    def get(self, key: str) -> bytes | None:
        return self.connections[self.server_for(key)].get(key)

    def get_multi(self, keys) -> tuple[dict, int]:
        """Multi-get split per home server.

        Returns ``(key -> value, transactions_used)`` — the transaction
        count is the quantity the multi-get hole inflates.
        """
        groups: dict[object, list[str]] = defaultdict(list)
        for key in keys:
            groups[self.server_for(key)].append(key)
        out: dict[str, bytes] = {}
        for sid, group in groups.items():
            out.update(self.connections[sid].get_multi(group))
        return out, len(groups)
