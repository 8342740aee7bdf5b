"""AsyncRnBClient: bundled reads, failover, deadlines, busy sheds."""

from __future__ import annotations

import asyncio

import pytest

from repro.aio.memclient import AsyncMemcachedClient
from repro.aio.rnbclient import AsyncRnBClient
from repro.aio.server import AsyncMemcachedServer
from repro.aio.transport import AsyncConnection, AsyncConnectionPool
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.overload.load import AdmissionControl
from repro.protocol.codec import Command
from repro.protocol.memserver import MemcachedServer
from repro.protocol.retry import RetryPolicy

N_SERVERS = 4
R = 2
FAST = RetryPolicy(
    connect_timeout=2.0, request_timeout=2.0, max_retries=2, backoff_base=0.001
)


def run(coro):
    return asyncio.run(coro)


class _Cluster:
    """A live async fleet + client, torn down deterministically."""

    def __init__(self, *, admission=None, pool_size=2, retry_policy=FAST):
        self.placer = RangedConsistentHashPlacer(N_SERVERS, R, seed=0)
        self.backends = [
            MemcachedServer(
                name=f"s{i}",
                admission=admission() if admission is not None else None,
            )
            for i in range(N_SERVERS)
        ]
        self.servers = [AsyncMemcachedServer(b) for b in self.backends]
        self.pools: list[AsyncConnectionPool] = []
        self.pool_size = pool_size
        self.retry_policy = retry_policy
        self.client: AsyncRnBClient | None = None

    async def __aenter__(self) -> "_Cluster":
        addrs = [await s.start() for s in self.servers]
        self.pools = [
            AsyncConnectionPool(h, p, size=self.pool_size, timeout=2.0)
            for h, p in addrs
        ]
        self.client = AsyncRnBClient(
            {sid: AsyncMemcachedClient(pool) for sid, pool in enumerate(self.pools)},
            self.placer,
            retry_policy=self.retry_policy,
        )
        return self

    async def __aexit__(self, *exc):
        for pool in self.pools:
            pool.close()
        for server in self.servers:
            await server.stop()
        return False

    def preload(self, items: dict[str, bytes]) -> None:
        for key, value in items.items():
            cmd = Command(name="set", keys=(key,), data=value)
            for sid in self.placer.servers_for(key):
                self.backends[sid].execute(cmd)

    async def kill(self, sid: int) -> None:
        await self.servers[sid].stop()
        self.pools[sid].close()


ITEMS = {f"m{i:03d}": f"val{i}".encode() for i in range(60)}


class TestGetMulti:
    def test_bundled_fetch_returns_everything(self):
        async def scenario():
            async with _Cluster() as c:
                c.preload(ITEMS)
                outcome = await c.client.get_multi(sorted(ITEMS))
                assert outcome.values == ITEMS
                assert outcome.missing == ()
                assert not outcome.deadline_hit
                # bundling: far fewer transactions than items
                assert outcome.transactions <= N_SERVERS

        run(scenario())

    def test_many_inflight_requests_each_get_their_own_answer(self):
        # N concurrent get_multis multiplexed over the same pools: every
        # request sees exactly its keys (FIFO pipelining never crosses
        # responses between requests)
        async def scenario():
            async with _Cluster(pool_size=1) as c:
                c.preload(ITEMS)
                keysets = [tuple(sorted(ITEMS))[i : i + 6] for i in range(0, 54, 3)]
                outcomes = await asyncio.gather(
                    *(c.client.get_multi(ks) for ks in keysets)
                )
                for ks, outcome in zip(keysets, outcomes):
                    assert outcome.values == {k: ITEMS[k] for k in ks}
                # pool_size=1: one socket per server carried all of it
                for pool in c.pools:
                    assert len(pool.connections) <= 1

        run(scenario())

    def test_dead_server_fails_over_to_replicas(self):
        async def scenario():
            async with _Cluster() as c:
                c.preload(ITEMS)
                dead = c.placer.distinguished_for(next(iter(ITEMS)))
                await c.kill(dead)
                outcome = await c.client.get_multi(sorted(ITEMS))
                assert outcome.values == ITEMS
                assert dead in outcome.failed_servers
                assert outcome.second_round_transactions > 0

        run(scenario())

    def test_single_get_and_set_roundtrip(self):
        async def scenario():
            async with _Cluster() as c:
                await c.client.set("solo", b"payload")
                assert await c.client.get("solo") == b"payload"
                assert await c.client.get("absent") is None
                await c.client.delete("solo")
                assert await c.client.get("solo") is None

        run(scenario())


class TestDeadline:
    def test_deadline_degrades_instead_of_failing(self):
        async def scenario():
            async with _Cluster() as c:
                c.preload(ITEMS)

                # wedge every fetch behind an artificial stall
                real_fetch = c.client._fetch

                async def slow_fetch(sid, keys, counters=None, parent=None):
                    await asyncio.sleep(0.5)
                    return await real_fetch(sid, keys, counters)

                c.client._fetch = slow_fetch
                outcome = await c.client.get_multi(sorted(ITEMS), deadline=0.05)
                assert outcome.deadline_hit
                assert set(outcome.missing) == set(ITEMS)  # nothing arrived in time

        run(scenario())

    def test_per_request_deadlines_are_independent(self):
        # a tight deadline on one request must not cut a concurrent
        # request that has budget to spare
        async def scenario():
            async with _Cluster() as c:
                c.preload(ITEMS)
                real_fetch = c.client._fetch
                stalled_keys = set(list(ITEMS)[:6])

                async def selective(sid, keys, counters=None, parent=None):
                    if stalled_keys.intersection(keys):
                        await asyncio.sleep(0.3)
                    return await real_fetch(sid, keys, counters)

                c.client._fetch = selective
                tight, roomy = await asyncio.gather(
                    c.client.get_multi(sorted(stalled_keys), deadline=0.05),
                    c.client.get_multi(sorted(ITEMS), deadline=5.0),
                )
                assert tight.deadline_hit
                assert not roomy.deadline_hit
                assert roomy.values == ITEMS

        run(scenario())


class TestBusySheds:
    def test_busy_sheds_counted_and_request_still_served(self):
        # queue_limit=0 is invalid; use a bucket-free gate that always
        # rejects by saturating outstanding first
        def gate():
            ac = AdmissionControl(queue_limit=1)
            ac.outstanding = 1  # permanently full: every get sheds BUSY
            return ac

        async def scenario():
            async with _Cluster(admission=gate) as c:
                c.preload(ITEMS)
                keys = sorted(ITEMS)[:8]
                outcome = await c.client.get_multi(keys)
                # every server sheds, so nothing can be served...
                assert set(outcome.missing) == set(keys)
                # ...but the request completed (degraded), never raised,
                # and the sheds were counted
                assert outcome.busy_sheds > 0
                assert c.client.busy_sheds == outcome.busy_sheds

        run(scenario())


class TestConstructorContract:
    def test_epoched_placer_needs_only_its_view(self):
        # like the sync client: connections cover the view's live servers
        from repro.membership import EpochedPlacer

        placer = EpochedPlacer("rch", 4, 2, seed=5, vnodes=32)
        placer.install_view(placer.view.without(3))
        client = AsyncRnBClient({s: object() for s in (0, 1, 2)}, placer)
        assert client.seen_epoch == placer.epoch

    def test_connections_must_cover_the_placer(self):
        from repro.errors import ConfigurationError

        placer = RangedConsistentHashPlacer(3, 2, seed=0)
        with pytest.raises(ConfigurationError):
            AsyncRnBClient({0: object(), 1: object()}, placer)

    def test_breakers_autocreate_health(self):
        from repro.overload.breaker import BreakerBoard

        placer = RangedConsistentHashPlacer(3, 2, seed=0)
        client = AsyncRnBClient(
            {0: AsyncConnection("h", 1), 1: AsyncConnection("h", 1),
             2: AsyncConnection("h", 1)},
            placer,
            breakers=BreakerBoard(3),
        )
        assert client.health is not None

    def test_pipelined_connection_reused_not_restacked(self):
        # a transport carrying its own policy must not get client-level
        # retries stacked on top (attempts would compound)
        async def scenario():
            async with _Cluster() as c:
                c.preload(ITEMS)
                for sid, conn in c.client.connections.items():
                    conn.policy = FAST  # now each conn retries itself
                outcome = await c.client.get_multi(sorted(ITEMS)[:10])
                assert len(outcome.values) == 10

        run(scenario())
