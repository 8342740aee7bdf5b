"""Differential test: every driver of the read session runs one policy.

Two properties, each comparing a pair of drivers on twin fleets:

* the sync and async wire clients, against the same scripted in-memory
  connections (dead servers, evicted replicas, LIMIT quotas), return the
  same values, missing keys, transaction counts and failed servers;
* the simulator's plain and fault-tolerant clients, on twin overbooked
  clusters with no faults, return the same per-request results and
  leave the same per-server counters.

Repair waves group keys in the order they missed, so nothing here may
depend on ``PYTHONHASHSEED``: the properties run in two interpreters,
under hash seeds 1 and 2.
"""

from __future__ import annotations

import asyncio
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio.rnbclient import AsyncRnBClient
from repro.cluster.cluster import Cluster
from repro.core.bundling import Bundler
from repro.core.client import RnBClient
from repro.faults.ftclient import FaultTolerantRnBClient
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.protocol.rnbclient import RnBProtocolClient
from repro.types import Request

ROOT = Path(__file__).resolve().parents[2]
N_SERVERS = 8
KEYS = [f"key{i}" for i in range(80)]
SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)


class FakeConnection:
    """A scripted server: a dict store that is either up or down."""

    def __init__(self, store: dict, alive: bool) -> None:
        self.store = store
        self.alive = alive

    def _check(self) -> None:
        if not self.alive:
            raise ConnectionError("server down")

    def get_multi(self, keys):
        self._check()
        return {k: self.store[k] for k in keys if k in self.store}

    def set(self, key, value):
        self._check()
        self.store[key] = value
        return True


class AsyncFakeConnection(FakeConnection):
    async def get_multi(self, keys):
        return FakeConnection.get_multi(self, keys)

    async def set(self, key, value):
        return FakeConnection.set(self, key, value)


def scripted_fleet(placer, dead, evict_seed: int) -> dict[int, dict]:
    """Every key on all its replicas, minus ~30% of the non-distinguished
    copies (evicted)."""
    rng = random.Random(evict_seed)
    stores: dict[int, dict] = {s: {} for s in range(N_SERVERS)}
    for key in KEYS:
        home, *others = placer.servers_for(key)
        stores[home][key] = key.encode()
        for sid in others:
            if rng.random() >= 0.3:
                stores[sid][key] = key.encode()
    return stores


def outcome_view(outcome) -> tuple:
    return (
        outcome.values,
        outcome.missing,
        outcome.transactions,
        outcome.second_round_transactions,
        outcome.failed_servers,
    )


@SETTINGS
@given(
    dead=st.sets(st.integers(0, N_SERVERS - 1), max_size=3),
    evict_seed=st.integers(0, 2**16),
    requests=st.lists(
        st.tuples(
            st.lists(st.sampled_from(KEYS), min_size=1, max_size=30, unique=True),
            st.sampled_from([None, 0.5, 0.8]),
        ),
        min_size=1,
        max_size=3,
    ),
)
def wire_drivers_agree(dead, evict_seed, requests):
    placer = RangedConsistentHashPlacer(N_SERVERS, 2, vnodes=32, seed=0)
    sync_stores = scripted_fleet(placer, dead, evict_seed)
    async_stores = scripted_fleet(placer, dead, evict_seed)
    sync_client = RnBProtocolClient(
        {s: FakeConnection(st_, s not in dead) for s, st_ in sync_stores.items()},
        placer,
    )
    async_client = AsyncRnBClient(
        {s: AsyncFakeConnection(st_, s not in dead) for s, st_ in async_stores.items()},
        placer,
    )
    for keys, limit in requests:
        sync_out = sync_client.get_multi(keys, limit_fraction=limit)
        async_out = asyncio.run(async_client.get_multi(keys, limit_fraction=limit))
        assert outcome_view(sync_out) == outcome_view(async_out)
    assert sync_stores == async_stores  # write-backs landed alike


@SETTINGS
@given(
    requests=st.lists(
        st.tuples(
            st.lists(st.integers(0, 399), min_size=1, max_size=25, unique=True),
            st.sampled_from([None, 0.5]),
        ),
        min_size=5,
        max_size=25,
    ),
)
def sim_drivers_agree(requests):
    placer = RangedConsistentHashPlacer(N_SERVERS, 3, vnodes=32, seed=0)
    plain_cluster = Cluster(placer, range(400), memory_factor=1.3)
    ft_cluster = Cluster(placer, range(400), memory_factor=1.3)
    plain = RnBClient(plain_cluster, Bundler(placer, hitchhiking=True))
    ft = FaultTolerantRnBClient(ft_cluster, Bundler(placer, hitchhiking=True))
    for items, limit in requests:
        request = Request(items=tuple(items), limit_fraction=limit)
        a = plain.execute(request)
        b = ft.execute(request)
        assert (
            a.transactions,
            a.items_fetched,
            a.misses,
            a.second_round_transactions,
            a.servers_contacted,
        ) == (
            b.transactions,
            b.items_fetched,
            b.misses,
            b.second_round_transactions,
            b.servers_contacted,
        )
        assert b.unavailable == () and b.failovers == 0
    for x, y in zip(plain_cluster.servers, ft_cluster.servers):
        assert x.counters == y.counters


CHILD = """
import sys
sys.path[:0] = [{root!r}, {src!r}]
from tests.core import test_session_drivers as t
t.wire_drivers_agree()
t.sim_drivers_agree()
"""


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_drivers_agree_under_hash_seed(hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(root=str(ROOT), src=str(ROOT / "src"))],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
