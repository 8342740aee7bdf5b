"""The sync live workloads: ``live_read`` and ``live_churn``.

One caller runs a closed loop of ``RnBProtocolClient.get_multi`` calls
over in-process ``LoopbackTransport`` connections to 16
``MemcachedServer`` instances, so every request runs plan -> encode ->
server parse/execute/format -> client parse without sockets or threads.

``live_read`` gives the servers no memory cap, so every replica stays
resident and no request needs a repair wave.  ``live_churn`` caps each
server at 1.5x one copy / 16, so the LRUs evict; reads are cache-aside
(a key missing everywhere is re-``set`` on its replicas from the
reference), and after every 10th read one key of that request is
rewritten through ``set_versioned(w="majority")``.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

from inputs import N_SERVERS, REPLICATION, VALUE_BYTES, key_of, updated_value

#: every 10th read is followed by one quorum write (live_churn)
WRITE_EVERY = 10
#: per-server LRU cap of live_churn, as a multiple of one copy / N_SERVERS
CHURN_MEMORY_FACTOR = 1.5


def churn_capacity(n_items: int) -> int:
    return int(CHURN_MEMORY_FACTOR * n_items * VALUE_BYTES / N_SERVERS)


class LiveFleet:
    """16 in-process servers, one RnB client, and the reference data."""

    def __init__(self, inputs, placer, *, capacity_bytes=None) -> None:
        from repro.protocol import (
            LoopbackTransport,
            MemcachedConnection,
            MemcachedServer,
            RnBProtocolClient,
        )

        self.servers = [
            MemcachedServer(capacity_bytes, name=f"mem{s}") for s in range(N_SERVERS)
        ]
        connections = {
            s: MemcachedConnection(LoopbackTransport(server))
            for s, server in enumerate(self.servers)
        }
        self.client = RnBProtocolClient(connections, placer)
        self.inputs = inputs
        self.keys = [tuple(key_of(i) for i in r) for r in inputs.requests]
        #: key -> payload the next read must return
        self.reference = {key_of(i): v for i, v in enumerate(inputs.values)}
        #: key -> exact bytes last stored (the version envelope once a
        #: key has had a quorum write), used to refill evicted keys
        self.stored = dict(self.reference)
        self.writes = dict(inputs.writes)
        self.versions: dict[int, int] = {}
        for key, value in self.reference.items():
            self.client.set(key, value)

    def server_stats(self) -> dict:
        total: dict[str, int] = {}
        for server in self.servers:
            for name, value in server.stats.items():
                total[name] = total.get(name, 0) + value
        return total


class Tally:
    """Counts over a stretch of read requests."""

    __slots__ = ("requests", "items", "transactions", "misses", "repair_txns",
                 "fills", "failed", "attempted", "digest")

    def __init__(self) -> None:
        self.requests = self.items = self.transactions = self.misses = 0
        self.repair_txns = self.fills = self.failed = self.attempted = 0
        #: hash of every value the first pass returned
        self.digest = ""

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class LiveLoop:
    """The closed loop: one caller, one request at a time.

    It cycles over the seeded request list.  Counts of the *first* pass
    over that list go into ``first_pass``, so they repeat exactly for a
    seed however long the run; every request also goes into ``window``.
    """

    def __init__(self, fleet: LiveFleet, *, churn: bool) -> None:
        self.fleet = fleet
        self.churn = churn
        self.i = 0
        self.first_pass = Tally()
        self.window = Tally()
        self.read_lat: list[float] = []
        self.write_lat: list[float] = []
        self.acks = 0
        self._digest = hashlib.blake2b(digest_size=16)

    @property
    def first_pass_done(self) -> bool:
        return self.i >= len(self.fleet.keys)

    def run(
        self, seconds: float, *, until_first_pass: bool = False, one_pass: bool = False
    ) -> tuple[int, float]:
        """Loop for ``seconds``; with ``until_first_pass``, until the first
        pass is over instead, and with ``one_pass``, until the pass under
        way is.  Returns ``(reads, summed read seconds)``."""
        from repro.consistency import decode_versioned, encode_versioned

        fleet = self.fleet
        client = fleet.client
        keys_list = fleet.keys
        reference, stored = fleet.reference, fleet.stored
        seed = fleet.inputs.seed
        n = len(keys_list)
        read_lat, write_lat = self.read_lat, self.write_lat
        reads, busy = 0, 0.0
        deadline = perf_counter() + seconds
        stop = n if until_first_pass else (self.i // n + 1) * n if one_pass else None
        while (self.i < stop) if stop is not None else (perf_counter() < deadline):
            i = self.i
            idx = i % n
            keys = keys_list[idx]
            t0 = perf_counter()
            out = client.get_multi(keys)
            elapsed = perf_counter() - t0
            read_lat.append(elapsed)
            reads += 1
            busy += elapsed
            bad = 0
            for key, value in out.values.items():
                if decode_versioned(value)[1] != reference.get(key):
                    bad += 1
            if len(out.values) + len(out.missing) != len(keys):
                bad += 1
            if out.missing and not self.churn:
                bad += len(out.missing)  # nothing is ever evicted on live_read
            tallies = (self.window, self.first_pass) if i < n else (self.window,)
            for t in tallies:
                t.requests += 1
                t.attempted += 1
                t.items += len(keys)
                t.transactions += out.transactions
                t.misses += out.misses_repaired + len(out.missing)
                t.repair_txns += out.second_round_transactions
                t.failed += 1 if bad else 0
            if i < n:
                for item in sorted(out.values.items()):
                    self._digest.update(repr(item).encode())
                self.first_pass.digest = self._digest.hexdigest()
            if self.churn:
                for key in out.missing:  # cache-aside refill from the reference
                    client.set(key, stored[key])
                for t in tallies:
                    t.fills += len(out.missing)
                item = fleet.writes.get(idx)
                if item is not None:
                    version = fleet.versions.get(item, 0) + 1
                    fleet.versions[item] = version
                    key = key_of(item)
                    payload = updated_value(seed, item, version)
                    t0 = perf_counter()
                    outcome = client.set_versioned(key, payload, w="majority")
                    write_lat.append(perf_counter() - t0)
                    self.acks += len(outcome.acked)
                    ok = outcome.committed and len(outcome.acked) == REPLICATION
                    for t in tallies:
                        t.attempted += 1
                        t.failed += 0 if ok else 1
                    reference[key] = payload
                    stored[key] = encode_versioned(payload, outcome.stamp)
            self.i = i + 1
        return reads, busy


def trace_targets():
    """Public layer entry points of the sync live read/write paths."""
    from repro.consistency.quorum import QuorumWriter
    from repro.core import bundling
    from repro.core.bundling import Bundler
    from repro.protocol import codec, memclient
    from repro.protocol.memclient import MemcachedConnection
    from repro.protocol.memserver import MemcachedServer
    from repro.protocol.rnbclient import RnBProtocolClient
    from repro.protocol.transport import LoopbackTransport

    return [
        (RnBProtocolClient, "get_multi", "rnbclient.get_multi"),
        (RnBProtocolClient, "set", "rnbclient.set"),
        (RnBProtocolClient, "set_versioned", "rnbclient.set_versioned"),
        (QuorumWriter, "write", "quorum.write"),
        (Bundler, "plan", "bundling.plan"),
        (bundling, "greedy_partial_cover", "setcover.cover"),
        (MemcachedConnection, "get_multi", "memclient.get_multi"),
        (MemcachedConnection, "set", "memclient.set"),
        (memclient, "encode_command", "codec.encode", "sized"),
        (LoopbackTransport, "exchange", "transport.exchange"),
        (MemcachedServer, "handle", "memserver.handle", "sized"),
        (codec, "parse_command_stream", "codec.parse_cmd"),
        (codec, "parse_response_at", "codec.decode"),
    ]
