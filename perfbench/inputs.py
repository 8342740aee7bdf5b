"""Workload inputs: a pure function of the benchmark seed.

Every workload runs the paper's Fig 6/8 setting: the slashdot-like graph
at scale 0.1 (8,217 items; ego-network requests, heavy-tailed, ~11 keys
on average), 16 servers, R=3, Ranged Consistent Hashing with the
simulator's default placement (64 vnodes, placement seed 0), and 32-byte
values.  The graph and placement are fixed, as in the paper; the seed
picks the request stream, the values and the write schedule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

N_SERVERS = 16
REPLICATION = 3
GRAPH_SCALE = 0.1
VALUE_BYTES = 32
VNODES = 64

#: derive_rng stream tags, one per independent input
_REQUESTS, _VALUES, _WRITES, _ARRIVALS, _ORDER = 0x5245, 0x5641, 0x5752, 0x4152, 0x4F52


@dataclass(frozen=True)
class Inputs:
    """Everything a live workload feeds the program."""

    seed: int
    n_items: int
    #: one multi-get per entry, as item ids (the sim's vocabulary)
    requests: tuple[tuple[int, ...], ...]
    #: item -> 32-byte value
    values: tuple[bytes, ...]
    #: (request index, item) of each quorum write in ``live_churn``
    writes: tuple[tuple[int, int], ...]
    #: Poisson arrival offsets (seconds) at 1 req/s, for ``aio_fleet``'s ladder
    unit_arrivals: tuple[float, ...]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr((self.seed, self.n_items, self.requests, self.writes)).encode())
        h.update(b"".join(self.values))
        h.update(repr(self.unit_arrivals).encode())
        return h.hexdigest()


def key_of(item: int) -> str:
    return f"i{item}"


def make_graph():
    from repro.workloads.synthetic import make_slashdot_like

    return make_slashdot_like(seed=0, scale=GRAPH_SCALE)


def make_placer():
    from repro.cluster.placement import make_placer as _make

    return _make("rch", N_SERVERS, REPLICATION, seed=0, vnodes=VNODES)


def make_values(seed: int, n_items: int) -> tuple[bytes, ...]:
    from repro.utils.rng import derive_rng

    raw = derive_rng(seed, _VALUES).bytes(n_items * VALUE_BYTES // 2).hex().encode()
    return tuple(raw[i * VALUE_BYTES : (i + 1) * VALUE_BYTES] for i in range(n_items))


def updated_value(seed: int, item: int, version: int) -> bytes:
    """The payload of the ``version``-th quorum write of ``item``."""
    digest = hashlib.blake2b(f"{seed}/{item}/{version}".encode(), digest_size=16)
    return digest.hexdigest().encode()


def make_inputs(
    seed: int,
    graph,
    *,
    n_requests: int,
    write_every: int = 0,
    n_arrivals: int = 0,
    fixed_pool: bool = False,
) -> Inputs:
    """Inputs for ``seed``.

    ``fixed_pool=True`` draws the ``n_requests`` requests from one fixed
    stream and lets the seed pick only their order.  The live and aio
    workloads cycle over a pool of a few thousand requests, and with
    requests this heavy-tailed the number of very large ones in such a
    sample moved p99 by up to 25% between seeds; a fixed pool keeps that
    mix the same.
    """
    from repro.utils.rng import derive_rng
    from repro.workloads.requests import EgoRequestGenerator

    gen = EgoRequestGenerator(
        graph, rng=derive_rng(0 if fixed_pool else seed, _REQUESTS)
    )
    requests = tuple(gen.generate().items for _ in range(n_requests))
    if fixed_pool:
        order = derive_rng(seed, _ORDER).permutation(n_requests).tolist()
        requests = tuple(requests[i] for i in order)
    writes = ()
    if write_every:
        rng = derive_rng(seed, _WRITES)
        writes = tuple(
            (i, requests[i][int(rng.integers(len(requests[i])))])
            for i in range(write_every - 1, n_requests, write_every)
        )
    arrivals = ()
    if n_arrivals:
        gaps = derive_rng(seed, _ARRIVALS).exponential(1.0, n_arrivals)
        arrivals = tuple(gaps.cumsum().tolist())
    return Inputs(
        seed=seed,
        n_items=graph.n_nodes,
        requests=requests,
        values=make_values(seed, graph.n_nodes),
        writes=writes,
        unit_arrivals=arrivals,
    )
