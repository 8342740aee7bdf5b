"""The ``aio_fleet`` workload: the asyncio client against an asyncio fleet.

The 16-server fleet runs on one event loop in a separate server process
(``fleet.py``); the ``AsyncRnBClient`` runs on one event loop here and
keeps one pooled connection per server.

An untraced run measures closed-loop passes: one caller sends the seeded
pool's requests one at a time (:meth:`AioLoad.closed_pass`).  An open
loop at a fixed offered rate was tried first.  On a shared 2-vCPU VM its
p99 moved by up to 3.7x between runs of the same code at 100 and at 200
req/s: the 1% tail is where requests queued behind one of the pool's very
large requests meet the large requests' own latencies, so the quantile
flips between the two groups with the arrival pattern.

The traced run keeps the open loop (:meth:`AioLoad.phase`) for capacity:
seeded Poisson arrivals at each rate of a fixed ladder, never waiting for
completions.  Each request is timed from its *due* time, not from when
the generator got round to sending it, so a stalled generator or a queue
shows up in the latency of every request behind it.  The generator's own
lateness (lag) and the number of requests still unfinished when a phase
ends (backlog) are reported so the latencies can be judged valid.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import quantiles
from time import perf_counter

from inputs import N_SERVERS, key_of

HERE = Path(__file__).resolve().parent

#: offered rate of the traced run's lag and backlog phase, well below the knee
NOMINAL_RATE = 200.0
#: p99 limit a ladder rate must meet (seconds from due time)
P99_LIMIT_S = 0.025
#: fixed offered-rate ladder for max_rate_rps, ascending
LADDER = (100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 500.0, 600.0,
          700.0, 800.0, 1000.0, 1200.0, 1500.0)
#: seconds each ladder rate is offered
LADDER_STEP_S = 1.5


@dataclass
class Phase:
    """What one offered-rate phase measured."""

    rate: float
    latencies: list = field(default_factory=list)
    lags: list = field(default_factory=list)
    backlog_end: int = 0
    peak_in_flight: int = 0
    failed: int = 0
    attempted: int = 0
    transactions: int = 0
    items: int = 0
    misses: int = 0
    #: seconds the phase took, until its last request completed
    wall: float = 0.0


class FleetProcess:
    """The server process; a context manager that always reaps it."""

    def __init__(self, seed: int, n_items: int, trace: bool) -> None:
        cmd = [sys.executable, str(HERE / "fleet.py"), "--seed", str(seed),
               "--n-items", str(n_items)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("fleet process exited before serving")
        self.ports = json.loads(line)["ports"]
        self.summary: dict | None = None

    def close(self) -> dict | None:
        """Close the fleet's stdin (its stop signal) and reap it."""
        if self.proc.returncode is None:
            try:
                out, _ = self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                out, _ = self.proc.communicate()
            lines = out.strip().splitlines()
            if lines and self.proc.returncode == 0:
                self.summary = json.loads(lines[-1])
        return self.summary

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_client(ports, placer):
    from repro.aio.memclient import AsyncMemcachedClient
    from repro.aio.rnbclient import AsyncRnBClient
    from repro.aio.transport import AsyncConnectionPool

    connections = {
        s: AsyncMemcachedClient(AsyncConnectionPool("127.0.0.1", ports[s], size=1))
        for s in range(N_SERVERS)
    }
    return AsyncRnBClient(connections, placer)


async def spin_until(loop, when: float) -> None:
    """Wait until ``loop.time()`` reaches ``when`` without blocking: each
    pass through the loop polls its sockets with a zero timeout.

    A sleeping event loop leaves its CPU idle, and on a virtual machine an
    idle vCPU takes a varying fraction of a millisecond to wake.  At 200
    req/s on a 2-vCPU VM that was half of the open loop's median latency.
    Spinning keeps the CPU awake, so latency measures the client and the
    fleet rather than the hypervisor's wake-up time.
    """
    while loop.time() < when:
        await asyncio.sleep(0)


class AioLoad:
    """Drives one client: closed-loop passes or open-loop phases."""

    def __init__(self, client, inputs) -> None:
        self.client = client
        self.keys = [tuple(key_of(i) for i in r) for r in inputs.requests]
        self.expected = [
            {key_of(i): inputs.values[i] for i in r} for r in inputs.requests
        ]
        self.unit_arrivals = inputs.unit_arrivals
        self.next_request = 0
        #: index of the next unused arrival; each phase resumes the
        #: seeded schedule where the previous one stopped
        self.next_arrival = 0

    async def warm(self, n: int) -> None:
        """Connect every pool and run ``n`` requests, unmeasured; the
        next phase starts again from the first request."""
        for conn in self.client.connections.values():
            await conn.stats()
        for _ in range(n):
            await self.client.get_multi(self.keys[self._take()])
        self.next_request = 0

    async def closed_pass(self) -> Phase:
        """One caller, one request at a time, once over the whole pool.

        A spinner task keeps the loop polling while the caller waits, for
        the reason given at :func:`spin_until`.
        """
        loop = asyncio.get_running_loop()
        result = Phase(rate=0.0)
        spinning = True

        async def spin() -> None:
            while spinning:
                await asyncio.sleep(0)

        spinner = asyncio.ensure_future(spin())
        client, latencies = self.client, result.latencies
        start = loop.time()
        try:
            for keys, expected in zip(self.keys, self.expected):
                t0 = perf_counter()
                out = await client.get_multi(keys)
                latencies.append(perf_counter() - t0)
                result.attempted += 1
                result.transactions += out.transactions
                result.items += len(keys)
                result.misses += out.misses_repaired + len(out.missing)
                if out.values != expected or out.missing:
                    result.failed += 1
        finally:
            spinning = False
            await spinner
        result.wall = loop.time() - start
        return result

    def _take(self) -> int:
        idx = self.next_request % len(self.keys)
        self.next_request += 1
        return idx

    async def phase(self, rate: float, seconds: float) -> Phase:
        """Offer the next requests of the pool at the next seeded arrival
        offsets, scaled to ``rate``, for ``seconds``."""
        loop = asyncio.get_running_loop()
        result = Phase(rate=rate)
        tasks = []
        in_flight = 0

        async def one(idx: int, due: float) -> None:
            nonlocal in_flight
            try:
                out = await self.client.get_multi(self.keys[idx])
            finally:
                in_flight -= 1
            result.latencies.append(loop.time() - due)
            result.transactions += out.transactions
            result.items += len(self.keys[idx])
            result.misses += out.misses_repaired + len(out.missing)
            if out.values != self.expected[idx] or out.missing:
                result.failed += 1

        start = loop.time() + 0.001
        arrivals = self.unit_arrivals
        if self.next_arrival >= len(arrivals):
            self.next_arrival = 0
        base = arrivals[self.next_arrival - 1] if self.next_arrival else 0.0
        for offset in arrivals[self.next_arrival :]:
            offset = (offset - base) / rate
            if offset >= seconds:
                break
            self.next_arrival += 1
            due = start + offset
            await spin_until(loop, due)
            result.lags.append(max(0.0, loop.time() - due))
            in_flight += 1
            result.peak_in_flight = max(result.peak_in_flight, in_flight)
            result.attempted += 1
            tasks.append(asyncio.ensure_future(one(self._take(), due)))
        await spin_until(loop, start + seconds)
        result.backlog_end = in_flight
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        result.failed += sum(isinstance(o, BaseException) for o in outcomes)
        result.wall = loop.time() - start
        return result


def passes(phase: Phase) -> bool:
    """A ladder rate holds if p99 meets the limit and the queue drained."""
    if phase.failed or len(phase.latencies) < 2:
        return False
    p99 = quantiles(phase.latencies, n=100)[98]
    return p99 <= P99_LIMIT_S and phase.backlog_end <= phase.rate * P99_LIMIT_S


def trace_targets():
    from repro.aio import memclient
    from repro.aio.memclient import AsyncMemcachedClient
    from repro.aio.rnbclient import AsyncRnBClient
    from repro.core import bundling
    from repro.core.bundling import Bundler
    from repro.protocol import codec

    return [
        (AsyncRnBClient, "get_multi", "aio.get_multi"),
        (Bundler, "plan", "bundling.plan"),
        (bundling, "greedy_partial_cover", "setcover.cover"),
        (AsyncMemcachedClient, "get_multi", "aio.txn"),
        (memclient, "encode_command", "codec.encode", "sized"),
        (codec, "parse_response_at", "codec.decode"),
    ]
