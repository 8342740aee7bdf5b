"""The ``aio_fleet`` server process: 16 asyncio servers on one loop.

Run as ``python3 fleet.py --seed N --n-items M [--trace]``.  It preloads
every item on its R replicas (straight into the backends, no sockets),
prints one JSON line ``{"ports": [...]}``, serves until its standard
input closes, then prints one JSON line with the fleet's counters and
exits.  With ``--trace`` it also times every backend ``execute`` and
every command parse, reported as totals (the server is another process,
so these are counters rather than spans).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from inputs import N_SERVERS, key_of, make_placer, make_values  # noqa: E402


class ServerClock:
    """Accumulates time and counts for one wrapped server function."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.get_calls = 0
        self.bytes = 0

    def wrap_execute(self, fn):
        def execute(server, cmd):
            t0 = perf_counter()
            out = fn(server, cmd)
            self.seconds += perf_counter() - t0
            self.calls += 1
            self.bytes += len(out)
            if cmd.name == "get":
                self.get_calls += 1
            return out

        return execute

    def wrap_parse(self, fn):
        def parse_command_stream(data):
            t0 = perf_counter()
            out = fn(data)
            self.seconds += perf_counter() - t0
            self.calls += 1
            self.bytes += len(data)
            return out

        return parse_command_stream


async def serve(seed: int, n_items: int, trace: bool) -> dict:
    from repro.aio.server import AsyncMemcachedServer
    from repro.protocol import codec
    from repro.protocol.codec import Command
    from repro.protocol.memserver import MemcachedServer

    backends = [MemcachedServer(name=f"mem{s}") for s in range(N_SERVERS)]
    placer = make_placer()
    for item, value in enumerate(make_values(seed, n_items)):
        key = key_of(item)
        for sid in placer.servers_for(key):
            backends[sid].execute(Command(name="set", keys=(key,), data=value))
    gc.collect()
    gc.freeze()  # the preloaded items live all run; see worker.py
    execute, parse = ServerClock(), ServerClock()
    if trace:  # after the preload, which is not measured
        MemcachedServer.execute = execute.wrap_execute(MemcachedServer.execute)
        codec.parse_command_stream = parse.wrap_parse(codec.parse_command_stream)
    fronts = [AsyncMemcachedServer(b) for b in backends]
    ports = [(await front.start())[1] for front in fronts]

    loop = asyncio.get_running_loop()
    closed = asyncio.Event()
    stdin = sys.stdin.fileno()
    loop.add_reader(stdin, lambda: os.read(stdin, 4096) or closed.set())
    print(json.dumps({"ports": ports}), flush=True)
    # never block in the selector: see aioload.spin_until
    while not closed.is_set():
        await asyncio.sleep(0)
    loop.remove_reader(stdin)
    for front in fronts:
        await front.stop()
    stats: dict[str, int] = {}
    for backend in backends:
        for name, value in backend.stats.items():
            stats[name] = stats.get(name, 0) + value
    return {
        "stats": stats,
        "execute_s": execute.seconds,
        "execute_calls": execute.calls,
        "get_txns": execute.get_calls,
        "bytes_out": execute.bytes,
        "parse_s": parse.seconds,
        "parse_calls": parse.calls,
        "bytes_in": parse.bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n-items", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    summary = asyncio.run(serve(args.seed, args.n_items, args.trace))
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
