"""The ``sim_overbooked`` workload: the simulator in the overbooking regime.

``run_simulation`` at memory factor 1.5 with hitchhiking, warmup, the
fast path and one worker: plan_batch -> packed cover -> LRU execute with
misses, write-back and hitchhikers (paper Fig 8).  No codec, transport
or server-process code runs, so a live-path change must leave every
number here unchanged.

Each repetition simulates a fixed request count.  Per-request latency is
taken at the simulator's own chunk granularity: the wall time between
successive ``Bundler.plan_batch`` calls (plan plus execute of one
256-request chunk) divided by the chunk's request count.  Repetitions
are identical, so each chunk's time is its median over the repetitions;
a scheduler hiccup in one repetition then does not pass for a slow chunk.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from time import perf_counter

from inputs import N_SERVERS, REPLICATION, VNODES

SIM_REQUESTS = 16000
SIM_WARMUP = 4000
MEMORY_FACTOR = 1.5
#: determinism tokens of ``sim_config(seed)``, keyed by seed
TOKENS_FILE = Path(__file__).with_name("sim_tokens.json")


def sim_config(seed: int, *, fast_path: bool = True):
    from repro.sim.config import ClientConfig, ClusterConfig, SimConfig

    return SimConfig(
        cluster=ClusterConfig(
            n_servers=N_SERVERS,
            replication=REPLICATION,
            memory_factor=MEMORY_FACTOR,
            placement="rch",
            vnodes=VNODES,
        ),
        client=ClientConfig(hitchhiking=True),
        n_requests=SIM_REQUESTS,
        warmup_requests=SIM_WARMUP,
        seed=seed,
        fast_path=fast_path,
    )


def recorded_token(seed: int) -> int | None:
    tokens = json.loads(TOKENS_FILE.read_text())
    value = tokens.get(str(seed))
    return None if value is None else int(value)


def reference_token(graph, seed: int) -> int:
    """The token for ``seed``: recorded, or from the simulator's slow path,
    which must agree with the fast path bit for bit."""
    from repro.sim.engine import run_simulation

    token = recorded_token(seed)
    if token is None:
        slow = run_simulation(graph, sim_config(seed, fast_path=False), workers=1)
        token = slow.determinism_token()
    return token


class ChunkClock:
    """Timestamps each ``Bundler.plan_batch`` call (one per chunk)."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, int]] = []

    def wrap(self, fn):
        marks = self.marks

        @functools.wraps(fn)
        def plan_batch(bundler, requests, *args, **kwargs):
            requests = list(requests)
            marks.append((perf_counter(), len(requests)))
            return fn(bundler, requests, *args, **kwargs)

        return plan_batch

    def per_request(self, end: float) -> list[float]:
        """Per-request times of the chunks marked so far; clears the marks."""
        out = []
        bounds = self.marks + [(end, 0)]
        for (t0, n), (t1, _) in zip(bounds, bounds[1:]):
            if n:
                out.append((t1 - t0) / n)
        self.marks.clear()
        return out


def run_reps(graph, seed: int, seconds: float, tracer=None):
    """Repeat the fixed-size simulation until ``seconds`` have passed.

    Returns ``(rep wall times, per-request chunk times of each rep,
    results)``.
    """
    from repro.core.bundling import Bundler
    from repro.sim.engine import run_simulation

    config = sim_config(seed)
    clock = ChunkClock()
    original = Bundler.__dict__["plan_batch"]
    Bundler.plan_batch = clock.wrap(original)
    rep_times, chunk_times, results = [], [], []
    try:
        deadline = perf_counter() + seconds
        while not results or perf_counter() < deadline:
            t0 = perf_counter()
            if tracer is None:
                result = run_simulation(graph, config, workers=1)
            else:
                with tracer.span("sim.run"):
                    result = run_simulation(graph, config, workers=1)
            t1 = perf_counter()
            rep_times.append(t1 - t0)
            chunk_times.append(clock.per_request(t1))
            results.append(result)
    finally:
        Bundler.plan_batch = original
    return rep_times, chunk_times, results


def trace_targets():
    from repro.core import bundling
    from repro.core.bundling import Bundler
    from repro.core.client import RnBClient

    return [
        (Bundler, "plan_batch", "sim.plan_batch"),
        (Bundler, "plan", "bundling.plan"),
        (bundling, "batch_masks", "setcover.cover"),
        (bundling, "batch_greedy_cover", "setcover.cover"),
        (bundling, "batch_greedy_cover_wide", "setcover.cover"),
        (bundling, "greedy_partial_cover", "setcover.cover"),
        (RnBClient, "execute_plan", "sim.execute"),
    ]


def record_tokens(seeds) -> None:
    """Write the slow-path token of every seed in ``seeds`` to TOKENS_FILE."""
    from inputs import make_graph
    from repro.sim.engine import run_simulation

    graph = make_graph()
    tokens = {
        str(seed): str(
            run_simulation(graph, sim_config(seed, fast_path=False)).determinism_token()
        )
        for seed in seeds
    }
    TOKENS_FILE.write_text(json.dumps(tokens, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    # python3 perfbench/sim.py FIRST LAST: record tokens for seeds FIRST..LAST
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record_tokens(range(int(sys.argv[1]), int(sys.argv[2]) + 1))
