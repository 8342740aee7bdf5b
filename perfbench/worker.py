"""One fresh interpreter: set up one workload, then measure it.

``run.py`` starts this file once per set-up probe (``--setup-only``) and
once for the measured run.  It prints ``SETUP <monotonic time>`` when the
set-up is done (the launcher subtracts its own spawn time), an ``INFO``
line with the run's counts, and the result as the last JSON line.

Set-up covers everything between a fresh interpreter and the first timed
request: ``import repro``, input generation, fleet boot and preload, and
for the simulator one small warm run that compiles the placement table.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path
from statistics import mean, median, quantiles

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

#: requests in one pass of each live workload's fixed pool; untraced
#: runs time whole passes, and the counts are those of the first pass
LIVE_REQUESTS = {"live_read": 2000, "live_churn": 4000}
#: requests in one pass of aio_fleet's fixed pool
AIO_REQUESTS = 2000
#: aio requests run before measuring (connect pools, fill caches)
AIO_WARM = 200
#: seconds of the traced run's open-loop phase at the nominal rate
AIO_NOMINAL_S = 4.0
#: alternating traced/untraced block length of a traced run
TRACE_BLOCK_S = 0.5

WORKLOADS = ("sim_overbooked", "live_read", "live_churn", "aio_fleet")


def pct(values, q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` with n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Outcome:
    """What a measured run reports back to the launcher."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: list[str] = []  # failed correctness checks
        self.info: dict = {}

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.checks.append(what)


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, trace: bool):
    from inputs import make_graph, make_inputs, make_placer

    graph = make_graph()
    if workload == "sim_overbooked":
        import sim
        from repro.sim.engine import run_simulation

        warm = replace(sim.sim_config(seed), n_requests=256, warmup_requests=0)
        run_simulation(graph, warm, workers=1)
        return {"graph": graph}
    if workload in ("live_read", "live_churn"):
        import live

        churn = workload == "live_churn"
        inputs = make_inputs(
            seed, graph, n_requests=LIVE_REQUESTS[workload],
            write_every=live.WRITE_EVERY if churn else 0, fixed_pool=True,
        )
        capacity = live.churn_capacity(inputs.n_items) if churn else None
        fleet = live.LiveFleet(inputs, make_placer(), capacity_bytes=capacity)
        return {"fleet": fleet, "churn": churn}
    import aioload

    inputs = make_inputs(
        seed, graph, n_requests=AIO_REQUESTS, n_arrivals=20_000, fixed_pool=True
    )
    state = {"fleet_process": aioload.FleetProcess(seed, inputs.n_items, trace)}
    try:
        client = aioload.build_client(state["fleet_process"].ports, make_placer())
        state["load"] = aioload.AioLoad(client, inputs)
        state["loop"] = asyncio.new_event_loop()
        state["loop"].run_until_complete(state["load"].warm(AIO_WARM))
    except BaseException:
        teardown(state)
        raise
    return state


def teardown(state) -> dict | None:
    """Stop what set-up started; safe to call twice.  Returns the aio
    fleet's summary (None for in-process workloads)."""
    loop = state.pop("loop", None)
    if loop is not None:
        for conn in state["load"].client.connections.values():
            conn.close()
        loop.run_until_complete(asyncio.sleep(0))
        loop.close()
    fleet = state.get("fleet_process")
    return fleet.close() if fleet is not None else None


# ---------------------------------------------------------------------------
# per-workload measurement


def rescaled_medians(raw: dict, scales: list) -> dict:
    """Per-block figures -> the median of each, rescaled by its block's
    speed scale (``speed.py``); times shrink, rates grow."""
    out = {}
    for name, values in raw.items():
        if name.endswith("_rps"):
            out[name] = median(v / s for v, s in zip(values, scales))
        else:
            out[name] = median(v * s for v, s in zip(values, scales))
    return out


def raw_medians(raw: dict) -> dict:
    return {"raw_" + name: median(values) for name, values in raw.items()}


def alternate(seconds: float, run_block) -> None:
    """Alternate untraced/traced blocks for ``seconds``, at least one of each."""
    deadline = time.perf_counter() + seconds
    blocks = 0
    while blocks < 2 or time.perf_counter() < deadline:
        run_block(blocks % 2 == 1)
        blocks += 1


def measure_sim(state, seed, seconds, tracer, out: Outcome) -> None:
    import sim
    from speed import SpeedGauge
    from tracing import instrument

    graph = state["graph"]
    plain = {"reps": [], "chunks": [], "results": []}
    traced = {"reps": [], "chunks": [], "results": []}

    def block(use_tracer: bool, span: float) -> None:
        into = traced if use_tracer else plain
        t = tracer if use_tracer else None
        with instrument(t, sim.trace_targets() if use_tracer else ()):
            reps, chunks, results = sim.run_reps(graph, seed, span, t)
        into["reps"] += reps
        into["chunks"] += chunks
        into["results"] += results

    scales = []
    if tracer is None:
        # one repetition per gauge block
        for (reps, chunks, results), scale in SpeedGauge().run(
            seconds, lambda: sim.run_reps(graph, seed, 0)
        ):
            plain["reps"] += reps
            plain["chunks"] += chunks
            plain["results"] += results
            scales.append(scale)
    else:
        alternate(seconds, lambda on: block(on, TRACE_BLOCK_S))
    results = plain["results"] + traced["results"]
    expected = sim.reference_token(graph, seed)
    per_rep = sim.SIM_REQUESTS + sim.SIM_WARMUP
    for result in results:
        out.attempted += per_rep
        if result.determinism_token() != expected:
            out.failed += per_rep
    out.check(out.failed == 0, f"sim determinism token != {expected} for seed {seed}")
    first = results[0]
    stats = first.stats
    out.info.update(
        token=first.determinism_token(), expected_token=expected, reps=len(results)
    )
    tpr = first.tpr
    miss = stats.misses / stats.items_fetched
    if tracer is None:
        reps, chunks = plain["reps"], plain["chunks"]
        raw = {"throughput_rps": [per_rep / t for t in reps]}
        out.metrics.update(rescaled_medians(raw, scales), txn_per_request=tpr)
        # repetitions are identical, so each chunk counts with its median
        # over them: a hiccup in one repetition does not pass for a slow chunk
        scaled = [[t * scale for t in times] for times, scale in zip(chunks, scales)]
        per_chunk = [median(times) for times in zip(*scaled)]
        raw_per_chunk = [median(times) for times in zip(*chunks)]
        out.metrics.update(
            latency_p50_us=pct(per_chunk, 50) * 1e6,
            latency_p99_us=pct(per_chunk, 99) * 1e6,
        )
        out.info.update(
            raw_medians(raw),
            raw_latency_p50_us=pct(raw_per_chunk, 50) * 1e6,
            raw_latency_p99_us=pct(raw_per_chunk, 99) * 1e6,
            speed_scales=scales,
            item_miss_frac=miss,
        )
        return
    roots = tracer.roots["sim.run"]
    n = per_rep * len(traced["reps"])
    layer = roots.layers
    us = 1e6 / n
    out.metrics.update(
        {
            "sim.plan_batch_us_per_req": layer["sim.plan_batch"].total_s * us,
            "sim.execute_us_per_req": layer["sim.execute"].total_s * us,
            "setcover.cover_us_per_req": layer["setcover.cover"].total_s * us,
            "bundling.plan_us_per_req": (
                layer["sim.plan_batch"].self_s + layer["bundling.plan"].self_s
            ) * us,
            "cluster.miss_rate": first.miss_rate,
            "item_miss_frac": miss,
            "trace.overhead_pct": (mean(traced["reps"]) / mean(plain["reps"]) - 1) * 100,
            "trace.self_sum_us_per_req": sum(t.self_s for t in layer.values()) * us,
        }
    )


def measure_live(state, seed, seconds, tracer, out: Outcome) -> None:
    import live
    from speed import SpeedGauge
    from tracing import instrument

    fleet = state["fleet"]
    loop = live.LiveLoop(fleet, churn=state["churn"])
    before = fleet.server_stats()
    if tracer is None:

        def one_pass() -> tuple[list, float]:
            start = len(loop.read_lat)
            t0 = time.perf_counter()
            loop.run(0, one_pass=True)
            return loop.read_lat[start:], time.perf_counter() - t0

        passes = SpeedGauge().run(seconds, one_pass)
        raw = {
            "throughput_rps": [len(reads) / wall for (reads, wall), _ in passes],
            "latency_p50_us": [pct(reads, 50) * 1e6 for (reads, _), _ in passes],
            "latency_p99_us": [pct(reads, 99) * 1e6 for (reads, _), _ in passes],
        }
        scales = [scale for _, scale in passes]
        out.metrics.update(rescaled_medians(raw, scales))
        out.info.update(raw_medians(raw), speed_scales=scales)
    else:
        targets = live.trace_targets()
        plain = {"reads": 0, "busy": 0.0, "writes": []}
        traced_repairs = 0

        def block(traced: bool) -> None:
            nonlocal traced_repairs
            repairs, writes = loop.window.repair_txns, len(loop.write_lat)
            with instrument(tracer if traced else None, targets):
                n, busy = loop.run(TRACE_BLOCK_S)
            if traced:
                traced_repairs += loop.window.repair_txns - repairs
            else:
                plain["reads"] += n
                plain["busy"] += busy
                plain["writes"] += loop.write_lat[writes:]

        alternate(seconds, block)
        if not loop.first_pass_done:
            loop.run(0, until_first_pass=True)
    after = fleet.server_stats()
    first = loop.first_pass
    tpr = first.transactions / first.requests
    miss = first.misses / first.items
    out.attempted += loop.window.attempted
    out.failed += loop.window.failed
    out.check(loop.window.failed == 0, "live reads returned wrong values or lost writes")
    out.info.update(first_pass=first.as_dict(), window=loop.window.as_dict())
    if tracer is None:
        out.metrics["txn_per_request"] = tpr
        out.info.update(
            item_miss_frac=miss,
            write_latency_p50_us=pct(loop.write_lat, 50) * 1e6 if loop.write_lat else 0.0,
            write_latency_p99_us=pct(loop.write_lat, 99) * 1e6 if loop.write_lat else 0.0,
        )
        return
    reads = tracer.roots["rnbclient.get_multi"]
    writes = tracer.roots["rnbclient.set_versioned"]
    n = reads.requests
    layer = reads.layers
    us = 1e6 / n
    n_writes = writes.requests
    write_lat = plain["writes"]
    untraced_us = plain["busy"] / plain["reads"] * 1e6
    traced_us = reads.total_s * us
    out.metrics.update(
        {
            "bundling.plan_us_per_req": layer["bundling.plan"].self_s * us,
            "setcover.cover_us_per_req": layer["setcover.cover"].total_s * us,
            "codec.encode_us_per_req": layer["codec.encode"].total_s * us,
            "codec.decode_us_per_req": layer["codec.decode"].total_s * us,
            "codec.parse_cmd_us_per_req": layer["codec.parse_cmd"].total_s * us,
            "codec.bytes_per_req": (
                layer["codec.encode"].bytes + layer["memserver.handle"].bytes
            ) / n,
            "memserver.handle_us_per_req": layer["memserver.handle"].self_s * us,
            "memserver.hit_ratio": _hit_ratio(before, after),
            "memserver.evictions_per_req": (after["evictions"] - before["evictions"])
            / loop.window.requests,
            "memclient.txn_per_req": layer["memclient.get_multi"].calls / n,
            "memclient.exchange_us_per_txn": layer["transport.exchange"].total_s
            * 1e6 / max(1, layer["transport.exchange"].calls),
            "rnbclient.self_us_per_req": layer["rnbclient.get_multi"].self_s * us,
            "rnbclient.repair_txn_per_req": traced_repairs / n,
            "rnbclient.writeback_sets_per_req": reads.edges[
                ("memclient.set", "rnbclient.get_multi")
            ] / n,
            "quorum.write_us": writes.layers["quorum.write"].total_s * 1e6 / n_writes
            if n_writes else 0.0,
            "quorum.acks_per_write": loop.acks / len(loop.write_lat)
            if loop.write_lat else 0.0,
            "item_miss_frac": miss,
            "write_latency_p50_us": pct(write_lat, 50) * 1e6 if write_lat else 0.0,
            "write_latency_p99_us": pct(write_lat, 99) * 1e6 if write_lat else 0.0,
            "trace.overhead_pct": (traced_us / untraced_us - 1) * 100,
            "trace.self_sum_us_per_req": sum(t.self_s for t in layer.values()) * us,
        }
    )


def _hit_ratio(before: dict, after: dict) -> float:
    hits = after["get_hits"] - before["get_hits"]
    misses = after["get_misses"] - before["get_misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def measure_aio(state, seed, seconds, tracer, out: Outcome) -> None:
    import aioload
    from speed import SpeedGauge
    from tracing import instrument

    load = state["load"]
    loop = state["loop"]
    passes = {False: [], True: []}

    def one_pass(traced: bool = False):
        with instrument(tracer if traced else None, aioload.trace_targets()):
            result = loop.run_until_complete(load.closed_pass())
        passes[traced].append(result)
        return result

    if tracer is None:
        gauged = SpeedGauge().run(seconds, one_pass)
        raw = {
            "throughput_rps": [len(p.latencies) / p.wall for p, _ in gauged],
            "latency_p50_us": [pct(p.latencies, 50) * 1e6 for p, _ in gauged],
            "latency_p99_us": [pct(p.latencies, 99) * 1e6 for p, _ in gauged],
        }
        scales = [scale for _, scale in gauged]
        out.metrics.update(rescaled_medians(raw, scales))
        out.info.update(raw_medians(raw), speed_scales=scales)
        ladder = []
    else:
        alternate(seconds, one_pass)
        ladder = []
        for rate in aioload.LADDER:
            phase = loop.run_until_complete(load.phase(rate, aioload.LADDER_STEP_S))
            ladder.append(phase)
            if not aioload.passes(phase):
                break
        passing = [p.rate for p in ladder if aioload.passes(p)]
        out.info.update(ladder=[(p.rate, aioload.passes(p)) for p in ladder])
        out.metrics["max_rate_rps"] = max(passing, default=0.0)
        nominal = loop.run_until_complete(
            load.phase(aioload.NOMINAL_RATE, AIO_NOMINAL_S)
        )
        ladder.append(nominal)
    all_passes = passes[False] + passes[True]
    for run in all_passes + ladder:
        out.attempted += run.attempted
        out.failed += run.failed
    out.check(out.failed == 0, "aio reads returned wrong values")
    first = all_passes[0]
    tpr = first.transactions / len(first.latencies)
    out.info.update(requests=sum(len(p.latencies) for p in all_passes + ladder))
    summary = teardown(state)
    fleet_rss = summary["peak_rss_mb"] if summary else 0.0
    out.info["fleet_peak_rss_mb"] = fleet_rss
    if tracer is None:
        out.metrics["txn_per_request"] = tpr
        return
    reads = tracer.roots["aio.get_multi"]
    n = reads.requests
    layer = reads.layers
    us = 1e6 / n
    txn = layer["aio.txn"]
    decode = tracer.roots["codec.decode"].layers["codec.decode"]
    issued = AIO_WARM + sum(len(p.latencies) for p in all_passes + ladder)

    def mean_latency(runs):
        return median(mean(p.latencies) for p in runs)

    out.metrics.update(
        {
            "bundling.plan_us_per_req": layer["bundling.plan"].self_s * us,
            "setcover.cover_us_per_req": layer["setcover.cover"].total_s * us,
            "codec.encode_us_per_req": layer["codec.encode"].total_s * us,
            "codec.decode_us_per_req": decode.total_s * us,
            "codec.parse_cmd_us_per_req": summary["parse_s"] * 1e6 / issued,
            "codec.bytes_per_req": (summary["bytes_in"] + summary["bytes_out"]) / issued,
            "memserver.hit_ratio": _hit_ratio(
                {"get_hits": 0, "get_misses": 0}, summary["stats"]
            ),
            "memclient.txn_per_req": txn.calls / n,
            "memclient.exchange_us_per_txn": txn.total_s * 1e6 / txn.calls,
            "aio.client_us_per_req": layer["aio.get_multi"].self_s * us,
            "aio.txn_wait_us": txn.self_s * 1e6 / txn.calls,
            "aio.server_execute_us_per_txn": summary["execute_s"] * 1e6
            / max(1, summary["get_txns"]),
            "aio.peak_in_flight": nominal.peak_in_flight,
            "loadgen.lag_p99_us": pct(nominal.lags, 99) * 1e6,
            "loadgen.backlog_end": nominal.backlog_end,
            "trace.overhead_pct": (
                mean_latency(passes[True]) / mean_latency(passes[False]) - 1
            ) * 100,
            "trace.self_sum_us_per_req": sum(t.self_s for t in layer.values()) * us,
            "item_miss_frac": sum(p.misses for p in all_passes)
            / sum(p.items for p in all_passes),
        }
    )


MEASURE = {
    "sim_overbooked": measure_sim,
    "live_read": measure_live,
    "live_churn": measure_live,
    "aio_fleet": measure_aio,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not (HERE.parent / "src" / "repro").is_dir():
        # measure this checkout's program, never an installed copy
        sys.exit("perfbench: no src/repro next to perfbench/")

    from tracing import Tracer

    state = setup(args.workload, args.seed, bool(args.trace))
    # The inputs, reference data and preloaded caches live for the whole
    # run; freezing them keeps the collector from rescanning them, so
    # collection pauses reflect what the program allocates while serving.
    gc.collect()
    gc.freeze()
    print(f"SETUP {time.monotonic()!r}", flush=True)
    if args.setup_only:
        teardown(state)
        return 0
    out = Outcome()
    tracer = Tracer() if args.trace else None
    try:
        MEASURE[args.workload](state, args.seed, args.seconds, tracer, out)
    finally:
        teardown(state)
    rss = peak_rss_mb() + out.info.get("fleet_peak_rss_mb", 0.0)
    if tracer is None:
        out.metrics["peak_rss_mb"] = rss
    out.info["checks_failed"] = out.checks
    print("INFO " + json.dumps(out.info, sort_keys=True), flush=True)
    print(
        json.dumps(
            {
                "correct": not out.checks and out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": out.metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
