"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They check the benchmark, not the program: inputs are a pure function of
the seed, tracing changes no result, counts repeat across hash seeds,
every printed metric is declared, and self time is computed right.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import live  # noqa: E402
import sim  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def graph():
    return inputs.make_graph()


# -- inputs ------------------------------------------------------------------


def test_inputs_are_a_pure_function_of_the_seed(graph):
    def make(seed):
        return inputs.make_inputs(
            seed, graph, n_requests=200, write_every=10, n_arrivals=500
        )

    assert make(3).digest() == make(3).digest()
    assert make(3) == make(3)
    assert make(3).digest() != make(4).digest()
    assert make(3).requests != make(4).requests
    assert make(3).values != make(4).values


def test_inputs_match_the_paper_setting(graph):
    data = inputs.make_inputs(0, graph, n_requests=2000)
    assert data.n_items == 8217
    assert {len(v) for v in data.values} == {inputs.VALUE_BYTES}
    mean = sum(map(len, data.requests)) / len(data.requests)
    assert 9 < mean < 15  # ego-network requests, ~11 keys, heavy-tailed
    assert max(map(len, data.requests)) > 10 * mean


# -- tracing -----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    spans = [
        # (sid, pid, name, start, end, bytes): a root with two children
        # that overlap each other (asyncio) and one grandchild
        (1, 0, "root", 0.0, 10.0, 0),
        (2, 1, "a", 1.0, 4.0, 5),
        (3, 1, "b", 3.0, 6.0, 0),
        (4, 2, "c", 1.5, 2.0, 0),
    ]
    tracer._fold(spans)
    layers = tracer.roots["root"].layers
    assert layers["root"].self_s == pytest.approx(10.0 - 5.0)
    assert layers["a"].self_s == pytest.approx(3.0 - 0.5)
    assert layers["b"].self_s == pytest.approx(3.0)
    assert layers["c"].self_s == pytest.approx(0.5)
    assert layers["a"].bytes == 5
    assert tracer.roots["root"].edges[("c", "a")] == 1
    total_self = sum(layer.self_s for layer in layers.values())
    # overlapping children make the self times sum past the root's span
    assert total_self == pytest.approx(10.0 + 1.0)


def test_spans_nest_by_call_and_originals_come_back():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    original = Layer.__dict__["inner"]
    with instrument(tracer, [(Layer, "outer", "outer"), (Layer, "inner", "inner")]):
        assert Layer().outer() == 2
    assert Layer.__dict__["inner"] is original
    stats = tracer.roots["outer"]
    assert stats.requests == 1
    assert stats.edges[("inner", "outer")] == 1
    assert "inner" not in tracer.roots


# -- speed gauge ---------------------------------------------------------------


def test_gauge_reads_around_every_block(monkeypatch):
    readings = iter([0.006, 0.012, 0.003])
    gauge = speed.SpeedGauge()
    monkeypatch.setattr(gauge, "read", lambda: next(readings))
    blocks = gauge.run(0, lambda: "done")
    # a slow machine (long probe) shrinks times, a fast one stretches them
    assert [value for value, _ in blocks] == ["done", "done"]
    assert blocks[0][1] == pytest.approx((0.006 / 0.009) ** speed.EXPONENT)
    assert blocks[1][1] == pytest.approx((0.006 / 0.0075) ** speed.EXPONENT)


def test_rescaling_divides_rates_and_multiplies_times():
    raw = {"throughput_rps": [100.0, 300.0, 200.0], "latency_p50_us": [10.0, 30.0, 20.0]}
    scaled = worker.rescaled_medians(raw, [0.5, 0.5, 0.5])
    assert scaled == {"throughput_rps": 400.0, "latency_p50_us": 10.0}
    assert worker.raw_medians(raw) == {
        "raw_throughput_rps": 200.0, "raw_latency_p50_us": 20.0
    }


# -- traced runs return what untraced runs return ----------------------------


def _first_pass(graph, churn: bool, tracer):
    data = inputs.make_inputs(
        5, graph, n_requests=300, write_every=live.WRITE_EVERY if churn else 0
    )
    capacity = live.churn_capacity(data.n_items) if churn else None
    fleet = live.LiveFleet(data, inputs.make_placer(), capacity_bytes=capacity)
    loop = live.LiveLoop(fleet, churn=churn)
    with instrument(tracer, live.trace_targets()):
        loop.run(0, until_first_pass=True)
    return loop.first_pass.as_dict(), loop.write_lat


@pytest.mark.parametrize("churn", [False, True], ids=["live_read", "live_churn"])
def test_traced_live_run_returns_the_same_values_and_counts(graph, churn):
    plain, plain_writes = _first_pass(graph, churn, None)
    tracer = Tracer()
    traced, traced_writes = _first_pass(graph, churn, tracer)
    assert traced == plain
    assert plain["failed"] == 0
    assert len(traced_writes) == len(plain_writes)
    reads = tracer.roots["rnbclient.get_multi"]
    assert reads.requests == plain["requests"]
    assert reads.layers["memclient.get_multi"].calls == plain["transactions"]


def test_traced_sim_run_returns_the_same_token(graph):
    _, _, [plain] = sim.run_reps(graph, 2, 0)
    tracer = Tracer()
    with instrument(tracer, sim.trace_targets()):
        _, _, [traced] = sim.run_reps(graph, 2, 0, tracer)
    assert traced.determinism_token() == plain.determinism_token()
    assert plain.determinism_token() == sim.recorded_token(2)
    layers = tracer.roots["sim.run"].layers
    requests = sim.SIM_REQUESTS + sim.SIM_WARMUP
    assert layers["sim.execute"].calls == requests
    assert layers["setcover.cover"].calls > 0


# -- counts repeat across PYTHONHASHSEED ---------------------------------------


def _worker_info(workload: str, hashseed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.05", "--trace", "0"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = proc.stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("INFO "))[5:])
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        "txn_per_request": result["metrics"]["txn_per_request"],
        "item_miss_frac": info["item_miss_frac"],
        "first_pass": info.get("first_pass"),
        "token": info.get("token"),
    }


@pytest.mark.parametrize("workload", ["live_read", "sim_overbooked"])
def test_counts_repeat_exactly_across_hash_seeds(workload):
    assert _worker_info(workload, 1) == _worker_info(workload, 2)


@pytest.mark.xfail(
    strict=False,
    reason="known defect: the sync client groups repair waves by iterating a "
    "set of str keys, so live_churn's counts depend on PYTHONHASHSEED",
)
def test_live_churn_counts_repeat_across_hash_seeds():
    assert _worker_info("live_churn", 1) == _worker_info("live_churn", 2)


# -- every printed metric is declared ------------------------------------------


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in SPEC["workloads"]]
)
def test_every_printed_metric_is_declared(workload, trace):
    result = _run(workload, trace)
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
