"""The sync RnB client's results must not depend on ``PYTHONHASHSEED``.

Repair waves group the still-missing keys by their next candidate
server, and under LIMIT a group is truncated to the remaining quota, so
the order the keys are grouped in decides which keys come back.  The
scenario below (8 servers, R=2, 60 keys, 20 failure x LIMIT cases) runs
in two interpreters with different hash seeds; every case must return
the same values, missing keys and transaction counts in both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCENARIO = """
import json

from repro.hashing.rch import RangedConsistentHashPlacer
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.rnbclient import RnBProtocolClient
from repro.protocol.transport import LoopbackTransport


class Failable(LoopbackTransport):
    alive = True

    def exchange(self, request, n_responses=1):
        if not self.alive:
            raise ConnectionError("server down")
        return super().exchange(request, n_responses)


keys = [f"key{i}" for i in range(60)]
placer = RangedConsistentHashPlacer(8, 2, vnodes=32)
# both replicas of some planned keys die, so the client recruits the
# unplanned keys as LIMIT substitutes and truncates their repair groups
dead_sets = [list(placer.servers_for(key)) for key in keys[:4]]
out = []
for dead in dead_sets:
    for limit in (None, 0.3, 0.5, 0.7, 0.9):
        transports = {s: Failable(MemcachedServer(name=f"m{s}")) for s in range(8)}
        client = RnBProtocolClient(
            {s: MemcachedConnection(t) for s, t in transports.items()},
            placer,
            write_back=False,
        )
        for key in keys:
            client.set(key, key.encode())
        for s in dead:
            transports[s].alive = False
        got = client.get_multi(keys, limit_fraction=limit)
        out.append(
            {
                "dead": dead,
                "limit": limit,
                "values": sorted(got.values),
                "missing": list(got.missing),
                "transactions": got.transactions,
                "second_round": got.second_round_transactions,
            }
        )
print(json.dumps(out))
"""


def _run(hash_seed: str) -> list:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCENARIO],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_results_identical_under_two_hash_seeds():
    first, second = _run("1"), _run("2")
    assert len(first) == 20
    assert any(case["second_round"] for case in first)  # repair waves ran
    assert first == second
