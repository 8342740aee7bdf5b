"""Run one benchmark workload and print its result as the last JSON line.

    python3 perfbench/run.py --workload live_read --seed 1 --seconds 10 --trace 0

Run it from the repository root.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.  The exit
code is 0 only if every output the workload checked was correct.

Set-up time is measured from outside: each set-up runs in a fresh
interpreter (``worker.py``), ``SETUP_RUNS`` times per run, the last of
them followed by the measured run, and ``setup_s`` is their median.

``PYTHONHASHSEED`` is not pinned: unless the caller set it, one value is
drawn per run, passed to every interpreter of the run and printed on the
``INFO`` line, so a run that misbehaves can be replayed exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh-interpreter set-ups per run (the last one is the measured run's)
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60
MEASURE_GRACE_S = 90


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def worker(args, env: dict, *extra: str, timeout: float) -> tuple[float, list[str]]:
    """Run one worker; returns (set-up seconds, stdout lines after SETUP)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    marks = [i for i, line in enumerate(lines) if line.startswith("SETUP ")]
    if not marks:
        raise RuntimeError("worker printed no SETUP line")
    ready = float(lines[marks[0]].split()[1])
    return ready - started, lines[marks[0] + 1 :]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    hashseed = os.environ.get("PYTHONHASHSEED") or str(random.randrange(1, 2**32 - 1))
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    try:
        units = declared_metrics(args.trace)
        setups = [
            worker(args, env, "--setup-only", timeout=SETUP_TIMEOUT_S)[0]
            for _ in range(SETUP_RUNS - 1)
        ]
        setup_s, lines = worker(
            args, env, timeout=SETUP_TIMEOUT_S + args.seconds + MEASURE_GRACE_S
        )
        setups.append(setup_s)
        result = json.loads(lines[-1])
    except (OSError, RuntimeError, ValueError, KeyError, IndexError,
            subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    raw = result["metrics"]
    not_applicable = []
    if args.trace:
        raw["error_rate"] = result["failed"] / result["attempted"]
        # a layer the workload never runs reads 0 (e.g. quorum writes on
        # live_read); the INFO line names those metrics
        not_applicable = sorted(set(units) - set(raw))
        raw.update(dict.fromkeys(not_applicable, 0.0))
    else:
        raw["setup_s"] = statistics.median(setups)
    undeclared = sorted(set(raw) - set(units))
    missing = sorted(set(units) - set(raw))
    if undeclared or missing:
        print(f"perfbench: undeclared {undeclared}, missing {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {
        name: {"value": raw[name], "unit": units[name]} for name in units
    }
    info = [line for line in lines if line.startswith("INFO ")]
    details = json.loads(info[-1][5:]) if info else {}
    details.update(
        workload=args.workload, seed=args.seed, pythonhashseed=int(hashseed),
        setup_runs_s=setups, not_applicable=not_applicable,
    )
    print("INFO " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
