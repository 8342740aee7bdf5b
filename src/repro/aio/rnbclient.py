"""The async RnB client: multiplexed in-flight bundles (docs/SERVING.md).

:class:`AsyncRnBClient` is the high-concurrency twin of
:class:`repro.protocol.rnbclient.RnBProtocolClient`.  It reuses the same
machinery — the cover planner (:class:`repro.core.bundling.Bundler`),
:class:`repro.protocol.retry.RetryPolicy`,
:class:`repro.faults.health.HealthTracker`,
:class:`repro.overload.breaker.BreakerBoard`, and the retryable
``SERVER_ERROR busy`` admission verdict — but executes differently:

* the transactions of one bundle plan are dispatched **concurrently**
  (one coroutine each) instead of sequentially, so a multi-get's
  latency is the *slowest* transaction, not the sum;
* many ``get_multi`` calls may be in flight at once on one client; the
  per-server :class:`repro.aio.transport.AsyncConnectionPool` pipelines
  them over a handful of sockets;
* an optional per-request ``deadline`` degrades instead of failing:
  when the budget expires mid-request, still-pending fetches are
  cancelled and the outcome reports the keys obtained so far with
  ``deadline_hit=True`` — the async analogue of the overload ladder's
  "answer with what we have" rung (docs/OVERLOAD.md).

Failover semantics match the sync client: a dead server's primaries are
re-fetched from surviving replicas in bundled repair waves, BUSY sheds
trip breakers but never the health tracker's dead-server state machine,
and exhausted keys are reported missing, never raised.  Membership
(epoch re-planning) is not threaded through the async path yet — use
the sync client where live topology changes must commit proposals.
"""

from __future__ import annotations

import asyncio
import time
from collections import defaultdict

from repro.cluster.placement import ReplicaPlacer
from repro.consistency.quorum import COMMITTED, FAILED, PARTIAL, WriteOutcome, resolve_w
from repro.consistency.readrepair import MISSING, STALE, ReadOutcome
from repro.consistency.version import (
    VersionClock,
    decode_versioned,
    encode_versioned,
    newer,
)
from repro.core.bundling import Bundler
from repro.errors import ConfigurationError, ProtocolError, ServerBusy
from repro.faults.health import HealthTracker
from repro.protocol.retry import RetryPolicy, async_call_with_retries
from repro.protocol.rnbclient import (
    FAILOVER_ERRORS,
    MultiGetOutcome,
    _record_outcome,
    _request_instruments,
)
from repro.types import Request


class AsyncRnBClient:
    """Replicate-and-Bundle over pooled, pipelined async connections.

    ``connections`` maps server id ->
    :class:`repro.aio.memclient.AsyncMemcachedClient`; everything else
    mirrors the sync client's constructor contract.
    """

    def __init__(
        self,
        connections: dict,
        placer: ReplicaPlacer,
        *,
        bundler: Bundler | None = None,
        write_back: bool = True,
        retry_policy: RetryPolicy | None = None,
        health: HealthTracker | None = None,
        rng=None,
        sleep=None,
        breakers=None,
        metrics=None,
        tracer=None,
        writer_id: int = 0,
    ) -> None:
        needed = set(range(placer.n_servers))
        if not needed <= set(connections):
            raise ConfigurationError(
                "connections must cover every server the placer can route to; "
                f"missing {sorted(needed - set(connections))}"
            )
        self.connections = dict(connections)
        self.placer = placer
        self.bundler = bundler or Bundler(placer, metrics=metrics)
        if self.bundler.placer is not placer:
            raise ConfigurationError("bundler must share the client's placer")
        self.write_back = write_back
        self.retry_policy = retry_policy
        self.health = health
        self.rng = rng
        self.sleep = sleep  # None -> asyncio.sleep
        self.breakers = breakers
        if breakers is not None:
            if self.health is None:
                self.health = HealthTracker(placer.n_servers)
            breakers.ensure_capacity(placer.n_servers)
            self.health.add_observer(breakers)
        #: lifetime BUSY sheds observed (the loadgen's shed counter)
        self.busy_sheds = 0
        #: optional repro.obs wiring: a MetricsRegistry feeds the
        #: ``path="aio"`` request families (docs/OBSERVABILITY.md) and a
        #: Tracer records request -> plan/txn spans on the wall clock
        self._tracer = tracer
        self.metrics = metrics
        self._metrics = _request_instruments(metrics, "aio")
        #: version clock for the async quorum write path (parity with
        #: the sync client's set_versioned/get_versioned)
        self.writer_id = writer_id
        self._vclock = VersionClock(
            writer_id, epoch_fn=lambda: getattr(self.placer, "epoch", 0)
        )
        self._quorum_counters = None
        self._div_counters = None

    # -- fault plumbing ------------------------------------------------------

    async def _fetch(
        self, sid: int, keys, counters: dict | None = None, parent=None
    ) -> dict:
        """One server's multi-get under the retry policy + health tracking.

        Identical layering to the sync client: a connection that carries
        its own policy is not retried on top (attempts would compound).
        """
        conn = self.connections[sid]
        span = (
            self._tracer.start("txn", parent=parent, server=sid, n_keys=len(keys))
            if self._tracer is not None
            else None
        )

        try:
            if self.retry_policy is None or getattr(conn, "policy", None) is not None:
                got = await conn.get_multi(keys)
            else:

                def _on_retry(attempt_no, exc):
                    if counters is not None:
                        counters["retries"] = counters.get("retries", 0) + 1
                    if self.health is not None:
                        self.health.record_error(sid)

                got = await async_call_with_retries(
                    lambda: conn.get_multi(keys),
                    self.retry_policy,
                    rng=self.rng,
                    sleep=self.sleep,
                    on_retry=_on_retry,
                )
        except ServerBusy:
            # backpressure shed: the server is alive, just overloaded —
            # trip breakers, never the health tracker
            self.busy_sheds += 1
            if counters is not None:
                counters["busy"] = counters.get("busy", 0) + 1
            if self.breakers is not None:
                self.breakers.record_failure(sid)
            if self._metrics is not None:
                self._metrics["busy"].inc()
            if span is not None:
                self._tracer.finish(span, outcome="busy")
            raise
        except FAILOVER_ERRORS:
            if self.health is not None:
                self.health.record_error(sid)
            if span is not None:
                self._tracer.finish(span, outcome="error")
            raise
        if self.health is not None:
            self.health.record_success(sid)
        if span is not None:
            self._tracer.finish(span, outcome="ok")
        return got

    async def _fetch_result(self, sid: int, keys, counters, parent=None):
        """:meth:`_fetch` with the exception folded into the return value,
        so a wave of concurrent fetches can be aggregated in task order
        (deterministic) rather than completion order."""
        try:
            return sid, tuple(keys), await self._fetch(sid, keys, counters, parent)
        except FAILOVER_ERRORS as exc:
            return sid, tuple(keys), exc

    async def _run_wave(
        self, jobs: list, deadline_at: float | None
    ) -> tuple[list, bool]:
        """Run one wave of fetch coroutines concurrently.

        Returns ``(results_in_job_order, deadline_hit)``.  On deadline
        expiry the unfinished fetches are cancelled and only completed
        results are returned — degrade, don't fail.
        """
        if not jobs:
            return [], False
        tasks = [asyncio.ensure_future(job) for job in jobs]
        if deadline_at is None:
            await asyncio.wait(tasks)
            return [t.result() for t in tasks], False
        remaining = deadline_at - asyncio.get_running_loop().time()
        if remaining <= 0:
            for t in tasks:
                t.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            return [], True
        done, pending = await asyncio.wait(tasks, timeout=remaining)
        for t in pending:
            t.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        return [t.result() for t in tasks if t in done], bool(pending)

    # -- write path --------------------------------------------------------

    async def set(self, key: str, value: bytes, *, replicate: bool = True) -> None:
        """Store ``key`` on all replica servers (concurrently)."""
        servers = self.placer.servers_for(key) if replicate else (
            self.placer.distinguished_for(key),
        )
        results = await asyncio.gather(
            *(self.connections[sid].set(key, value) for sid in servers)
        )
        for sid, stored in zip(servers, results):
            if not stored:
                raise ProtocolError(f"set of {key!r} failed on server {sid}")

    async def delete(self, key: str) -> None:
        """Remove every replica of ``key`` (missing replicas are fine)."""
        await asyncio.gather(
            *(self.connections[sid].delete(key) for sid in self.placer.servers_for(key))
        )

    # -- versioned write path (repro.consistency parity) ---------------------

    def _quorum_instruments(self):
        if self._quorum_counters is None and self.metrics is not None:
            self._quorum_counters = {
                outcome: self.metrics.counter(
                    "rnb_quorum_writes_total",
                    "quorum writes by outcome",
                    outcome=outcome,
                    path="aio",
                )
                for outcome in (COMMITTED, PARTIAL, FAILED)
            }
        return self._quorum_counters

    async def set_versioned(self, key: str, value: bytes, *, w="majority") -> WriteOutcome:
        """Quorum write with **concurrent** replica dispatch.

        Same W policies and outcome semantics as the sync client's
        ``set_versioned`` (docs/CONSISTENCY.md); the replicas are written
        in parallel, so latency is the W-th fastest ack, not the sum —
        this closes the ROADMAP follow-up "async quorum write path".
        """
        replicas = tuple(self.placer.servers_for(key))
        need = resolve_w(w, len(replicas))
        stamp = self._vclock.next_stamp()
        data = encode_versioned(value, stamp)
        results = await asyncio.gather(
            *(self.connections[sid].set(key, data) for sid in replicas),
            return_exceptions=True,
        )
        acked: list[int] = []
        failed: list[int] = []
        for sid, res in zip(replicas, results):
            if res is True:
                acked.append(sid)
                if self.health is not None:
                    self.health.record_success(sid)
            elif isinstance(res, ServerBusy):
                failed.append(sid)  # shed, not sick: no health strike
                if self.breakers is not None:
                    self.breakers.record_failure(sid)
            elif res is False or isinstance(res, FAILOVER_ERRORS):
                failed.append(sid)
                if isinstance(res, FAILOVER_ERRORS) and self.health is not None:
                    self.health.record_error(sid)
            elif isinstance(res, BaseException):
                raise res
        committed = len(acked) >= need
        if w == "leader" and replicas and replicas[0] not in acked:
            committed = False
        outcome = FAILED if not committed else (PARTIAL if failed else COMMITTED)
        instruments = self._quorum_instruments()
        if instruments is not None:
            instruments[outcome].inc()
        return WriteOutcome(
            key=key,
            stamp=stamp,
            acked=tuple(acked),
            failed=tuple(failed),
            w=need,
            outcome=outcome,
        )

    async def get_versioned(self, key: str, *, repair: bool = True) -> ReadOutcome:
        """Versioned read across all replicas (concurrently) with inline
        newest-wins read-repair — async parity for the sync client."""
        replicas = tuple(self.placer.servers_for(key))
        results = await asyncio.gather(
            *(self.connections[sid].get(key) for sid in replicas),
            return_exceptions=True,
        )
        seen: dict[int, tuple] = {}
        missing: list[int] = []
        dead: list[int] = []
        for sid, res in zip(replicas, results):
            if isinstance(res, FAILOVER_ERRORS):
                dead.append(sid)
                if self.health is not None:
                    self.health.record_error(sid)
                continue
            if isinstance(res, BaseException):
                raise res
            if self.health is not None:
                self.health.record_success(sid)
            if res is None:
                missing.append(sid)
            else:
                seen[sid] = decode_versioned(res)
        best = source = payload = None
        for sid in replicas:
            if sid not in seen:
                continue
            stamp, data = seen[sid]
            self._vclock.observe(stamp)
            if source is None or newer(stamp, best):
                best, source, payload = stamp, sid, data
        newest = tuple(
            sid for sid, (stamp, _) in seen.items() if not newer(best, stamp)
        )
        stale = tuple(sid for sid in seen if sid not in newest)
        if self.metrics is not None:
            if self._div_counters is None:
                self._div_counters = {
                    kind: self.metrics.counter(
                        "rnb_divergences_total",
                        "replica divergences detected by versioned reads",
                        kind=kind,
                        path="aio",
                    )
                    for kind in (STALE, MISSING)
                }
            if stale:
                self._div_counters[STALE].inc(len(stale))
            if missing and newest:
                self._div_counters[MISSING].inc(len(missing))
        repaired: list[int] = []
        targets = (stale + tuple(missing)) if newest else ()
        if repair and targets and best is not None:
            data = encode_versioned(payload or b"", best)
            fixes = await asyncio.gather(
                *(self.connections[sid].set(key, data) for sid in targets),
                return_exceptions=True,
            )
            for sid, res in zip(targets, fixes):
                if res is True:
                    repaired.append(sid)
        return ReadOutcome(
            key=key,
            stamp=best,
            payload=payload,
            source=source,
            newest=newest,
            stale=stale,
            missing=tuple(missing),
            dead=tuple(dead),
            repaired=tuple(repaired),
            queued=0,
        )

    # -- read path -----------------------------------------------------------

    async def get_multi(
        self,
        keys,
        *,
        limit_fraction: float | None = None,
        deadline: float | None = None,
    ) -> MultiGetOutcome:
        """Bundled multi-get with concurrent dispatch and miss repair.

        ``deadline`` (seconds) bounds the whole request; on expiry the
        outcome carries whatever arrived (``deadline_hit=True``).
        """
        keys = tuple(dict.fromkeys(keys))  # dedupe, keep order
        if not keys:
            return MultiGetOutcome()
        if deadline is not None and deadline <= 0:
            raise ConfigurationError("deadline must be positive (or None)")
        started = time.perf_counter()
        req_span = (
            self._tracer.start("request", n_keys=len(keys))
            if self._tracer is not None
            else None
        )
        deadline_at = (
            asyncio.get_running_loop().time() + deadline if deadline is not None else None
        )
        request = Request(items=keys, limit_fraction=limit_fraction)
        exclude = self.health.exclusions() if self.health is not None else frozenset()
        if self.breakers is not None:
            self.breakers.advance()
            exclude = exclude | self.breakers.tripped()
        plan = self.bundler.plan(request, exclude=exclude or None)
        if req_span is not None:
            self._tracer.finish(
                self._tracer.start(
                    "plan", parent=req_span, n_txns=len(plan.transactions)
                )
            )

        counters: dict[str, int] = {}
        outcome = MultiGetOutcome()
        failed: set[int] = set()
        missed_primary: dict[str, int] = {}

        jobs = [
            self._fetch_result(
                txn.server, (*txn.primary, *txn.hitchhikers), counters, req_span
            )
            for txn in plan.transactions
        ]
        results, cut = await self._run_wave(jobs, deadline_at)
        for txn, (sid, _, got) in zip(plan.transactions, results):
            if isinstance(got, BaseException):
                failed.add(sid)
                for key in txn.primary:
                    missed_primary[key] = sid
                continue
            outcome.transactions += 1
            outcome.values.update(got)
            for key in txn.primary:
                if key not in got:
                    missed_primary[key] = sid
        if cut:
            # deadline mid-first-round: cancelled transactions' primaries
            # are simply still missing; skip repair and report degraded
            return self._finalize(
                outcome, keys, failed, counters,
                deadline_hit=True, started=started, req_span=req_span,
            )

        # Repair waves: same policy as the sync client (distinguished
        # copy first, then surviving replicas), but each wave's bundles
        # run concurrently.
        required = request.required_items
        pending = {k for k in missed_primary if k not in outcome.values}
        tried: dict[str, set[int]] = {k: {missed_primary[k]} for k in pending}
        unplanned = [
            k for k in keys if k not in outcome.values and k not in missed_primary
        ]
        while len(outcome.values) < required:
            groups: dict[int, list[str]] = defaultdict(list)
            for key in sorted(pending):
                candidates = [
                    s
                    for s in self.placer.servers_for(key)
                    if s not in failed and s not in tried[key]
                ]
                if not candidates:
                    pending.discard(key)  # exhausted: genuinely missing
                    continue
                groups[candidates[0]].append(key)
            if not groups:
                if unplanned:
                    for key in unplanned:
                        pending.add(key)
                        tried[key] = set()
                    unplanned = []
                    continue
                break
            wave = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
            jobs = [
                self._fetch_result(sid, group, counters, req_span)
                for sid, group in wave
            ]
            results, cut = await self._run_wave(jobs, deadline_at)
            writebacks = []
            for sid, group, got in results:
                if isinstance(got, BaseException):
                    failed.add(sid)
                    continue
                outcome.transactions += 1
                outcome.second_round_transactions += 1
                for key in group:
                    tried[key].add(sid)
                outcome.values.update(got)
                outcome.misses_repaired += len(got)
                for key in got:
                    pending.discard(key)
                if self.write_back:
                    for key, value in got.items():
                        target = missed_primary.get(key)
                        if target is not None and target not in failed:
                            writebacks.append((target, key, value))
            if writebacks:
                wb_results = await asyncio.gather(
                    *(
                        self.connections[target].set(key, value)
                        for target, key, value in writebacks
                    ),
                    return_exceptions=True,
                )
                for (target, _, _), res in zip(writebacks, wb_results):
                    if isinstance(res, FAILOVER_ERRORS):
                        failed.add(target)
                    elif isinstance(res, BaseException):
                        raise res
            if cut:
                return self._finalize(
                    outcome, keys, failed, counters,
                    deadline_hit=True, started=started, req_span=req_span,
                )

        return self._finalize(
            outcome, keys, failed, counters,
            deadline_hit=False, started=started, req_span=req_span,
        )

    def _finalize(
        self,
        outcome: MultiGetOutcome,
        keys: tuple,
        failed: set,
        counters: dict,
        *,
        deadline_hit: bool,
        started: float = 0.0,
        req_span=None,
    ) -> MultiGetOutcome:
        outcome.missing = tuple(k for k in keys if k not in outcome.values)
        outcome.failed_servers = tuple(sorted(failed))
        outcome.retries = counters.get("retries", 0)
        outcome.busy_sheds = counters.get("busy", 0)
        outcome.deadline_hit = deadline_hit
        _record_outcome(self._metrics, outcome, time.perf_counter() - started)
        if req_span is not None:
            self._tracer.finish(
                req_span, n_missing=len(outcome.missing), deadline_hit=deadline_hit
            )
        return outcome

    async def get(self, key: str) -> bytes | None:
        """Single-item get from the distinguished copy (paper III-C1),
        failing over to the other replicas only if its server is down."""
        last_error: Exception | None = None
        reached_any = False
        for sid in self.placer.servers_for(key):
            try:
                value = await self.connections[sid].get(key)
            except FAILOVER_ERRORS as exc:
                last_error = exc
                continue
            reached_any = True
            if value is not None:
                return value
            if sid == self.placer.distinguished_for(key):
                return None  # the distinguished copy is authoritative
        if not reached_any and last_error is not None:
            raise ProtocolError(f"all replicas of {key!r} unreachable") from last_error
        return None
