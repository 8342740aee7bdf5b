"""The async RnB client: multiplexed in-flight bundles (docs/SERVING.md).

:class:`AsyncRnBClient` is the high-concurrency twin of
:class:`repro.protocol.rnbclient.RnBProtocolClient`.  It reuses the same
machinery — the cover planner (:class:`repro.core.bundling.Bundler`),
:class:`repro.protocol.retry.RetryPolicy`,
:class:`repro.faults.health.HealthTracker`,
:class:`repro.overload.breaker.BreakerBoard`, and the retryable
``SERVER_ERROR busy`` admission verdict — but executes differently:

* the fetches of one wave are dispatched **concurrently** (one
  coroutine each) instead of sequentially, so a wave's latency is its
  *slowest* transaction, not the sum;
* many ``get_multi`` calls may be in flight at once on one client; the
  per-server :class:`repro.aio.transport.AsyncConnectionPool` pipelines
  them over a handful of sockets;
* an optional per-request ``deadline`` degrades instead of failing:
  when the budget expires mid-request, still-pending fetches are
  cancelled and the outcome reports the keys obtained so far with
  ``deadline_hit=True`` — the async analogue of the overload ladder's
  "answer with what we have" rung (docs/OVERLOAD.md).

The read policy is the sync client's, because both drive the same
:class:`repro.core.session.ReadSession`: it fixes each wave's fetches
(round one, then distinguished-first repair waves cut to the LIMIT
quota, substitutes, the epoch re-plan) and this client sends each wave
concurrently.  BUSY sheds trip breakers but never the health tracker's
dead-server state machine, and exhausted keys are reported missing,
never raised.
"""

from __future__ import annotations

import asyncio
import time

from repro.cluster.placement import ReplicaPlacer
from repro.consistency.quorum import (
    COMMITTED,
    FAILED,
    PARTIAL,
    WriteOutcome,
    quorum_outcome,
    resolve_w,
)
from repro.consistency.readrepair import MISSING, STALE, ReadOutcome, newest_wins
from repro.consistency.version import VersionClock, decode_versioned, encode_versioned
from repro.core.bundling import Bundler
from repro.core.session import verdict_for
from repro.errors import ConfigurationError, ProtocolError, ServerBusy
from repro.faults.health import HealthTracker
from repro.protocol.retry import RetryPolicy, async_call_with_retries
from repro.protocol.rnbclient import FAILOVER_ERRORS, MultiGetOutcome, WireReadPath


class AsyncRnBClient(WireReadPath):
    """Replicate-and-Bundle over pooled, pipelined async connections.

    ``connections`` maps server id ->
    :class:`repro.aio.memclient.AsyncMemcachedClient`; everything else
    mirrors the sync client's constructor contract.
    """

    _path = "aio"

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
        super().__init__(
            connections,
            placer,
            bundler=bundler,
            write_back=write_back,
            retry_policy=retry_policy,
            health=health,
            rng=rng,
            sleep=sleep,  # None -> asyncio.sleep
            breakers=breakers,
            metrics=metrics,
            tracer=tracer,
            writer_id=writer_id,
        )
        #: version clock for the async quorum write path (parity with
        #: the sync client's set_versioned/get_versioned)
        self._vclock = VersionClock(
            writer_id, epoch_fn=lambda: getattr(self.placer, "epoch", 0)
        )
        self._quorum_counters = None
        self._div_counters = None

    # -- fault plumbing ------------------------------------------------------

    async def _fetch(
        self, sid: int, keys, counters: dict | None = None, parent=None
    ) -> dict:
        """One server's multi-get under the retry policy + health tracking."""
        conn = self.connections[sid]
        span = self._txn_span(sid, keys, parent)
        try:
            if self._use_retries(conn):
                got = await async_call_with_retries(
                    lambda: conn.get_multi(keys),
                    self.retry_policy,
                    rng=self.rng,
                    sleep=self.sleep,
                    on_retry=self._on_retry(sid, counters),
                )
            else:
                got = await conn.get_multi(keys)
        except FAILOVER_ERRORS as exc:
            self._fetch_failed(sid, exc, counters, span)
            raise
        self._fetch_ok(sid, span)
        return got

    async def _run_wave(self, wave, counters, parent, deadline_at: float | None):
        """Send one wave's fetches concurrently.

        Returns ``(results, deadline_hit)``: ``(fetch, keys or failover
        exception)`` pairs in wave order (deterministic, whatever order
        they complete in).  On deadline expiry the unfinished fetches are
        cancelled and only completed ones are returned — degrade, don't
        fail.
        """
        if not wave:
            return [], False
        tasks = [
            asyncio.ensure_future(
                self._fetch(f.server, f.primary + f.hitchhikers, counters, parent)
            )
            for f in wave
        ]
        timeout = None
        if deadline_at is not None:
            timeout = max(0.0, deadline_at - asyncio.get_running_loop().time())
        done, pending = await asyncio.wait(tasks, timeout=timeout)
        for t in pending:
            t.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        results = []
        for fetch, task in zip(wave, tasks):
            if task in done:
                exc = task.exception()
                if exc is not None and not isinstance(exc, FAILOVER_ERRORS):
                    raise exc
                results.append((fetch, task.result() if exc is None else exc))
        return results, bool(pending)

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
        resolve_w(w, len(replicas))  # validate before any replica is written
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
        result = quorum_outcome(key, stamp, replicas, acked, failed, w)
        instruments = self._quorum_instruments()
        if instruments is not None:
            instruments[result.outcome].inc()
        return result

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
        best, source, payload, newest, stale = newest_wins(replicas, seen, self._vclock)
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
        deadline_at = (
            asyncio.get_running_loop().time() + deadline if deadline is not None else None
        )
        session, req_span = self._open(keys, limit_fraction)
        counters: dict[str, int] = {}
        outcome = MultiGetOutcome()
        cut = False
        while wave := session.next_wave():
            results, cut = await self._run_wave(wave, counters, req_span, deadline_at)
            writebacks = []
            for fetch, got in results:
                if isinstance(got, BaseException):
                    session.record(fetch, verdict_for(got))
                    continue
                session.record(fetch, got)
                outcome.values.update(got)
                if self.write_back and not session.round_one:
                    for key, value in got.items():
                        target = session.writeback_target(key)
                        if target is not None:
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
                        session.mark_failed(target)
                    elif isinstance(res, BaseException):
                        raise res
            if cut:
                # the deadline expired mid-wave: cancelled fetches' keys
                # are simply still missing; report what arrived
                break
        outcome.deadline_hit = cut
        return self._close(outcome, session, counters, started, req_span)

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
