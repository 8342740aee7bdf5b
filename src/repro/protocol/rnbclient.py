"""RnB over the real protocol: the proof-of-concept client (paper §IV).

:class:`RnBProtocolClient` is the protocol-level twin of the simulator's
:class:`repro.core.client.RnBClient`:

* **writes** go to all R replica servers chosen by Ranged Consistent
  Hashing (or, in ``lazy`` mode, only to the distinguished copy, letting
  replicas materialise on demand — the paper's atomic-operation scheme);
* **multi-gets** are bundled by greedy set cover and executed one
  transaction per chosen server;
* **misses** (an evicted replica) are repaired from the distinguished
  copy in a bundled second round and written back to the first-picked
  replica server, exactly like the simulator's miss path;
* **server failures** degrade gracefully: a transaction to a dead server
  is treated as a full miss, and the affected items are re-fetched from
  their surviving replicas — the "replication already exists for
  reliability" dividend the paper points at (sections I-C, III-B);
* **retry/backoff/health** (docs/FAULTS.md): with a
  :class:`repro.protocol.retry.RetryPolicy`, transient transport errors
  are retried under bounded exponential backoff before failover kicks
  in, and a :class:`repro.faults.health.HealthTracker` learns which
  servers are dead so later plans exclude them up front;
* **overload** (docs/OVERLOAD.md): with a
  :class:`repro.overload.breaker.BreakerBoard`, tripped servers are
  excluded from covers like dead ones, and ``SERVER_ERROR busy`` sheds
  count as soft failures — after the retry budget they fail over to the
  item's other replicas like a dead server would, but they only trip
  breakers, never the health tracker's dead-server state machine.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.cluster.placement import ReplicaPlacer
from repro.core.bundling import Bundler
from repro.errors import ConfigurationError, ProtocolError, ServerBusy
from repro.faults.health import HealthTracker
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.retry import RetryPolicy, call_with_retries
from repro.types import Request

#: transport/socket errors treated as a server being down (ServerDown and
#: ServerTimeout from repro.errors are ConnectionError/TimeoutError
#: subclasses, so injected and real failures are caught alike)
FAILOVER_ERRORS = (ProtocolError, ConnectionError, OSError)


def _request_instruments(metrics, path: str) -> dict | None:
    """The shared per-request instrument set of the metric catalog.

    Both live read paths (sync ``path="live"``, async ``path="aio"``)
    and the DES (``path="sim"``) register these same families, which is
    what lets ``rnb stats`` and the experiments diff telemetry across
    time domains (docs/OBSERVABILITY.md).
    """
    if metrics is None:
        return None
    return {
        "latency": metrics.histogram(
            "rnb_request_latency_seconds", "end-to-end request latency", path=path
        ),
        "ok": metrics.counter(
            "rnb_requests_total", "requests by outcome", path=path, outcome="ok"
        ),
        "degraded": metrics.counter(
            "rnb_requests_total", "requests by outcome", path=path, outcome="degraded"
        ),
        "failed": metrics.counter(
            "rnb_requests_total", "requests by outcome", path=path, outcome="failed"
        ),
        "served": metrics.counter(
            "rnb_items_total", "items by outcome", path=path, outcome="served"
        ),
        "missing": metrics.counter(
            "rnb_items_total", "items by outcome", path=path, outcome="missing"
        ),
        "retries": metrics.counter(
            "rnb_retries_total", "transport retries", path=path
        ),
        "busy": metrics.counter(
            "rnb_busy_sheds_total", "dispatches shed by admission control", path=path
        ),
        "deadline": metrics.counter(
            "rnb_deadline_hits_total", "requests cut off by their deadline", path=path
        ),
    }


def _record_outcome(
    instruments: dict | None, outcome: "MultiGetOutcome", elapsed: float
) -> None:
    """Fold one finished multi-get into the per-request instruments."""
    if instruments is None:
        return
    instruments["latency"].observe(elapsed)
    instruments["degraded" if (outcome.missing or outcome.deadline_hit) else "ok"].inc()
    instruments["served"].inc(len(outcome.values))
    instruments["missing"].inc(len(outcome.missing))
    instruments["retries"].inc(outcome.retries)
    if outcome.deadline_hit:
        instruments["deadline"].inc()


@dataclass(slots=True)
class MultiGetOutcome:
    """Result of one RnB multi-get."""

    values: dict[str, bytes] = field(default_factory=dict)
    transactions: int = 0
    second_round_transactions: int = 0
    misses_repaired: int = 0
    retries: int = 0
    missing: tuple[str, ...] = ()
    failed_servers: tuple[int, ...] = ()
    #: topology epoch the request finished under (None without an
    #: epoch-aware placer)
    epoch: int | None = None
    #: membership changes committed from this request's dead verdicts
    membership_commits: int = 0
    #: the per-request deadline expired before every key was fetched
    #: (async path only; the request degraded instead of failing)
    deadline_hit: bool = False
    #: BUSY sheds observed while serving this request (async path only)
    busy_sheds: int = 0


class RnBProtocolClient:
    """Replicate-and-Bundle client over live memcached connections."""

    def __init__(
        self,
        connections: dict[int, MemcachedConnection],
        placer: ReplicaPlacer,
        *,
        bundler: Bundler | None = None,
        write_back: bool = True,
        retry_policy: RetryPolicy | None = None,
        health: HealthTracker | None = None,
        rng=None,
        sleep=time.sleep,
        membership=None,
        breakers=None,
        metrics=None,
        tracer=None,
        writer_id: int = 0,
    ) -> None:
        # An epoch-aware placer only routes to servers alive in its view,
        # so connections must cover those; a static placer needs the full
        # id range.  Extra connections (e.g. for servers expected to join)
        # are allowed either way.
        view = getattr(placer, "view", None)
        needed = (
            set(view.alive_servers)
            if view is not None
            else set(range(placer.n_servers))
        )
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
        #: one config object for every network knob (timeouts + retries);
        #: None preserves the legacy single-attempt behaviour
        self.retry_policy = retry_policy
        #: error-driven server state; dead servers are excluded from plans
        self.health = health
        self.rng = rng
        self.sleep = sleep
        #: optional MembershipService: dead verdicts become removal
        #: proposals, and a mid-request epoch change triggers one
        #: re-plan round over the new view for still-missing keys
        self.membership = membership
        #: optional circuit-breaker board (repro.overload.breaker):
        #: tripped servers are excluded from covers; outcomes feed it
        #: through the health tracker's observer hook, so a tracker is
        #: created when the caller supplied only a board.  BUSY sheds
        #: (``SERVER_ERROR busy``) are reported as *soft* failures —
        #: they trip breakers but never mark a server dead.
        self.breakers = breakers
        if breakers is not None:
            if self.health is None:
                self.health = HealthTracker(placer.n_servers)
            breakers.ensure_capacity(placer.n_servers)
            self.health.add_observer(breakers)
        self.seen_epoch: int | None = getattr(placer, "epoch", None)
        #: optional repro.obs wiring: a MetricsRegistry feeds the
        #: ``path="live"`` request families (docs/OBSERVABILITY.md) and a
        #: Tracer records request -> plan/txn spans on the wall clock
        self._tracer = tracer
        #: the registry itself stays public so satellite layers (the
        #: consistency stack, atomic_update/read_repair instrumentation)
        #: can register their own families on it
        self.metrics = metrics
        self._metrics = _request_instruments(metrics, "live")
        #: id carried in this client's version stamps (tiebreak between
        #: concurrent writers; see repro.consistency.version)
        self.writer_id = writer_id
        self._cons_store = None
        self._cons_clock = None
        self._cons_reader = None
        self._cons_writers: dict = {}

    # -- fault plumbing ------------------------------------------------------

    def _fetch(
        self, sid: int, keys, counters: dict | None = None, parent=None
    ) -> dict:
        """One server's multi-get under the retry policy + health tracking.

        If the connection itself already retries (it was built with its
        own policy), the client does not retry on top — attempts would
        compound to ``(max_retries+1)^2`` otherwise.
        """
        conn = self.connections[sid]
        span = (
            self._tracer.start("txn", parent=parent, server=sid, n_keys=len(keys))
            if self._tracer is not None
            else None
        )

        try:
            if self.retry_policy is None or getattr(conn, "policy", None) is not None:
                got = conn.get_multi(keys)
            else:

                def _on_retry(attempt_no, exc):
                    if counters is not None:
                        counters["retries"] = counters.get("retries", 0) + 1
                    if self.health is not None:
                        self.health.record_error(sid)

                got = call_with_retries(
                    lambda: conn.get_multi(keys),
                    self.retry_policy,
                    rng=self.rng,
                    sleep=self.sleep,
                    on_retry=_on_retry,
                )
        except ServerBusy:
            # backpressure shed (SERVER_ERROR busy): the server is alive,
            # just overloaded — trip breakers, never the health tracker
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
            if self._propose_if_dead(sid) and counters is not None:
                counters["commits"] = counters.get("commits", 0) + 1
            if span is not None:
                self._tracer.finish(span, outcome="error")
            raise
        if self.health is not None:
            self.health.record_success(sid)
        if span is not None:
            self._tracer.finish(span, outcome="ok")
        return got

    def _propose_if_dead(self, sid: int) -> bool:
        """Promote a health "dead" verdict into a membership proposal.

        Returns True iff the proposal committed a new epoch (the shared
        epoched placer now routes around ``sid``).
        """
        if self.membership is None or self.health is None:
            return False
        if self.health.state(sid) != "dead":
            return False
        return self.membership.propose_removal(sid, source=self)

    # -- write path --------------------------------------------------------

    def set(self, key: str, value: bytes, *, replicate: bool = True) -> None:
        """Store ``key`` on all replica servers (or distinguished only)."""
        servers = self.placer.servers_for(key) if replicate else (
            self.placer.distinguished_for(key),
        )
        for sid in servers:
            if not self.connections[sid].set(key, value):
                raise ProtocolError(f"set of {key!r} failed on server {sid}")

    def delete(self, key: str) -> None:
        """Remove every replica of ``key`` (missing replicas are fine)."""
        for sid in self.placer.servers_for(key):
            self.connections[sid].delete(key)

    # -- versioned write path (repro.consistency) ---------------------------

    def _consistency_stack(self) -> None:
        """Lazily build the shared store/clock/reader the versioned
        methods use (plain ``set``/``get`` callers never pay for it)."""
        if self._cons_store is not None:
            return
        from repro.consistency import VersionClock, VersionedReader, WireStore

        self._cons_store = WireStore(self.connections, self.placer)
        self._cons_clock = VersionClock(
            self.writer_id, epoch_fn=lambda: getattr(self.placer, "epoch", 0)
        )
        self._cons_reader = VersionedReader(
            self._cons_store,
            self.placer,
            clock=self._cons_clock,
            health=self.health,
        )
        if self.metrics is not None:
            self._cons_reader.bind_metrics(self.metrics, path="live")

    def set_versioned(self, key: str, value: bytes, *, w="majority"):
        """Quorum write: commit ``key`` at W of its R replicas.

        Returns the :class:`repro.consistency.quorum.WriteOutcome`; see
        docs/CONSISTENCY.md for the W policies and what each outcome
        guarantees.  The value is wrapped in the version envelope, so
        plain :meth:`get` returns envelope bytes — use
        :meth:`get_versioned` to read them back decoded.
        """
        self._consistency_stack()
        writer = self._cons_writers.get(w)
        if writer is None:
            from repro.consistency import QuorumWriter

            writer = self._cons_writers[w] = QuorumWriter(
                self._cons_store,
                self.placer,
                clock=self._cons_clock,
                w=w,
                health=self.health,
            )
            if self.metrics is not None:
                writer.bind_metrics(self.metrics, path="live")
        return writer.write(key, value)

    def get_versioned(self, key: str, *, repair: bool = True):
        """Versioned read across all replicas with inline read-repair.

        Returns the :class:`repro.consistency.readrepair.ReadOutcome`
        (payload, winning stamp, and which replicas were stale, missing,
        dead, or repaired).
        """
        self._consistency_stack()
        return self._cons_reader.read(key, repair=repair)

    # -- read path -----------------------------------------------------------

    def get_multi(self, keys, *, limit_fraction: float | None = None) -> MultiGetOutcome:
        """Bundled multi-get with miss repair.

        ``limit_fraction`` turns this into a LIMIT-style fetch: at least
        ``ceil(fraction * len(keys))`` values are returned, any subset.
        """
        keys = tuple(dict.fromkeys(keys))  # dedupe, keep order
        if not keys:
            return MultiGetOutcome()
        started = time.perf_counter()
        req_span = (
            self._tracer.start("request", n_keys=len(keys))
            if self._tracer is not None
            else None
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
        for txn in plan.transactions:
            asked = (*txn.primary, *txn.hitchhikers)
            try:
                got = self._fetch(txn.server, asked, counters, parent=req_span)
            except FAILOVER_ERRORS:
                # dead server: every primary becomes a miss to repair from
                # the item's surviving replicas
                failed.add(txn.server)
                for key in txn.primary:
                    missed_primary[key] = txn.server
                continue
            outcome.transactions += 1
            outcome.values.update(got)
            for key in txn.primary:
                if key not in got:
                    missed_primary[key] = txn.server

        # Repair waves: fetch still-missing items from their remaining
        # replicas — the distinguished copy first, then (only if servers
        # have failed or evicted) the other replicas.  Each wave bundles
        # by server; a key is given up only once every live replica has
        # been tried.
        required = request.required_items
        pending = {k for k in missed_primary if k not in outcome.values}
        tried: dict[str, set[int]] = {
            k: {missed_primary[k]} for k in pending
        }
        # LIMIT plans cover only `required` items; if failures leave the
        # quota unreachable from the planned set, recruit the unplanned
        # request keys as substitutes (any subset satisfies a LIMIT)
        unplanned = [
            k for k in keys if k not in outcome.values and k not in missed_primary
        ]
        while len(outcome.values) < required:
            groups: dict[int, list[str]] = defaultdict(list)
            # sorted, not set order: which keys a LIMIT quota keeps must
            # not depend on PYTHONHASHSEED
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
            for sid, group in sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0])):
                if len(outcome.values) >= required:
                    break
                if request.limit_fraction is not None:
                    group = group[: required - len(outcome.values)]
                try:
                    got = self._fetch(sid, group, counters, parent=req_span)
                except FAILOVER_ERRORS:
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
                            try:
                                self.connections[target].set(key, value)
                            except FAILOVER_ERRORS:
                                failed.add(target)

        # Epoch refresh: if this request's dead verdicts (or another
        # client's) moved the topology mid-flight, give still-missing
        # keys one re-plan round over the NEW view — promoted replicas
        # and repair copies may hold them even though every replica of
        # the old view was exhausted.
        epoch_now = getattr(self.placer, "epoch", None)
        still_missing = [k for k in keys if k not in outcome.values]
        if (
            still_missing
            and epoch_now is not None
            and epoch_now != self.seen_epoch
            and len(outcome.values) < required
        ):
            replan = self.bundler.plan(Request(items=tuple(still_missing)))
            for txn in replan.transactions:
                if txn.server in failed:
                    continue
                try:
                    got = self._fetch(
                        txn.server,
                        (*txn.primary, *txn.hitchhikers),
                        counters,
                        parent=req_span,
                    )
                except FAILOVER_ERRORS:
                    failed.add(txn.server)
                    continue
                outcome.transactions += 1
                outcome.second_round_transactions += 1
                outcome.values.update(got)
                outcome.misses_repaired += len(got)
        self.seen_epoch = epoch_now

        outcome.missing = tuple(k for k in keys if k not in outcome.values)
        outcome.failed_servers = tuple(sorted(failed))
        outcome.retries = counters.get("retries", 0)
        outcome.epoch = epoch_now
        outcome.membership_commits = counters.get("commits", 0)
        _record_outcome(self._metrics, outcome, time.perf_counter() - started)
        if req_span is not None:
            self._tracer.finish(req_span, n_missing=len(outcome.missing))
        return outcome

    def get(self, key: str) -> bytes | None:
        """Single-item get — from the distinguished copy (paper section
        III-C1: unbundled accesses must not pollute replica LRUs), falling
        back to the other replicas only if its server is unreachable."""
        last_error: Exception | None = None
        reached_any = False
        for sid in self.placer.servers_for(key):
            try:
                value = self.connections[sid].get(key)
            except FAILOVER_ERRORS as exc:
                last_error = exc
                continue
            reached_any = True
            if value is not None:
                return value
            if sid == self.placer.distinguished_for(key):
                # the distinguished copy is authoritative: a clean miss
                # there is final; an evicted replica is not
                return None
        if not reached_any and last_error is not None:
            raise ProtocolError(
                f"all replicas of {key!r} unreachable"
            ) from last_error
        return None
