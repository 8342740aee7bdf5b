"""The fault-tolerant RnB read path (simulator side).

:class:`FaultTolerantRnBClient` is :class:`repro.core.client.RnBClient`
hardened against the failure modes of :mod:`repro.faults.plan`:

1. **Plan around known failures** — the cover excludes servers the
   :class:`~repro.faults.health.HealthTracker` believes dead, re-covering
   items from surviving replicas (degraded-read covers, mirroring the
   paper's LIMIT-style partial covers).
2. **Retry with bounds** — a transaction that times out is retried up to
   ``max_retries`` times (transient faults draw independently per
   attempt); a crash-stop refusal is not retried at all.
3. **Failover re-dispatch** — items of a failed bundle are re-covered
   onto alternate replica holders, the distinguished copy first; every
   replica is tried before an item is given up.
4. **Degraded results** — items whose replicas are *all* unreachable are
   reported in ``DegradedFetchResult.unavailable`` instead of failing
   the whole request; items evicted everywhere reachable are repaired
   from the backing store (counted as ``db_fallbacks``).
5. **Overload awareness** (opt-in, docs/OVERLOAD.md) — with a
   :class:`repro.overload.breaker.BreakerBoard` attached, tripped
   servers are excluded from covers like dead ones, and BUSY sheds from
   admission control count as *soft* failures: they trip breakers but
   never advance the health tracker toward a dead verdict.

The guarantee (property-tested): a request whose every item has at least
one live replica is always fully served.

Steps 3 and 4 are the :class:`repro.core.session.ReadSession` policy
every RnB client runs; with no faults this client matches ``RnBClient``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.core.bundling import Bundler
from repro.core.client import authoritative_stamp
from repro.core.session import ReadSession
from repro.errors import (
    ConfigurationError,
    ServerBusy,
    ServerDown,
    ServerFault,
    ServerTimeout,
)
from repro.faults.health import HealthTracker, believed_dead
from repro.types import ItemId, Request


@dataclass(slots=True)
class DegradedFetchResult:
    """Outcome of one fault-tolerant read (degraded-read semantics).

    ``unavailable`` lists items whose entire replica set was unreachable
    — the request still *completes*, partially, instead of erroring.
    """

    request: Request
    transactions: int
    items_fetched: int
    misses: int
    retries: int
    failovers: int
    db_fallbacks: int
    second_round_transactions: int
    unavailable: tuple[ItemId, ...] = ()
    servers_contacted: tuple[int, ...] = ()
    #: topology epoch the request finished under (None without an
    #: epoch-aware placer)
    epoch: int | None = None
    #: membership changes this request's dead-verdicts committed
    membership_commits: int = 0
    #: the client noticed the topology moved since its last request and
    #: refreshed its view before planning
    view_refreshed: bool = False

    @property
    def degraded(self) -> bool:
        return bool(self.unavailable)

    @property
    def unavailable_fraction(self) -> float:
        n = self.request.size
        return len(self.unavailable) / n if n else 0.0


class FaultTolerantRnBClient:
    """RnB reads that survive crash-stop, timeout and slow servers.

    Parameters
    ----------
    cluster:
        The fleet; if a fault injector is attached
        (:meth:`Cluster.attach_injector`), its logical clock is advanced
        once per request.
    bundler:
        Plan builder sharing the cluster's placer.
    health:
        Error-driven server state; a fresh all-alive tracker is built
        when omitted.
    max_retries:
        Bounded retries per transaction after the first attempt
        (timeouts only — crash-stop failures are not retried).
    write_back:
        Repair evicted replicas onto the first-picked server, as the
        paper's miss path does.
    membership:
        Optional :class:`repro.membership.service.MembershipService`.
        When given, a health-tracker "dead" verdict is promoted into a
        removal proposal (this client instance as the source); if the
        proposal commits, the shared epoched placer switches views and
        the request's remaining failover waves re-cover onto the
        promoted / surviving replicas — epoch handling happens *inside*
        the read, not between requests.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  When given, every
        request feeds the ``path="ft"`` counters of the shared catalog
        (docs/OBSERVABILITY.md): retries, failovers, failover waves,
        database fallbacks, unavailable items, membership commits.
    breakers:
        Optional :class:`repro.overload.breaker.BreakerBoard`.  The
        client registers the board as a health observer (so every
        success / error it already reports feeds the breakers without a
        second call-site), advances the board's tick once per request,
        merges ``tripped()`` into the plan's exclusions, and reports
        BUSY sheds to it as *soft* failures — a shedding server is
        alive, and must not be walked toward a dead verdict.  Do not
        also register the board as an observer yourself.
    """

    def __init__(
        self,
        cluster: Cluster,
        bundler: Bundler,
        *,
        health: HealthTracker | None = None,
        max_retries: int = 2,
        timeout_strikes: int = 2,
        write_back: bool = True,
        membership=None,
        breakers=None,
        metrics=None,
    ) -> None:
        if bundler.placer is not cluster.placer:
            raise ConfigurationError(
                "bundler and cluster must share the same placer instance"
            )
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if timeout_strikes < 1:
            raise ConfigurationError("timeout_strikes must be >= 1")
        self.cluster = cluster
        self.bundler = bundler
        self.health = health or HealthTracker(cluster.n_servers)
        self.max_retries = max_retries
        #: how many times per request a server may exhaust its retries by
        #: *timeout* before being treated as down; crash-stop refusals are
        #: final immediately.  A timeout-exhausted server is merely flaky
        #: (it is alive!), so giving up on it would strand items whose
        #: only live replica it holds.
        self.timeout_strikes = timeout_strikes
        self.write_back = write_back
        self.membership = membership
        #: optional circuit-breaker board (repro.overload.breaker); fed
        #: through the health tracker's observer hook plus direct soft
        #: failures for BUSY sheds
        self.breakers = breakers
        if breakers is not None:
            breakers.ensure_capacity(cluster.n_servers)
            self.health.add_observer(breakers)
        #: last topology epoch this client planned under (stale-view
        #: detection; None when the placer is not epoch-aware)
        self.seen_epoch: int | None = getattr(bundler.placer, "epoch", None)
        self._metrics = None
        if metrics is not None:
            self._metrics = {
                "retries": metrics.counter(
                    "rnb_retries_total", "transport retries", path="ft"
                ),
                "failovers": metrics.counter(
                    "rnb_failovers_total",
                    "failed bundle dispatches rerouted to alternate replicas",
                    path="ft",
                ),
                "waves": metrics.counter(
                    "rnb_failover_waves_total",
                    "failover re-cover waves walked",
                    path="ft",
                ),
                "db_fallbacks": metrics.counter(
                    "rnb_db_fallbacks_total",
                    "items repaired from the backing store",
                    path="ft",
                ),
                "unavailable": metrics.counter(
                    "rnb_unavailable_items_total",
                    "items whose whole replica set was unreachable",
                    path="ft",
                ),
                "commits": metrics.counter(
                    "rnb_membership_commits_total",
                    "membership removals committed from dead verdicts",
                    path="ft",
                ),
                "degraded": metrics.counter(
                    "rnb_requests_total",
                    "requests by outcome",
                    path="ft",
                    outcome="degraded",
                ),
                "ok": metrics.counter(
                    "rnb_requests_total", "requests by outcome", path="ft", outcome="ok"
                ),
            }

    # -- public API -----------------------------------------------------------

    def execute(self, request: Request) -> DegradedFetchResult:
        """Serve one request, routing around whatever is down."""
        injector = self.cluster.injector
        if injector is not None:
            injector.advance()
        if self.breakers is not None:
            self.breakers.advance()

        counters = {"retries": 0, "commits": 0}
        failovers = 0
        servers_contacted: list[int] = []

        # stale-view check: another client (or the repair path) may have
        # moved the topology since our last request — refresh before
        # planning so the cover is computed over the current epoch
        epoch_now = getattr(self.bundler.placer, "epoch", None)
        view_refreshed = epoch_now is not None and epoch_now != self.seen_epoch
        self.seen_epoch = epoch_now

        plan = self.bundler.plan(request, exclude=self._believed_dead())
        session = ReadSession(
            plan,
            self.bundler,
            epoch=epoch_now,
            strikes=self.timeout_strikes,
            believed_dead=self._believed_dead,
            backstop=self._db_repair,
        )
        while wave := session.next_wave():
            for fetch in wave:
                status, result = self._attempt(
                    fetch.server, fetch.primary, fetch.hitchhikers, counters
                )
                if status != "ok":
                    failovers += 1
                    session.record(fetch, status)
                    continue
                hits, misses, hh_hits = result
                session.record(fetch, hits + hh_hits, misses)
                servers_contacted.append(fetch.server)
            if session.round_one and self.write_back:
                # repair each unrescued eviction from the database
                for item, sid in session.writebacks():
                    self.cluster.servers[sid].write_back(
                        item, stamp=authoritative_stamp(self.cluster, item)
                    )

        unavailable = session.unavailable
        db_fallbacks = session.fallbacks
        if self._metrics is not None:
            m = self._metrics
            m["retries"].inc(counters["retries"])
            m["failovers"].inc(failovers)
            m["waves"].inc(session.waves)
            m["db_fallbacks"].inc(db_fallbacks)
            m["unavailable"].inc(len(unavailable))
            m["commits"].inc(counters["commits"])
            m["degraded" if unavailable else "ok"].inc()

        # LIMIT satisfied early: whatever is still pending was simply not
        # needed — it is neither fetched nor unavailable
        return DegradedFetchResult(
            request=request,
            transactions=session.transactions,
            items_fetched=len(session.obtained),
            misses=session.misses,
            retries=counters["retries"],
            failovers=failovers,
            db_fallbacks=db_fallbacks,
            second_round_transactions=session.second_round,
            unavailable=tuple(sorted(unavailable)),
            servers_contacted=tuple(servers_contacted),
            epoch=self.seen_epoch,
            membership_commits=counters["commits"],
            view_refreshed=view_refreshed,
        )

    # -- helpers ---------------------------------------------------------------

    def _attempt(self, sid, primary, hitchhikers, counters):
        """One transaction with bounded retries.

        Returns ``(status, result)`` where status is ``"ok"``, ``"down"``
        (crash-stop refusal: final), ``"timeout"`` (retries exhausted —
        the server is alive but flaky; the caller may re-dispatch to it
        in a later wave, which rolls fresh timeout draws), ``"busy"``
        (backpressure shed — also alive, also retryable later; strikes
        accumulate exactly as for timeouts so a saturated server is
        eventually routed around instead of hammered) or
        ``"unreachable"`` (link-level cut: final for this request, like
        ``"down"``, but never promoted to a removal proposal — the
        server may be healthy on the far side of a partition, and a
        client-side dead verdict must not amputate the other half of a
        split; see docs/PARTITIONS.md).
        """
        attempt = 0
        while True:
            try:
                result = self.cluster.server(sid).multi_get(primary, hitchhikers)
            except ServerDown:
                self.health.record_error(sid)
                self._propose_if_dead(sid, counters)
                return "down", None
            except ServerTimeout:
                self.health.record_error(sid)
                if attempt >= self.max_retries:
                    return "timeout", None
                attempt += 1
                counters["retries"] += 1
                continue
            except ServerBusy:
                # backpressure shed (injected, or the server's admission
                # gate): the server is alive, just overloaded.  Feed the
                # breaker (soft) but never the health tracker — shedding
                # must not walk a server toward a dead verdict.
                if self.breakers is not None:
                    self.breakers.record_failure(sid)
                return "busy", None
            except ServerFault:
                # partition cut (ServerUnreachable) or an unknown future
                # kind: strike health so covers route around the edge,
                # but no removal proposal — unreachable is not dead
                self.health.record_error(sid)
                return "unreachable", None
            self.health.record_success(sid)
            return "ok", result

    def _propose_if_dead(self, sid: int, counters: dict) -> None:
        """Promote a health-tracker dead verdict into a membership proposal.

        On commit the shared placer's epoch advances, so the remaining
        failover waves of the *current* request already re-cover over the
        new view (candidates are recomputed from the placer each wave).
        """
        if self.membership is None or self.health.state(sid) != "dead":
            return
        if self.membership.propose_removal(sid, source=self):
            counters["commits"] += 1
            self.seen_epoch = getattr(self.bundler.placer, "epoch", None)

    def _believed_dead(self) -> frozenset[int]:
        return believed_dead(self.health, self.breakers)

    def _db_repair(self, item: ItemId, answered: tuple[int, ...]) -> bool:
        """Backstop for an item no replica could serve: if a replica that
        answered without it is alive (the item was evicted, not cut off),
        the backing store serves it — the simulator's DB never fails — and
        it is re-materialised onto that replica."""
        alive = {s for s in answered if self.health.state(s) == "alive"}
        if not alive:
            return False
        if self.write_back:
            for sid in self.bundler.placer.servers_for(item):
                if sid in alive:
                    self.cluster.servers[sid].write_back(
                        item, stamp=authoritative_stamp(self.cluster, item)
                    )
                    break
        return True
