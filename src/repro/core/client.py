"""The RnB client: executes fetch plans against a cluster.

Implements the full read path of paper sections III-A/C/D:

1. **Round one** — issue the plan's transactions (cover + hitchhikers).
2. **Miss handling** — items that missed (their replica was evicted under
   overbooking) and were not rescued by a hitchhiker hit elsewhere are
   fetched in a **second round** from their *distinguished copies*, which
   are pinned and never miss.  Second-round fetches are bundled by
   distinguished server, "so the penalty is not exactly a transaction per
   miss" (section III-D).
3. **Write-back** — a missed item is written "only to the replica that
   was the first to be picked by the greedy set cover algorithm"
   (section III-C2), i.e. the server where the planned fetch missed.

LIMIT requests (section III-F) stop the second round as soon as the
required item count has been reached, and skip it entirely when round one
already returned enough.

The policy lives in :class:`repro.core.session.ReadSession`; this client
is its simulator driver: a plain loop of ``Server.multi_get`` calls, with
write-back data taken from the database (the distinguished copy's stamp)
right after round one.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.core.bundling import Bundler
from repro.core.session import ReadSession
from repro.errors import ConfigurationError
from repro.types import FetchPlan, FetchResult, ItemId, Request


class RnBClient:
    """Stateless front-end client executing RnB reads.

    Parameters
    ----------
    cluster:
        The simulated fleet to read from.
    bundler:
        Plan builder; its placer must be the cluster's placer, otherwise
        the client would look for replicas where none were provisioned.
    write_back:
        Write missed items back to the first-picked replica (paper
        policy).  Disable for ablation.
    """

    def __init__(
        self,
        cluster: Cluster,
        bundler: Bundler,
        *,
        write_back: bool = True,
    ) -> None:
        if bundler.placer is not cluster.placer:
            raise ConfigurationError(
                "bundler and cluster must share the same placer instance"
            )
        self.cluster = cluster
        self.bundler = bundler
        self.write_back = write_back

    # -- public API -----------------------------------------------------------

    def execute(self, request: Request) -> FetchResult:
        """Serve one end-user request; returns per-request metrics."""
        plan = self.bundler.plan(request)
        return self.execute_plan(plan)

    def execute_plan(self, plan: FetchPlan) -> FetchResult:
        """Drive a :class:`ReadSession` over the simulated fleet."""
        session = ReadSession(plan, self.bundler)
        contacted: list[int] = []
        sizes: list[int] = []
        transferred = 0
        server = self.cluster.server
        while wave := session.next_wave():
            for fetch in wave:
                hits, misses, hh_hits = server(fetch.server).multi_get(
                    fetch.primary, fetch.hitchhikers
                )
                got = hits + hh_hits if hh_hits else hits
                session.record(fetch, got, misses)
                contacted.append(fetch.server)
                sizes.append(fetch.n_items)
                transferred += len(got)
            if session.round_one and self.write_back:
                # the database fetch behind each unrescued miss
                for item, sid in session.writebacks():
                    server(sid).write_back(item, stamp=authoritative_stamp(self.cluster, item))
        return FetchResult(
            request=plan.request,
            transactions=session.transactions,
            items_fetched=len(session.obtained),
            items_transferred=transferred,
            misses=session.misses,
            second_round_transactions=session.second_round,
            servers_contacted=tuple(contacted),
            txn_sizes=tuple(sizes),
        )

    def tally_footprint(
        self, request: Request, footprint: tuple[tuple[int, int], ...]
    ) -> FetchResult:
        """Account a plan *footprint* — ``(server, n_primary)`` pairs —
        without walking the stores.

        Driven by ``Bundler.plan_footprints`` output, so the fast path
        never materialises plan objects at all.  Returns the identical
        :class:`FetchResult` that ``execute_plan(plan(request))`` would,
        and applies the same counter updates, under a precondition the
        caller guarantees (the simulation engine checks it once per
        run): every planned primary item is resident on its
        transaction's server and *stays* resident, i.e. unlimited memory
        (``memory_factor=None``) with the pinned LRU policy, no
        hitchhikers, and no fault injection.  Under naive allocation
        every logical replica is preloaded and nothing is ever evicted,
        so each ``multi_get`` would return all-hits and the recency
        reordering it performs can never influence anything observable
        (property-tested against :meth:`execute_plan`).
        """
        items_total = 0
        servers = self.cluster.servers
        txn_sizes = []
        servers_contacted = []
        for sid, n in footprint:
            c = servers[sid].counters
            c.transactions += 1
            c.items_requested += n
            c.items_returned += n
            c.hits += n
            c.txn_sizes.add(n)
            servers_contacted.append(sid)
            txn_sizes.append(n)
            items_total += n
        return FetchResult(
            request=request,
            transactions=len(footprint),
            items_fetched=items_total,
            items_transferred=items_total,
            misses=0,
            second_round_transactions=0,
            servers_contacted=tuple(servers_contacted),
            txn_sizes=tuple(txn_sizes),
        )


def authoritative_stamp(cluster: Cluster, item: ItemId):
    """Version stamp a DB-fetched copy of ``item`` should carry.

    The backing store serves the committed version, which the pinned
    distinguished copy mirrors — so write-backs inherit the distinguished
    server's stamp instead of installing an unversioned copy that
    anti-entropy would flag as divergent.  An unreachable home (chaos)
    yields ``None``: the copy is installed unversioned and reconciled by
    the scrubber later.
    """
    try:
        home = cluster.server(cluster.placer.distinguished_for(item))
    except (ConnectionError, OSError):
        return None
    return home.stamps.get(item)
