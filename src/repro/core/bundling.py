"""The Bundler: request + placement → fetch plan.

Bundling is the "B" of RnB (paper section III-A): compute the replica
locations of every requested item, pick a small group of servers that
jointly possess (enough of) the request set via greedy set cover, and
bundle all items assigned to a server into one transaction.

Two refinements from the paper are applied after the cover:

* **Single-item rule** (section III-C1): "whenever an item is not
  bundled, we access its distinguished copy in order not to pollute other
  server caches with its copies."  Any transaction left with exactly one
  item is redirected to that item's distinguished server; redirected
  items headed for the same distinguished server are re-bundled together,
  and items whose plan already includes a transaction to their
  distinguished server simply join it.
* **Hitchhiking** (section III-C2): every transaction additionally
  carries, as redundant *hitchhikers*, all other requested items that
  have a logical replica on that server.  Hitchhikers cost traffic but no
  transactions, and rescue first-round misses under overbooking.
"""

from __future__ import annotations

from collections import defaultdict
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from repro.cluster.placement import ReplicaPlacer
from repro.core.setcover import greedy_partial_cover
from repro.errors import CoverError
from repro.perf.batchcover import (
    HAS_BITWISE_COUNT,
    MAX_BATCH_ELEMENTS,
    CoverWorkspace,
    batch_greedy_cover,
    batch_greedy_cover_wide,
    batch_masks,
)
from repro.types import FetchPlan, ItemId, Request, Transaction


class Bundler:
    """Builds :class:`FetchPlan` objects for requests.

    Parameters
    ----------
    placer:
        The replica placement in force.
    hitchhiking:
        Enable the hitchhiker enhancement.
    single_item_rule:
        Apply the single-item → distinguished-copy redirection.
    tie_break:
        Greedy tie-breaking policy (see :mod:`repro.core.setcover`).
    rng:
        Required when ``tie_break="random"``.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  When set, every
        finished plan increments ``rnb_plans_total`` (labelled by the
        tie-break policy in force) and records its transaction count in
        the ``rnb_cover_size`` histogram — the distribution-level
        evidence the paper's cover-size argument rests on.  ``None``
        (the default) costs one predictable branch per plan.
    """

    def __init__(
        self,
        placer: ReplicaPlacer,
        *,
        hitchhiking: bool = False,
        single_item_rule: bool = True,
        tie_break="lowest",
        rng: np.random.Generator | None = None,
        metrics=None,
    ) -> None:
        self.placer = placer
        self.hitchhiking = hitchhiking
        self.single_item_rule = single_item_rule
        self.tie_break = tie_break
        self.rng = rng
        self.metrics = metrics
        #: lazily-created scratch shared by every batch cover this
        #: bundler plans (one allocation per sweep, not per chunk)
        self._workspace: CoverWorkspace | None = None
        if metrics is not None:
            policy = tie_break if isinstance(tie_break, str) else "callable"
            self._m_plans = metrics.counter(
                "rnb_plans_total", "cover plans computed", tie_break=policy
            )
            self._m_cover = metrics.histogram(
                "rnb_cover_size", "transactions per fetch plan"
            )
        else:
            self._m_plans = None
            self._m_cover = None

    def _record_plan(self, n_transactions: int) -> None:
        if self._m_plans is not None:
            self._m_plans.inc()
            self._m_cover.observe(n_transactions)

    def _record_plan_sizes(self, sizes: list[int]) -> None:
        """Bulk :meth:`_record_plan` for the vectorised batch path.

        Cover sizes are small integers that repeat heavily across a
        batch, so grouping them first turns ~N hook calls into one
        counter add plus one histogram upsert per distinct size — the
        difference between the telemetry layer costing a few percent of
        the fast path and costing nothing measurable.
        """
        if self._m_plans is None or not sizes:
            return
        self._m_plans.inc(len(sizes))
        grouped: dict[int, int] = {}
        for size in sizes:
            grouped[size] = grouped.get(size, 0) + 1
        for size, n in grouped.items():
            self._m_cover.observe_n(size, n)

    # -- plan construction -------------------------------------------------

    def plan(
        self, request: Request, *, exclude: AbstractSet[int] | None = None
    ) -> FetchPlan:
        """Compute the first-round transactions for ``request``.

        ``exclude`` names servers currently believed unavailable (from a
        :class:`repro.faults.health.HealthTracker` or a failed first
        attempt): they are never chosen, residual items are covered from
        surviving replicas, and items with no surviving replica are left
        out of the plan entirely — the caller reports them as a partial
        (degraded) result.
        """
        items: Sequence[ItemId] = request.items
        n = len(items)
        if n == 0:
            self._record_plan(0)
            return FetchPlan(request=request, transactions=())

        servers_for = self.placer.servers_for
        replica_sets = [servers_for(item) for item in items]

        # Build per-server bitmasks over request-local item indices.
        subsets: dict[int, int] = {}
        for idx, servers in enumerate(replica_sets):
            bit = 1 << idx
            for s in servers:
                subsets[s] = subsets.get(s, 0) | bit

        cover = greedy_partial_cover(
            subsets,
            n,
            request.required_items,
            tie_break=self.tie_break,
            rng=self.rng,
            exclude=exclude,
            allow_partial=bool(exclude),
        )

        return self._finish_masks(
            request, items, replica_sets, cover.assignment.items(), exclude
        )

    def plan_distinguished(
        self, request: Request, items: Sequence[ItemId] | None = None
    ) -> FetchPlan:
        """Plan ``request`` (or a subset of its items) on distinguished
        copies only — no cover, no replica freedom.

        The bottom rung of the overload degradation ladder
        (:mod:`repro.overload.hedging`): every item routes straight to
        its pinned home copy, grouping items that share one.  Gives up
        bundling quality, never coverage — a distinguished copy always
        exists and never misses — so it is the cheapest plan that still
        touches only pinned copies.  Hitchhiking is deliberately skipped:
        a client degrading under overload must not inflate payloads.
        """
        wanted: Sequence[ItemId] = request.items if items is None else items
        by_home: dict[int, list[ItemId]] = defaultdict(list)
        for item in wanted:
            by_home[self.placer.distinguished_for(item)].append(item)
        transactions = tuple(
            Transaction(server=server, primary=tuple(by_home[server]))
            for server in sorted(by_home)
        )
        self._record_plan(len(transactions))
        return FetchPlan(request=request, transactions=transactions)

    def plan_batch(
        self, requests: Iterable[Request], *, exclude: AbstractSet[int] | None = None
    ) -> list[FetchPlan]:
        """Plan a chunk of requests at once; same plans as :meth:`plan`.

        When the placer is a compiled :class:`repro.perf.PlacementTable`
        and the chunk is on the default path (no exclusions, ``lowest``
        tie-break), placement lookups run as one batch array index and the
        greedy covers run lock-step in NumPy (single-lane kernel for
        requests of at most 63 items, multi-lane for wider ones).
        Requests the vectorised cover cannot express — empty, LIMIT, or
        with items outside the compiled universe — fall back to
        :meth:`plan` individually, so ``plan_batch(reqs)[i]`` equals
        ``plan(reqs[i])`` for *every* request (property-tested).
        """
        requests = list(requests)
        lookup = getattr(self.placer, "lookup", None)
        if (
            lookup is None
            or exclude is not None
            or self.tie_break != "lowest"
            or not HAS_BITWISE_COUNT
        ):
            return [self.plan(r, exclude=exclude) for r in requests]

        eligible = [
            i
            for i, r in enumerate(requests)
            if 0 < len(r.items) and r.required_items == len(r.items)
        ]
        plans: list[FetchPlan | None] = [None] * len(requests)
        if eligible:
            flat = [item for i in eligible for item in requests[i].items]
            try:
                items_arr = np.array(flat, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                items_arr = None  # non-integer item ids: scalar path
            if items_arr is not None and (
                items_arr.min() < 0 or items_arr.max() >= self.placer.n_items
            ):
                items_arr = None  # outside the compiled universe
            if items_arr is None:
                eligible = []
        if eligible:
            counts = np.array([len(requests[i].items) for i in eligible])
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            servers = lookup(items_arr)
            try:
                picks = self._batch_covers(counts, offsets, servers)
            except CoverError:
                # Re-plan individually so the failing request raises the
                # scalar solver's precise error.
                eligible = []
            else:
                server_rows = servers.tolist()
                bounds = offsets.tolist()
                sizes = counts.tolist()
                for row, i in enumerate(eligible):
                    request = requests[i]
                    lo = bounds[row]
                    replica_sets = server_rows[lo : lo + sizes[row]]
                    plans[i] = self._finish_masks(
                        request, request.items, replica_sets, picks[row]
                    )
        for i, plan in enumerate(plans):
            if plan is None:
                plans[i] = self.plan(requests[i])
        return plans

    def plan_footprints(
        self, requests: Iterable[Request]
    ) -> list[tuple[tuple[int, int], ...]]:
        """Per request, the ``(server, n_primary)`` pairs of its plan.

        Exactly ``tuple((t.server, len(t.primary)) for t in
        plan(r).transactions)`` for every request, but computed without
        materialising :class:`FetchPlan` / :class:`Transaction` objects:
        in the no-miss regime (see ``RnBClient.tally_footprint``) the
        executor only ever reads transaction servers and sizes, so
        decoding assignment masks back into item tuples is pure overhead.
        Falls back to :meth:`plan` per request off the vectorised
        envelope.  Hitchhiking bundlers always fall back (hitchhikers
        change transaction payloads, which a footprint does not carry).
        """
        requests = list(requests)
        lookup = getattr(self.placer, "lookup", None)
        footprints: list[tuple[tuple[int, int], ...] | None] = [None] * len(requests)
        eligible: list[int] = []
        if (
            lookup is not None
            and not self.hitchhiking
            and self.tie_break == "lowest"
            and HAS_BITWISE_COUNT
        ):
            eligible = [
                i
                for i, r in enumerate(requests)
                if 0 < len(r.items) and r.required_items == len(r.items)
            ]
        if eligible:
            flat = [item for i in eligible for item in requests[i].items]
            try:
                items_arr = np.array(flat, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                items_arr = None
            if items_arr is not None and (
                items_arr.min() < 0 or items_arr.max() >= self.placer.n_items
            ):
                items_arr = None
            if items_arr is None:
                eligible = []
        if eligible:
            counts = np.array([len(requests[i].items) for i in eligible])
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            servers = lookup(items_arr)
            try:
                picks = self._batch_covers(counts, offsets, servers)
            except CoverError:
                eligible = []
            else:
                home_col = servers[:, 0].tolist()
                bounds = offsets.tolist()
                single_rule = self.single_item_rule
                sizes: list[int] = []
                for row, i in enumerate(eligible):
                    merged: dict[int, int] = {}
                    if single_rule:
                        lo = bounds[row]
                        singles: list[int] = []
                        for server, mask in picks[row]:
                            if mask & (mask - 1):
                                merged[server] = mask
                            else:
                                singles.append(mask)
                        for mask in singles:
                            home = home_col[lo + mask.bit_length() - 1]
                            merged[home] = merged.get(home, 0) | mask
                    else:
                        merged.update(picks[row])
                    footprints[i] = tuple(
                        (server, merged[server].bit_count())
                        for server in sorted(merged)
                    )
                    sizes.append(len(footprints[i]))
                self._record_plan_sizes(sizes)
        for i, footprint in enumerate(footprints):
            if footprint is None:
                footprints[i] = tuple(
                    (t.server, len(t.primary))
                    for t in self.plan(requests[i]).transactions
                )
        return footprints

    def _batch_covers(
        self, counts: np.ndarray, offsets: np.ndarray, servers: np.ndarray
    ) -> list[list[tuple[int, int]]]:
        """Greedy covers for a flattened chunk: per request, ``[(server,
        assignment_mask), ...]`` in selection order.

        Requests up to 63 items go through the single-lane kernel in one
        call; the heavy tail goes through the multi-lane kernel.
        """
        n_requests = counts.shape[0]
        n_servers = self.placer.n_servers
        req_of_item = np.repeat(np.arange(n_requests), counts)
        local = np.arange(servers.shape[0]) - offsets[req_of_item]
        picks: list[list[tuple[int, int]]] = [[] for _ in range(n_requests)]

        # 0-item requests (LIMIT-stripped) have an empty cover by
        # definition: keep them out of both kernels so lane/mask
        # allocation never sees a zero-width request.
        narrow = (counts > 0) & (counts <= MAX_BATCH_ELEMENTS)
        narrow_rows = np.flatnonzero(narrow)
        if narrow_rows.size:
            workspace = self._workspace
            if workspace is None or workspace.n_servers != n_servers:
                workspace = self._workspace = CoverWorkspace(n_servers)
            sel = narrow[req_of_item]
            row_of = np.cumsum(narrow) - 1  # chunk row -> narrow row
            masks = batch_masks(
                row_of[req_of_item[sel]],
                np.uint64(1) << local[sel].astype(np.uint64),
                servers[sel],
                narrow_rows.size,
                n_servers,
                workspace=workspace,
            )
            full = (np.uint64(1) << counts[narrow_rows].astype(np.uint64)) - np.uint64(
                1
            )
            for row, row_picks in zip(
                narrow_rows.tolist(),
                batch_greedy_cover(masks, full, workspace=workspace),
            ):
                picks[row] = row_picks

        wide = counts > MAX_BATCH_ELEMENTS
        wide_rows = np.flatnonzero(wide)
        if wide_rows.size:
            sel = wide[req_of_item]
            row_of = np.cumsum(wide) - 1
            n_lanes = int(counts[wide_rows].max() + MAX_BATCH_ELEMENTS - 1) // (
                MAX_BATCH_ELEMENTS
            )
            lane = local[sel] // MAX_BATCH_ELEMENTS
            bit = np.uint64(1) << (local[sel] % MAX_BATCH_ELEMENTS).astype(np.uint64)
            replication = servers.shape[1]
            masks = np.zeros((wide_rows.size, n_servers, n_lanes), dtype=np.uint64)
            np.bitwise_or.at(
                masks,
                (
                    np.repeat(row_of[req_of_item[sel]], replication),
                    servers[sel].ravel(),
                    np.repeat(lane, replication),
                ),
                np.repeat(bit, replication),
            )
            lane_bits = counts[wide_rows, None] - MAX_BATCH_ELEMENTS * np.arange(
                n_lanes
            )
            lane_bits = np.clip(lane_bits, 0, MAX_BATCH_ELEMENTS)
            full = (np.uint64(1) << lane_bits.astype(np.uint64)) - np.uint64(1)
            for row, row_picks in zip(
                wide_rows.tolist(), batch_greedy_cover_wide(masks, full)
            ):
                picks[row] = row_picks
        return picks

    def _finish_masks(
        self,
        request: Request,
        items: Sequence[ItemId],
        replica_sets: Sequence[Sequence[int]],
        picks: Iterable[tuple[int, int]],
        exclude: AbstractSet[int] | None = None,
    ) -> FetchPlan:
        """Shared tail of planning: enhancements + transaction assembly.

        Operates on the cover's ``(server, assignment_mask)`` picks
        directly (request-local item indices as bits).  The single-item
        rule is one bit trick per pick: ``mask & (mask - 1)`` is zero
        exactly for singletons.  All singletons are collected before any
        is placed, so two that share a distinguished server merge into
        one two-item transaction rather than being processed
        order-dependently; a redirected item never *misses*
        (distinguished copies are pinned), so the redirection can only
        reduce LRU pollution.  Under failures the redirection target is
        the item's first *live* replica: a singleton is never sent to an
        excluded server (its current assignment is live by construction,
        so staying put is always a valid fallback).
        """
        merged: dict[int, int] = {}
        if self.single_item_rule:
            singles: list[int] = []
            for server, mask in picks:
                if mask & (mask - 1):
                    merged[server] = mask
                else:
                    singles.append(mask)
            for mask in singles:
                replicas = replica_sets[mask.bit_length() - 1]
                if exclude:
                    home = next(s for s in replicas if s not in exclude)
                else:
                    home = replicas[0]
                merged[home] = merged.get(home, 0) | mask
        else:
            merged.update(picks)

        # hitchhikers: requested items with a logical replica on the
        # transaction's server that are not already assigned to it
        held: dict[int, int] = {}
        if self.hitchhiking:
            for idx, servers in enumerate(replica_sets):
                bit = 1 << idx
                for s in servers:
                    held[s] = held.get(s, 0) | bit
        transactions = []
        for server in sorted(merged):
            mask = merged[server]
            hitchhikers: tuple[ItemId, ...] = ()
            if held:
                hitchhikers = _items_at(held[server] & ~mask, items)
            transactions.append(
                Transaction(
                    server=server, primary=_items_at(mask, items), hitchhikers=hitchhikers
                )
            )
        self._record_plan(len(transactions))
        return FetchPlan(request=request, transactions=tuple(transactions))


def _items_at(mask: int, items: Sequence[ItemId]) -> tuple[ItemId, ...]:
    """The items at the set bits of ``mask``, lowest index first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return tuple(out)
