"""Tests for the Bundler: cover plans, single-item rule, hitchhiking."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bundling import Bundler
from repro.core.setcover import greedy_partial_cover
from repro.hashing.rch import RangedConsistentHashPlacer
from repro.types import FetchPlan, ReplicaSet, Request, Transaction
from repro.utils.bitset import iter_bits


class FixedPlacer:
    """Explicit item->servers table for precise assertions."""

    def __init__(self, table, n_servers):
        self.table = table
        self.n_servers = n_servers
        self.replication = max(len(v) for v in table.values())

    def servers_for(self, item):
        return self.table[item]

    def replicas_for(self, item):
        return ReplicaSet(item=item, servers=self.table[item])

    def distinguished_for(self, item):
        return self.table[item][0]


class TestPlanBasics:
    def test_empty_request(self):
        placer = RangedConsistentHashPlacer(4, 2)
        plan = Bundler(placer).plan(Request(items=()))
        assert plan.transactions == ()

    def test_plan_covers_all_items(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        bundler = Bundler(placer)
        request = Request(items=tuple(range(40)))
        plan = bundler.plan(request)
        assert plan.planned_items() == set(range(40))

    def test_each_item_planned_once(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        plan = Bundler(placer).plan(Request(items=tuple(range(40))))
        all_primary = [i for t in plan.transactions for i in t.primary]
        assert len(all_primary) == len(set(all_primary))

    def test_items_assigned_to_replica_servers(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        plan = Bundler(placer, single_item_rule=False).plan(
            Request(items=tuple(range(30)))
        )
        for txn in plan.transactions:
            for item in txn.primary:
                assert txn.server in placer.servers_for(item)

    def test_one_transaction_per_server(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        plan = Bundler(placer).plan(Request(items=tuple(range(50))))
        servers = [t.server for t in plan.transactions]
        assert len(servers) == len(set(servers))

    def test_fewer_transactions_with_more_replicas(self):
        r1 = RangedConsistentHashPlacer(16, 1, vnodes=32)
        r4 = RangedConsistentHashPlacer(16, 4, vnodes=32)
        items = tuple(range(100, 160))
        n1 = Bundler(r1).plan(Request(items=items)).n_transactions
        n4 = Bundler(r4).plan(Request(items=items)).n_transactions
        assert n4 < n1

    def test_deterministic_plans(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        b = Bundler(placer)
        req = Request(items=tuple(range(25)))
        assert b.plan(req) == b.plan(req)


class TestSingleItemRule:
    def test_singleton_moves_to_distinguished(self):
        # item 0 can be fetched from server 2 (bundled with nothing) but
        # its distinguished copy is on server 9
        table = {
            0: (9, 2),
            1: (1, 3),
            2: (1, 4),
        }
        placer = FixedPlacer(table, 10)
        plan = Bundler(placer, single_item_rule=True).plan(Request(items=(0, 1, 2)))
        by_server = {t.server: t.primary for t in plan.transactions}
        assert by_server[1] == (1, 2)
        assert by_server.get(9) == (0,)

    def test_singletons_rebundle_on_shared_distinguished(self):
        table = {
            0: (5, 1),
            1: (5, 2),
            2: (3, 4),
            3: (3, 4),
        }
        placer = FixedPlacer(table, 6)
        plan = Bundler(placer, single_item_rule=True).plan(
            Request(items=(0, 1, 2, 3))
        )
        by_server = {t.server: set(t.primary) for t in plan.transactions}
        # 2,3 bundle on 3; 0,1 are singletons rebundled on distinguished 5
        assert by_server[3] == {2, 3}
        assert by_server[5] == {0, 1}
        assert plan.n_transactions == 2

    def test_rule_off_keeps_greedy_pick(self):
        table = {0: (9, 2), 1: (1, 3), 2: (1, 4)}
        placer = FixedPlacer(table, 10)
        plan = Bundler(placer, single_item_rule=False).plan(Request(items=(0, 1, 2)))
        servers = {t.server for t in plan.transactions}
        assert 9 not in servers  # greedy never picked the distinguished


class TestHitchhiking:
    def test_hitchhikers_have_replica_on_server(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        plan = Bundler(placer, hitchhiking=True).plan(Request(items=tuple(range(40))))
        for txn in plan.transactions:
            for item in txn.hitchhikers:
                assert txn.server in placer.servers_for(item)

    def test_hitchhikers_disjoint_from_primary(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        plan = Bundler(placer, hitchhiking=True).plan(Request(items=tuple(range(40))))
        for txn in plan.transactions:
            assert not set(txn.primary) & set(txn.hitchhikers)

    def test_hitchhikers_only_requested_items(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        items = tuple(range(40))
        plan = Bundler(placer, hitchhiking=True).plan(Request(items=items))
        for txn in plan.transactions:
            assert set(txn.hitchhikers) <= set(items)

    def test_no_hitchhikers_by_default(self):
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        plan = Bundler(placer).plan(Request(items=tuple(range(40))))
        assert all(t.hitchhikers == () for t in plan.transactions)

    def test_every_eligible_hitchhiker_included(self):
        """Every (requested item, chosen server) replica pair appears as
        primary or hitchhiker — maximal piggybacking."""
        placer = RangedConsistentHashPlacer(16, 3, vnodes=32)
        items = tuple(range(30))
        plan = Bundler(placer, hitchhiking=True, single_item_rule=False).plan(
            Request(items=items)
        )
        for txn in plan.transactions:
            carried = set(txn.primary) | set(txn.hitchhikers)
            for item in items:
                if txn.server in placer.servers_for(item):
                    assert item in carried


class TestLimitPlans:
    def test_limit_plan_covers_required_only(self):
        placer = RangedConsistentHashPlacer(16, 2, vnodes=32)
        request = Request(items=tuple(range(40)), limit_fraction=0.5)
        plan = Bundler(placer, single_item_rule=False).plan(request)
        planned = len(plan.planned_items())
        assert planned == request.required_items == 20

    def test_limit_uses_fewer_transactions(self):
        placer = RangedConsistentHashPlacer(16, 2, vnodes=32)
        items = tuple(range(40))
        full = Bundler(placer).plan(Request(items=items))
        half = Bundler(placer).plan(Request(items=items, limit_fraction=0.5))
        assert half.n_transactions < full.n_transactions

    def test_random_tie_break_requires_rng(self):
        placer = RangedConsistentHashPlacer(4, 2)
        bundler = Bundler(placer, tie_break="random")  # no rng
        with pytest.raises(ValueError):
            bundler.plan(Request(items=(1, 2, 3)))


# ---------------------------------------------------------------------------
# the mask-native finisher against the list-based one it replaced
# ---------------------------------------------------------------------------


def _reference_plan(bundler: Bundler, request: Request, exclude=None) -> FetchPlan:
    """Plan tail over per-server index lists: single-item rule by moving
    singleton lists to their first live replica, then hitchhikers."""
    items = request.items
    replica_sets = [bundler.placer.servers_for(item) for item in items]
    subsets: dict[int, int] = {}
    for idx, servers in enumerate(replica_sets):
        for s in servers:
            subsets[s] = subsets.get(s, 0) | 1 << idx
    cover = greedy_partial_cover(
        subsets,
        len(items),
        request.required_items,
        exclude=exclude,
        allow_partial=bool(exclude),
    )
    assigned = {s: list(iter_bits(mask)) for s, mask in cover.assignment.items()}
    if bundler.single_item_rule:
        moved: dict[int, list[int]] = {}
        singles = []
        for server, idxs in assigned.items():
            if len(idxs) == 1:
                singles.append(idxs[0])
            else:
                moved[server] = list(idxs)
        for idx in singles:
            home = next(s for s in replica_sets[idx] if not exclude or s not in exclude)
            moved.setdefault(home, []).append(idx)
        assigned = {s: sorted(v) for s, v in moved.items()}
    transactions = []
    for server in sorted(assigned):
        idxs = assigned[server]
        if not idxs:
            continue
        hitchhikers = ()
        if bundler.hitchhiking:
            hitchhikers = tuple(
                items[i]
                for i, servers in enumerate(replica_sets)
                if i not in idxs and server in servers
            )
        primary = tuple(items[i] for i in idxs)
        transactions.append(Transaction(server, primary, hitchhikers))
    return FetchPlan(request=request, transactions=tuple(transactions))


@given(
    st.lists(st.integers(0, 500), min_size=1, max_size=40, unique=True),
    st.sets(st.integers(0, 11), max_size=3),
    st.sampled_from([None, 0.5, 0.9]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_plan_matches_list_based_reference(items, exclude, limit, single, hitchhiking):
    placer = RangedConsistentHashPlacer(12, 3, vnodes=16)
    bundler = Bundler(placer, single_item_rule=single, hitchhiking=hitchhiking)
    request = Request(items=tuple(items), limit_fraction=limit)
    exclude = exclude or None
    assert bundler.plan(request, exclude=exclude) == _reference_plan(
        bundler, request, exclude
    )
