"""ReadSession on its own: the read policy, one verdict at a time.

Each test hands the session a hand-built round one over a fixed replica
table, scripts the verdicts a driver would record, and checks the waves
it hands out and what it reports.
"""

from __future__ import annotations

from repro.core.bundling import Bundler
from repro.core.session import BUSY, DOWN, TIMEOUT, ReadSession, verdict_for
from repro.errors import ServerBusy, ServerDown, ServerTimeout, ServerUnreachable
from repro.types import FetchPlan, Request, Transaction


class TablePlacer:
    """Replica sets from a dict; the first server is the distinguished copy."""

    def __init__(self, table: dict, epoch=None) -> None:
        self.table = table
        self.n_servers = 1 + max(s for servers in table.values() for s in servers)
        if epoch is not None:
            self.epoch = epoch

    def servers_for(self, item):
        return self.table[item]

    def distinguished_for(self, item):
        return self.table[item][0]


def make_session(table, round_one, *, items=None, limit=None, epoch=None, **kw):
    """``round_one``: ``(server, primary, hitchhikers)`` triples."""
    placer = TablePlacer(table, epoch)
    request = Request(items=tuple(items or table), limit_fraction=limit)
    plan = FetchPlan(
        request=request,
        transactions=tuple(Transaction(s, tuple(p), tuple(h)) for s, p, h in round_one),
    )
    return placer, ReadSession(plan, Bundler(placer), epoch=epoch, **kw)


def drive(session, verdict) -> list[list[tuple[int, tuple]]]:
    """Run ``session`` to the end with ``verdict(fetch)``; the waves sent."""
    sent = []
    while wave := session.next_wave():
        sent.append([(f.server, f.primary) for f in wave])
        for fetch in wave:
            session.record(fetch, verdict(fetch))
    return sent


def everything(fetch):
    return [*fetch.primary, *fetch.hitchhikers]


def test_verdicts_for_transport_errors():
    assert verdict_for(ServerBusy()) == BUSY
    assert verdict_for(ServerTimeout()) == TIMEOUT
    assert verdict_for(ServerUnreachable()) == "unreachable"
    assert verdict_for(ServerDown()) == DOWN
    assert verdict_for(ConnectionError()) == DOWN


def test_misses_go_to_distinguished_copies_bundled_largest_first():
    table = {"a": (0, 3), "b": (0, 3), "c": (2, 3), "d": (1, 3)}
    _, session = make_session(table, [(3, "abcd", "")])
    sent = drive(session, lambda f: ["d"] if f.server == 3 else everything(f))
    assert sent[1] == [(0, ("a", "b")), (2, ("c",))]
    assert session.missing == ()
    assert (session.transactions, session.second_round, session.misses) == (3, 2, 3)


def test_unrescued_misses_are_written_back_where_they_missed():
    table = {"a": (0, 1), "b": (2, 1), "c": (2, 3)}
    _, session = make_session(table, [(1, "ab", ""), (2, "c", "")])
    session.record(session.plan.transactions[0], [])
    session.record(session.plan.transactions[1], ["c"])
    assert session.writebacks() == [("a", 1), ("b", 1)]
    assert session.writeback_target("a") == 1
    assert session.writeback_target("c") is None


def test_hitchhiker_rescued_miss_is_neither_written_back_nor_refetched():
    table = {"a": (0, 1), "b": (1, 0)}
    _, session = make_session(table, [(1, "a", "b"), (0, "b", "a")])
    sent = drive(session, lambda f: ["a"] if f.server == 0 else ["b"])
    # "a" missed on 1 and "b" on 0, but each came back as a hitchhiker
    assert sent == [[(1, ("a",)), (0, ("b",))]]
    assert session.misses == 2
    assert session.writebacks() == []


def test_failed_server_is_out_for_every_key():
    table = {"a": (0, 1, 2), "b": (0, 2, 1), "c": (3, 0, 2)}
    _, session = make_session(table, [(0, "ab", ""), (3, "c", "")])
    sent = drive(session, lambda f: DOWN if f.server in (0, 3) else everything(f))
    # "c" would go to server 0 next, but 0 already failed this request
    assert sent[1] == [(2, ("b", "c")), (1, ("a",))]
    assert session.missing == ()
    assert session.failed == {0, 3}


def test_busy_and_timeout_strike_a_server_out_at_the_limit():
    table = {"a": (0, 1)}
    _, session = make_session(table, [(0, "a", "")], strikes=2)
    verdicts = iter([TIMEOUT, BUSY, ["a"]])
    sent = drive(session, lambda f: next(verdicts))
    # first strike: 0 stays the first candidate; second: 0 is out
    assert [w[0][0] for w in sent] == [0, 0, 1]
    assert session.failed == {0}
    assert session.missing == ()


def test_believed_dead_servers_are_tried_last():
    table = {"a": (0, 1, 2), "b": (0, 1, 2)}
    _, session = make_session(
        table, [(0, "ab", "")], believed_dead=lambda: frozenset({1})
    )
    sent = drive(session, lambda f: DOWN if f.server == 0 else everything(f))
    assert sent[1] == [(2, ("a", "b"))]


def test_limit_wave_is_cut_to_the_quota_before_dispatch():
    table = {k: (0 if k in "abc" else 1, 2) for k in "abcdef"}
    _, session = make_session(table, [(2, "abcd", "")], limit=0.5)
    sent = drive(session, lambda f: [] if f.server == 2 else everything(f))
    # quota 3: the larger group (server 0) first, and the wave stops there
    assert sent[1] == [(0, ("a", "b", "c"))]
    assert len(session.obtained) == 3


def test_unplanned_keys_join_only_once_planned_keys_run_dry():
    table = {"a": (0, 1), "b": (0, 1), "c": (2, 3), "d": (2, 3)}
    _, session = make_session(table, [(0, "ab", "")], limit=0.5)
    sent = drive(session, lambda f: DOWN if f.server in (0, 1) else everything(f))
    # a and b are walked over their replicas first; only then are the
    # unplanned c and d recruited as substitutes
    assert sent[1] == [(1, ("a", "b"))]
    assert sent[2] == [(2, ("c", "d"))]
    assert session.unavailable == ("a", "b")
    assert len(session.obtained) == 2


def test_backstop_serves_exhausted_keys():
    table = {"a": (0, 1)}
    _, session = make_session(table, [(0, "a", "")], backstop=lambda key, answered: True)
    drive(session, lambda f: [])
    assert session.fallbacks == 1
    assert session.missing == () and session.exhausted == []


def test_moved_epoch_allows_one_replan_over_the_new_view():
    table = {"a": (0, 1), "b": (2, 3, 4)}
    placer, session = make_session(table, [(0, "a", ""), (2, "b", "")], epoch=0)

    def verdict(fetch):
        if fetch.server == 4:
            # a removal committed mid-request: "a", already given up under
            # the old view, now lives on server 5
            placer.epoch = 1
            placer.table = {"a": (5, 6), "b": (4, 3, 2)}
        return everything(fetch) if fetch.server in (4, 5) else DOWN

    sent = drive(session, verdict)
    assert sent[1:] == [[(1, ("a",)), (3, ("b",))], [(4, ("b",))], [(5, ("a",))]]
    assert session.missing == () and session.unavailable == ()
    assert session.second_round == 2


def test_no_replan_without_an_epoch_move():
    table = {"a": (0, 1)}
    _, session = make_session(table, [(0, "a", "")], epoch=0)
    sent = drive(session, lambda f: DOWN)
    assert sent[1:] == [[(1, ("a",))]]
    assert session.unavailable == ("a",)
    assert session.waves == 1  # only waves actually sent are counted
