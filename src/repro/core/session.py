"""The RnB read policy as a sans-IO state machine (paper §III-C/D/F).

A :class:`ReadSession` walks one request through the read path without
touching a server itself.  It hands out *waves* of fetches and takes one
verdict per fetch; a driver does the I/O in between.  Every RnB client
is such a driver (docs/FAULTS.md, "The fault-tolerant client"), so the
policy is written once, here:

1. **Round one** is the plan's transactions.  A primary key a server did
   not return *missed* there (its replica was evicted); a hitchhiker hit
   elsewhere rescues it.  Unrescued misses are written back to the
   server that missed them, the replica the greedy cover picked first
   (§III-C2) — :meth:`writebacks` / :meth:`writeback_target` name them,
   the driver supplies the data.
2. **Repair waves** group each still-missing key by its next candidate:
   the first replica (distinguished copy first) that has not answered
   for it and has not failed this request, servers believed dead before
   the wave tried last.  Groups are sent largest first, ties on the
   lowest server id, and a wave stops once the quota is covered,
   truncating the last group to it (LIMIT, §III-F).  The cut is fixed
   before dispatch, so every driver sends exactly the same wave.
3. **Substitutes**: when the planned keys are exhausted short of the
   quota, the request's unplanned keys join the waves.
4. **Strikes**: ``down`` and ``unreachable`` put a server out for the
   rest of the request at once; ``busy`` and ``timeout`` do so at the
   ``strikes``-th verdict; until then the server stays a candidate for
   the keys it failed to serve.
5. **Epoch re-plan**: if the placer's epoch moved since ``epoch`` and
   keys are still missing, one fresh plan over the new view is fetched,
   skipping failed servers; then the session ends.

A key with no candidate left is *exhausted*: a ``backstop`` (the
simulator's backing store) may serve it, otherwise it is unavailable.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import filterfalse
from typing import AbstractSet, Callable, NamedTuple

from repro.errors import ServerBusy, ServerUnreachable
from repro.types import FetchPlan, ItemId, Request, Transaction

DOWN = "down"
UNREACHABLE = "unreachable"
BUSY = "busy"
TIMEOUT = "timeout"


class Fetch(NamedTuple):
    """One multi-get of a repair wave.  Round one hands out the plan's
    :class:`~repro.types.Transaction` objects, which have the same fields;
    this lighter type keeps repair waves cheap on the simulator's hot path.
    """

    server: int
    primary: tuple
    hitchhikers: tuple = ()

    @property
    def n_items(self) -> int:
        return len(self.primary) + len(self.hitchhikers)


def verdict_for(exc: BaseException) -> str:
    """The failure verdict a transport exception stands for."""
    if isinstance(exc, ServerBusy):
        return BUSY
    if isinstance(exc, TimeoutError):
        return TIMEOUT
    if isinstance(exc, ServerUnreachable):
        return UNREACHABLE
    return DOWN


class ReadSession:
    """One request's read path, from the planned round one to the end.

    Parameters
    ----------
    plan:
        Round one, from ``bundler.plan``; its request carries the quota.
    bundler:
        The planner; its placer names each key's replicas, and it builds
        the epoch re-plan.
    epoch:
        The topology epoch the caller last planned under; a placer epoch
        that differs from it at the end allows the one re-plan.
    strikes:
        ``busy``/``timeout`` verdicts after which a server is out for the
        rest of the request.
    believed_dead:
        Returns the servers to try last; asked once, before the first
        repair wave.
    backstop:
        ``backstop(key, answered)`` serves an exhausted key from outside
        the fleet and says whether it did; ``answered`` are the servers
        that answered without the key.
    """

    __slots__ = (
        "plan", "bundler", "epoch", "strikes", "_believed_dead", "_backstop",
        "obtained", "failed", "misses", "transactions", "second_round",
        "repaired", "waves", "fallbacks", "exhausted", "round_one",
        "_pending", "_missed_at", "_strike_count", "_dead", "_started",
        "_recruited", "_replanned", "_done",
    )

    def __init__(
        self,
        plan: FetchPlan,
        bundler,
        *,
        epoch: int | None = None,
        strikes: int = 1,
        believed_dead: Callable[[], AbstractSet[int]] | None = None,
        backstop: Callable[[ItemId, tuple], bool] | None = None,
    ) -> None:
        self.plan = plan
        self.bundler = bundler
        self.epoch = epoch
        self.strikes = strikes
        self._believed_dead = believed_dead
        self._backstop = backstop
        #: every request key obtained so far (hitchhikers included)
        self.obtained: set[ItemId] = set()
        #: servers out for the rest of the request
        self.failed: AbstractSet[int] = frozenset()
        #: tallies: primary keys a server answered without; fetches that
        #: returned, and the repair fetches among them; keys the repairs
        #: obtained; repair waves handed out; exhausted keys the backstop
        #: served
        self.misses = self.transactions = self.second_round = 0
        self.repaired = self.waves = self.fallbacks = 0
        #: exhausted keys nobody could serve
        self.exhausted: list | tuple = ()
        #: True while the wave in hand is round one
        self.round_one = True
        # the containers only misses and failures need are made on first
        # use (_repair_state): an all-hit round one costs one set
        self._pending: dict | None = None  # key -> servers without it (tuple)
        self._missed_at: dict | None = None  # round-one miss -> its server
        self._strike_count: dict | None = None
        self._dead: AbstractSet[int] = frozenset()
        self._started = self._recruited = self._replanned = self._done = False

    def _repair_state(self) -> None:
        if self._pending is None:
            self._pending, self._missed_at, self._strike_count = {}, {}, {}
            self.failed, self.exhausted = set(), []

    # -- verdicts ------------------------------------------------------------

    def record(self, fetch: Fetch | Transaction, verdict, missed=None) -> None:
        """Take one fetch's verdict: the keys it returned (any iterable,
        e.g. a ``{key: value}`` dict) or ``down``/``unreachable``/``busy``/
        ``timeout``.

        ``missed``, the primary keys the server answered without, spares
        the scan of ``verdict`` when the driver already has them (the
        simulator's ``multi_get`` reports them).
        """
        if verdict.__class__ is str:
            self._repair_state()
            sid = fetch.server
            if verdict == BUSY or verdict == TIMEOUT:
                n = self._strike_count[sid] = self._strike_count.get(sid, 0) + 1
                if n >= self.strikes:
                    self.failed.add(sid)
            else:
                self.failed.add(sid)
            if self.round_one:
                for key in fetch.primary:
                    self._pending[key] = ()
            return
        self.transactions += 1
        self.obtained.update(verdict)
        if missed is None:
            if len(verdict) == len(fetch.primary) + len(fetch.hitchhikers):
                missed = ()
            else:
                got = verdict if verdict.__class__ is dict else set(verdict)
                missed = list(filterfalse(got.__contains__, fetch.primary))
        if self.round_one:
            if missed:
                self._repair_state()
                self.misses += len(missed)
                sid = fetch.server
                for key in missed:
                    self._missed_at[key] = sid
                    self._pending[key] = (sid,)
            return
        self.second_round += 1
        self.repaired += len(verdict)
        self.misses += len(missed)
        pending = self._pending
        for key in missed:
            if key in pending:
                pending[key] += (fetch.server,)

    def mark_failed(self, sid: int) -> None:
        """A server failed outside a fetch (say, a write-back): it is out
        for the rest of the request."""
        self._repair_state()
        self.failed.add(sid)

    # -- write-back ------------------------------------------------------------

    def writeback_target(self, key: ItemId) -> int | None:
        """The server to write ``key`` back to: where it missed in round
        one, unless that server has failed or the view was re-planned."""
        sid = self._missed_at.get(key) if self._missed_at else None
        if sid is None or sid in self.failed or self._replanned:
            return None
        return sid

    def writebacks(self) -> list[tuple[ItemId, int]]:
        """``(key, server)`` for every round-one miss not rescued yet, in
        miss order — the simulator writes these back from its database
        right after round one."""
        if not self._missed_at:
            return []
        obtained = self.obtained
        return [
            (key, sid)
            for key, sid in self._missed_at.items()
            if key not in obtained and sid not in self.failed
        ]

    # -- waves -----------------------------------------------------------------

    def next_wave(self) -> tuple[Transaction, ...] | list[Fetch]:
        """The next wave to send: round one, then the repair waves; empty
        once the request is done.  Record every verdict of a wave before
        asking for the next one."""
        if self.round_one:
            if not self._started:
                self._started = True
                if self.plan.transactions:
                    return self.plan.transactions
            self.round_one = False
            if len(self.obtained) >= self.plan.request.required_items:
                self._done = True
                return []
            self._repair_state()
            if self._believed_dead is not None:
                self._dead = self._believed_dead()
        elif self._done:
            return []
        obtained = self.obtained
        required = self.plan.request.required_items
        while len(obtained) < required:
            groups = self._group()
            if groups:
                self.waves += 1
                need = required - len(obtained)
                wave = []
                for sid, keys in sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0])):
                    if need <= 0:
                        break
                    keys = keys[:need]
                    need -= len(keys)
                    # the cut follows miss order; a server sees its keys
                    # sorted, so its LRU recency never depends on that order
                    wave.append(Fetch(sid, tuple(sorted(keys))))
                return wave
            if not self._recruited:
                self._recruit()
                continue
            return self._replan()
        self._done = True
        return []

    @property
    def missing(self) -> tuple[ItemId, ...]:
        """Request keys not obtained, in request order."""
        obtained = self.obtained
        return tuple(k for k in self.plan.request.items if k not in obtained)

    @property
    def unavailable(self) -> tuple[ItemId, ...]:
        """Exhausted keys that were never obtained."""
        obtained = self.obtained
        return tuple(k for k in self.exhausted if k not in obtained)

    # -- internals -------------------------------------------------------------

    def _group(self) -> dict[int, list[ItemId]]:
        """Group pending keys by next candidate; settle exhausted ones."""
        servers_for = self.bundler.placer.servers_for
        obtained, failed, dead = self.obtained, self.failed, self._dead
        pending = self._pending
        groups: dict[int, list[ItemId]] = defaultdict(list)
        settled = []
        for key, answered in pending.items():
            if key in obtained:
                settled.append(key)
                continue
            pick = None
            for s in servers_for(key):
                if s in failed or s in answered:
                    continue
                if s not in dead:
                    pick = s
                    break
                if pick is None:
                    pick = s
            if pick is not None:
                groups[pick].append(key)
                continue
            settled.append(key)
            if self._backstop is not None and self._backstop(key, answered):
                obtained.add(key)
                self.fallbacks += 1
            else:
                self.exhausted.append(key)
        for key in settled:
            del pending[key]
        return groups

    def _recruit(self) -> None:
        """Unplanned keys become substitutes once the planned ones ran dry
        (every planned key is obtained or exhausted by then)."""
        self._recruited = True
        given_up = set(self.exhausted)
        for key in self.plan.request.items:
            if key not in self.obtained and key not in given_up:
                self._pending[key] = ()

    def _replan(self) -> list[Transaction]:
        """One plan over a moved view for the still-missing keys, if the
        epoch moved; otherwise the request is done."""
        self._done = True
        now = getattr(self.bundler.placer, "epoch", None)
        if now is None or now == self.epoch:
            return []
        self._replanned = True
        plan = self.bundler.plan(Request(items=self.missing))
        return [t for t in plan.transactions if t.server not in self.failed]
