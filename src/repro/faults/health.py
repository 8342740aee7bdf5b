"""Per-server health accounting driven by observed errors.

The client side of fault tolerance: a :class:`HealthTracker` watches the
outcomes of transactions and classifies each server as *alive*,
*suspected* (recent consecutive errors) or *dead* (errors past the
``dead_after`` threshold).  The tracker is deliberately passive — it
never probes; it only folds in what the read path already observed —
which matches how memcached client rings mark hosts down in production.

The ``exclusions()`` set feeds straight into
:meth:`repro.core.bundling.Bundler.plan`: dead servers are never chosen
by the cover, and (optionally) suspected ones are avoided too.  A single
success fully rehabilitates a server — crash-stop servers never produce
one, while servers that merely timed out transiently rejoin immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

ALIVE = "alive"
SUSPECTED = "suspected"
DEAD = "dead"


@dataclass(slots=True)
class ServerHealth:
    """Mutable health record for one server."""

    state: str = ALIVE
    consecutive_errors: int = 0
    total_errors: int = 0
    total_successes: int = 0
    consecutive_successes: int = 0
    #: times this server transitioned into DEAD (flap history)
    flaps: int = 0


class HealthTracker:
    """Error-driven alive / suspected / dead state machine per server.

    Parameters
    ----------
    n_servers:
        Fleet size (server ids ``0..n_servers-1``).
    suspect_after:
        Consecutive errors after which a server becomes *suspected*.
    dead_after:
        Consecutive errors after which it is declared *dead*.  Must be
        >= ``suspect_after``.
    flap_threshold:
        Opt-in flap damping.  ``None`` (the default) keeps the classic
        behaviour: one success fully rehabilitates.  When set, a server
        that has already died **at least twice** must produce this many
        *consecutive* successes before a DEAD verdict is lifted — so a
        host that oscillates between up and down stops being re-trusted
        on every blip.  The first death stays cheap to recover from
        (crashes happen; flapping is the pattern being damped).
    """

    def __init__(
        self,
        n_servers: int,
        *,
        suspect_after: int = 1,
        dead_after: int = 3,
        flap_threshold: int | None = None,
    ) -> None:
        if n_servers < 1:
            raise ConfigurationError("n_servers must be >= 1")
        if suspect_after < 1 or dead_after < suspect_after:
            raise ConfigurationError(
                "need 1 <= suspect_after <= dead_after; got "
                f"suspect_after={suspect_after}, dead_after={dead_after}"
            )
        if flap_threshold is not None and flap_threshold < 1:
            raise ConfigurationError("flap_threshold must be >= 1 or None")
        self.n_servers = n_servers
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.flap_threshold = flap_threshold
        self._health = [ServerHealth() for _ in range(n_servers)]
        self._observers: list = []

    # -- observers ----------------------------------------------------------

    def add_observer(self, observer) -> None:
        """Attach a passive listener to every health observation.

        ``observer.observe(server, outcome)`` is called with outcome
        ``"success"`` / ``"error"`` / ``"recovery"`` after the tracker
        folds it in.  This is how a
        :class:`repro.overload.breaker.BreakerBoard` piggybacks on a
        read path that already reports to the health tracker without
        that path growing a second reporting call-site.
        """
        self._observers.append(observer)

    def _notify(self, server: int, outcome: str) -> None:
        for observer in self._observers:
            observer.observe(server, outcome)

    # -- fleet size ---------------------------------------------------------

    def ensure_capacity(self, n_servers: int) -> None:
        """Grow the tracked id space (elastic join); never shrinks."""
        while len(self._health) < n_servers:
            self._health.append(ServerHealth())
        self.n_servers = len(self._health)

    # -- observations -----------------------------------------------------

    def record_success(self, server: int) -> None:
        """A transaction completed: the server is (back) alive.

        Without flap damping a single success fully rehabilitates.  With
        ``flap_threshold`` set, a repeat offender (two or more deaths)
        must string together ``flap_threshold`` consecutive successes
        before its DEAD verdict is lifted.
        """
        h = self._health[server]
        h.consecutive_errors = 0
        h.total_successes += 1
        h.consecutive_successes += 1
        if (
            h.state == DEAD
            and self.flap_threshold is not None
            and h.flaps >= 2
            and h.consecutive_successes < self.flap_threshold
        ):
            self._notify(server, "success")
            return  # damped: still not trusted
        h.state = ALIVE
        self._notify(server, "success")

    def record_error(self, server: int) -> None:
        """A transaction failed (timeout or connection error)."""
        h = self._health[server]
        h.consecutive_errors += 1
        h.total_errors += 1
        h.consecutive_successes = 0
        if h.consecutive_errors >= self.dead_after:
            if h.state != DEAD:
                h.flaps += 1
            h.state = DEAD
        elif h.consecutive_errors >= self.suspect_after:
            h.state = SUSPECTED
        self._notify(server, "error")

    def record_recovery(self, server: int) -> None:
        """Authoritative recovery signal (operator / membership service).

        Unlike :meth:`record_success` this is not an inference from one
        lucky transaction: the server is *known* restarted, so the
        health verdict resets unconditionally.  The *observer
        notification* is damped, though: with ``flap_threshold`` set, a
        repeat offender (two or more deaths — a flapping link restores
        "authoritatively" on every up-phase) notifies ``"success"``
        instead of ``"recovery"``, so a listening breaker board applies
        its normal half-open discipline instead of force-closing and
        forgetting its escalated backoff on every flap.  Counters
        persist; only the live state machine resets.
        """
        h = self._health[server]
        damped = self.flap_threshold is not None and h.flaps >= 2
        h.state = ALIVE
        h.consecutive_errors = 0
        h.consecutive_successes = 0
        self._notify(server, "success" if damped else "recovery")

    # -- queries ------------------------------------------------------------

    def state(self, server: int) -> str:
        return self._health[server].state

    def is_available(self, server: int) -> bool:
        """Dead servers are unavailable; suspected ones still get traffic."""
        return self._health[server].state != DEAD

    def exclusions(self, *, include_suspected: bool = False) -> frozenset[int]:
        """Servers the cover should avoid."""
        banned = (DEAD, SUSPECTED) if include_suspected else (DEAD,)
        return frozenset(
            sid for sid, h in enumerate(self._health) if h.state in banned
        )

    def alive_servers(self) -> frozenset[int]:
        return frozenset(
            sid for sid, h in enumerate(self._health) if h.state != DEAD
        )

    def snapshot(self) -> dict[int, ServerHealth]:
        """Copy of the per-server records (for metrics/debugging)."""
        return {
            sid: ServerHealth(
                state=h.state,
                consecutive_errors=h.consecutive_errors,
                total_errors=h.total_errors,
                total_successes=h.total_successes,
                consecutive_successes=h.consecutive_successes,
                flaps=h.flaps,
            )
            for sid, h in enumerate(self._health)
        }

    def counts(self) -> dict[str, int]:
        """How many servers are in each state."""
        out = {ALIVE: 0, SUSPECTED: 0, DEAD: 0}
        for h in self._health:
            out[h.state] += 1
        return out


def believed_dead(health: HealthTracker | None, breakers=None) -> frozenset[int]:
    """Servers a health tracker declares dead or a breaker board holds
    open: read plans avoid them and repair waves try them last."""
    dead = health.exclusions() if health is not None else frozenset()
    if breakers is not None:
        dead = dead | breakers.tripped()
    return dead
