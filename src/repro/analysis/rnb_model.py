"""Semi-analytic TPR model for RnB (a fluid approximation of greedy).

The paper quantifies plain placement in closed form (section II-A) but
evaluates RnB only by simulation — there is no closed form for the
greedy cover over random replica sets.  This module adds the natural
mean-field approximation so capacity planning doesn't need a Monte-Carlo
run per design point:

Model one greedy step on ``u`` still-uncovered items with ``k`` not-yet-
chosen servers.  The crucial observation: an item is still uncovered
exactly when NONE of its R replica servers has been chosen, so all R of
its replicas live among the k remaining servers — a remaining server
holds each uncovered item with probability ``R/k`` (not R/N).  The
greedy pick covers approximately the *maximum* of ``k`` iid
Binomial(u, R/k) draws, Gaussian-approximated at the extreme-value
quantile ``F^-1(k/(k+1))``.  Subtract, repeat; the final step is counted
*fractionally* (if its expected coverage overshoots the remaining items,
only the needed fraction of a transaction is charged), which matches the
fractional Monte-Carlo means.  Termination is guaranteed because the
conditional probability reaches 1 when k = R.

Validation against the Monte-Carlo truth (test suite + bench) over the
grid N in {8..64}, M in {10..100}, R in {2..5}: mean error ~6%, worst
~18% (small-M / large-N corners).  Exact for R = 1 (urn model) and
R = N.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from repro.analysis.urn import expected_tpr

_STD_NORMAL = NormalDist()


def greedy_step_coverage(u: float, k: int, p: float) -> float:
    """Approximate items newly covered by the best of ``k`` candidate
    servers when each holds each of ``u`` items with probability ``p``.

    Gaussian approximation of the expected maximum of k iid
    Binomial(u, p) variables at the ``k/(k+1)`` quantile; at least one
    item is always covered (a useful server exists by feasibility).
    """
    if u <= 0 or k <= 0:
        return 0.0
    if k == 1 or p >= 1.0:
        return max(1.0, min(u, u * p))
    z = _STD_NORMAL.inv_cdf(k / (k + 1.0))
    mean = u * p
    estimate = mean + z * np.sqrt(max(u * p * (1.0 - p), 0.0))
    return max(1.0, estimate)


def predicted_tpr(n_servers: int, request_size: int, replication: int) -> float:
    """Fluid-approximation TPR for a random request under RnB.

    Matches :func:`repro.analysis.urn.expected_tpr` exactly for the
    boundary cases R=N (one transaction) and the R=1 urn model, and
    approximates the greedy simulation otherwise.
    """
    if not (1 <= replication <= n_servers):
        raise ValueError("replication must be in [1, n_servers]")
    if request_size < 1:
        raise ValueError("request_size must be >= 1")
    if replication == n_servers:
        return 1.0
    if replication == 1:
        # exact: greedy on single copies just visits the occupied servers
        return expected_tpr(n_servers, request_size)

    u = float(request_size)
    k = n_servers
    txns = 0.0
    while u > 1e-9 and k > 0:
        # all replicas of still-uncovered items lie in the k remaining
        # servers, so the conditional holding probability is R/k
        p = min(1.0, replication / k)
        cov = greedy_step_coverage(u, k, p)
        if cov >= u:
            txns += u / cov  # fractional final transaction
            u = 0.0
        else:
            u -= cov
            txns += 1.0
        k -= 1
    if u > 1e-9:  # pragma: no cover - p reaches 1 at k == R
        raise RuntimeError("model failed to converge")
    return max(1.0, txns)


def predicted_tpr_curve(
    n_servers_list, request_size: int, replication: int
) -> np.ndarray:
    """Vector form of :func:`predicted_tpr` over fleet sizes."""
    return np.array(
        [predicted_tpr(n, request_size, replication) for n in n_servers_list]
    )


def required_replication(
    n_servers: int, request_size: int, target_tpr: float, *, max_replication: int | None = None
) -> int | None:
    """Smallest replication level whose predicted TPR meets the target.

    The planning question RnB deployments actually ask ("how much memory
    do I buy for a 2x cut?"); returns ``None`` if even ``max_replication``
    cannot reach it.
    """
    if target_tpr < 1.0:
        raise ValueError("target_tpr must be >= 1 transaction")
    limit = max_replication or n_servers
    for r in range(1, min(limit, n_servers) + 1):
        if predicted_tpr(n_servers, request_size, r) <= target_tpr:
            return r
    return None
