"""Arithmetic of the FLOC benchmark, kept apart from the driver so that
``test_benchmath.py`` can check it on synthetic inputs.

Nothing here imports ``repro``: every function takes plain numbers or
span records and returns plain numbers.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "dedup_ratio",
    "hit_ratio",
    "host_normalised",
    "idle_frac",
    "kept_ratio",
    "scaleout_eff",
    "self_times",
    "tail_percentile",
]

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(
    samples: Sequence[float], beyond: int = TAIL_BEYOND
) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``beyond`` samples above it.

    With ``n`` sorted samples the value at index ``n - beyond - 1`` has
    exactly ``beyond`` samples after it; by the nearest-rank rule it is
    the ``100 * (n - beyond) / n``-th percentile.  Returns
    ``(percentile, value, n)``, or ``None`` when ``n <= beyond`` (no
    percentile has enough samples beyond it).
    """
    n = len(samples)
    if n <= beyond:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1], n


def self_times(
    spans: Sequence[Tuple[str, float, float]]
) -> Dict[str, Dict[str, float]]:
    """Per-name call count, total and self time of one thread's spans.

    ``spans`` holds ``(name, end, elapsed)`` in the order the spans
    finished, which is how a tracer reports them: a child always
    finishes before its parent.  A span's self time is its duration
    minus the part of its interval that its child spans cover.

    A finished span waits in ``pending`` until the span that encloses
    it finishes.  When a span finishes, its children are exactly the
    pending spans that ended after it started; siblings that ended
    before it started stay pending for a later parent.
    """
    out: Dict[str, Dict[str, float]] = {}
    pending: List[Tuple[float, float]] = []  # (start, end) of unclaimed spans
    for name, end, elapsed in spans:
        start = end - elapsed
        children: List[Tuple[float, float]] = []
        while pending and pending[-1][1] > start:
            child_start, child_end = pending.pop()
            lo, hi = max(child_start, start), min(child_end, end)
            if hi > lo:
                children.append((lo, hi))
        covered = 0.0
        reach = start
        for lo, hi in sorted(children):
            if hi > reach:
                covered += hi - max(lo, reach)
                reach = hi
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += elapsed
        agg["self_s"] += max(0.0, elapsed - covered)
        pending.append((start, end))
    return out


def hit_ratio(performed: int, consults: int) -> float:
    """Share of gain consults that led to a performed action."""
    return performed / consults if consults else 0.0


def kept_ratio(toggles: int, actions: int) -> float:
    """``(toggles - actions) / actions``.

    Every performed action flips one membership bit, and a sweep that
    improves the score replays its best prefix, flipping each kept bit
    once more.  The extra toggles therefore count the kept actions, and
    ``1 - kept_ratio`` is the share of performed actions thrown away.
    """
    return (toggles - actions) / actions if actions else 0.0


def idle_frac(compute_s: float, workers: int, wall_s: float) -> float:
    """Share of the workers' wall-clock capacity not spent computing."""
    return 1.0 - compute_s / (workers * wall_s)


def scaleout_eff(
    restart_seconds: Sequence[float], workers: int, wall_s: float
) -> float:
    """Serial restart compute over the parallel session's capacity:
    ``sum(restart_seconds) / (workers * wall_s)``."""
    return sum(restart_seconds) / (workers * wall_s)


def dedup_ratio(n_deduplicated: int, n_pooled: int) -> float:
    """Share of pooled clusters dropped as duplicates."""
    return n_deduplicated / n_pooled if n_pooled else 0.0


def host_normalised(
    walls: Sequence[float], probes: Sequence[float], probe_ref_s: float
) -> float:
    """A run's session time on a host where the probe takes ``probe_ref_s``.

    ``geomean(walls) / geomean(probes) * probe_ref_s``.  A single probe
    says little about the session after it, but over a run the probes
    slow down with the host as the sessions do, so the ratio of their
    geometric means cancels the host's drift between runs, while a
    change to the program moves it as much as the sessions' own times.
    """
    if not walls or len(walls) != len(probes):
        raise ValueError("need one probe per session")
    return probe_ref_s * statistics.geometric_mean(walls) / statistics.geometric_mean(probes)
