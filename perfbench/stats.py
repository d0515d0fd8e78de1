"""Sample statistics and the paper comparison shared by every workload."""

from __future__ import annotations

import statistics

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """The ``p``-th percentile (0-100), interpolated between order statistics."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than eleven samples no
    such percentile exists and the maximum is returned as the 100th.
    """
    ordered = sorted(values)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    index = len(ordered) - beyond - 1
    return float(ordered[index]), 100.0 * (index + 1) / len(ordered)


def paper_gap(cells, averages) -> tuple[float, int]:
    """Mean absolute gap, in percentage points, to the paper's Table 2.

    ``cells`` holds ``(kind, cache_kb, family, removed_percent)`` per
    result; ``averages`` holds ``(kind, cache_kb, family, paper_value)``.
    Cells are averaged per (kind, size, family) group first, as the
    paper's "average" rows are; groups without a paper value are
    skipped.  Returns the gap and the number of groups compared.
    """
    reference = {(kind, kb, family): value for kind, kb, family, value in averages}
    groups: dict[tuple, list[float]] = {}
    for kind, kb, family, removed in cells:
        if (kind, kb, family) in reference:
            groups.setdefault((kind, kb, family), []).append(removed)
    if not groups:
        raise ValueError("no result has a paper Table 2 counterpart")
    gaps = [abs(statistics.fmean(v) - reference[key]) for key, v in groups.items()]
    return statistics.fmean(gaps), len(groups)


def normalize_report(payload):
    """Zero a report's volatile fields (timings, host paths, backend).

    The same normalization the repository's golden-report tests apply.
    """
    if isinstance(payload, dict):
        return {
            key: (
                0.0 if key == "seconds"
                else None if key in ("cache_dir", "backend")
                else normalize_report(value)
            )
            for key, value in payload.items()
        }
    if isinstance(payload, list):
        return [normalize_report(item) for item in payload]
    return payload
