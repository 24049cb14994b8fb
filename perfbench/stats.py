"""Summary statistics of one benchmark run (pure functions, no I/O)."""

import statistics

TAIL_BEYOND = 10      # samples that must lie beyond the reported tail
TAIL_MIN_SAMPLES = 20  # below this the tail is not reported


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND, min_samples: int = TAIL_MIN_SAMPLES):
    """Value at the highest percentile that still has `beyond` samples above it.

    Returns (value, percentile, samples_beyond), or None when fewer than
    `min_samples` values exist.  Of n sorted values the k-th (1-based) has
    n - k beyond it, so k = n - beyond and the percentile is 100 k / n.
    """
    n = len(values)
    if n < max(min_samples, beyond + 1):
        return None
    k = n - beyond
    return float(sorted(values)[k - 1]), 100.0 * k / n, beyond


def outcome_counts(statuses) -> dict:
    """Attempted, certified, refused and failed operations, and their shares.

    `fail_ratio` counts every operation without a certified result, the
    refused ones included; `certified_ratio` is its complement.
    """
    statuses = list(statuses)
    attempted = len(statuses)
    counts = {s: statuses.count(s) for s in ("certified", "refused", "failed")}
    counts["attempted"] = attempted
    counts["certified_ratio"] = counts["certified"] / attempted if attempted else 0.0
    counts["fail_ratio"] = 1.0 - counts["certified_ratio"] if attempted else 0.0
    return counts

