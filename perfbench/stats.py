"""Sample statistics and span arithmetic of the benchmark.

Everything here is pure arithmetic over what the binary measured, so the
unit tests in tests/test_stats.py pin it down without running anything.
"""

import math

# A tail percentile is printed only with at least this many samples beyond
# it; fewer, and it would describe one or two outliers, not a tail.
MIN_BEYOND = 10

# Tail percentiles a summary may name, highest first.
TAIL_QUANTILES = (0.999, 0.99, 0.9, 0.75)


class Refused(ValueError):
    """A statistic the samples cannot honestly support."""


def _rank(count, q):
    """1-based nearest rank of the q-quantile among `count` samples."""
    return min(count, max(1, math.ceil(q * count)))


def percentile(values, q, failed=0):
    """Nearest-rank q-quantile of `values` plus `failed` samples.

    A failed or refused operation misses every latency limit, so it counts
    as a sample slower than any measured one.  The median (q <= 0.5) is
    always given; a higher percentile is refused when fewer than MIN_BEYOND
    samples lie beyond it, and when it falls among the failed operations.
    """
    count = len(values) + failed
    if count == 0:
        raise Refused("no samples")
    rank = _rank(count, q)
    if q > 0.5 and count - rank < MIN_BEYOND:
        raise Refused(
            "p%g of %d samples has %d beyond it; needs %d"
            % (q * 100, count, count - rank, MIN_BEYOND))
    if rank > len(values):
        raise Refused("p%g falls among %d failed operations" % (q * 100, failed))
    return sorted(values)[rank - 1]


def median(values):
    """The nearest-rank median."""
    return percentile(values, 0.5)


def summarize(values, failed=0):
    """Median, the highest TAIL_QUANTILES entry the samples support, count.

    Returns (median, tail_quantile or None, tail_value or None, count).
    """
    count = len(values) + failed
    for q in TAIL_QUANTILES:
        try:
            return (percentile(values, 0.5, failed), q,
                    percentile(values, q, failed), count)
        except Refused:
            continue
    return percentile(values, 0.5, failed), None, None, count


def failed_fraction(attempted, failed):
    """Failed (or refused) operations over operations attempted."""
    if attempted < 1:
        raise Refused("no operations attempted")
    if not 0 <= failed <= attempted:
        raise Refused("%d failed of %d attempted" % (failed, attempted))
    return failed / attempted


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    `spans` holds (lane, index, parent, name, start, end, ...) tuples, with
    parent -1 for a root; a parent refers to the span at that index in the
    same lane.  Children may overlap each other or stick out of the parent;
    only the part of the parent's interval that some child covers counts.
    Returns a list aligned with `spans`.
    """
    children = {}
    for span in spans:
        if span[2] >= 0:
            children.setdefault((span[0], span[2]), []).append(span)
    result = []
    for span in spans:
        start, end = span[4], span[5]
        intervals = sorted(
            (max(start, c[4]), min(end, c[5]))
            for c in children.get((span[0], span[1]), ()))
        covered = 0
        reach = start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result
