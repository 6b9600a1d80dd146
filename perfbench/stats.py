"""Statistics the fs2 benchmark reports and checks itself against.

- A timing is reported as its median, the highest percentile that has at
  least ten samples beyond it, and the sample count.
- A run's throughput is its total work over the total time of its units.
- A set of runs is steady when the distance between the first and third
  quartile of a metric, as a share of its median, stays within a share of
  the metric's bound (``statistics.quantiles(values, n=4)``, the exclusive
  method).
- A second set of runs is no worse than a first when its median is not
  worse by more than the bound, in the metric's better direction.
"""

import math
import statistics

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def throughput(rates, equal_time=False):
    """Total work over total time of a run's units, from their per-unit
    rates: the harmonic mean when every unit is the same work, the mean
    when every unit lasts the same time."""
    return statistics.mean(rates) if equal_time else statistics.harmonic_mean(rates)


def percentile(values, pct):
    """The pct-th percentile, interpolating linearly between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = (len(xs) - 1) * pct / 100.0
    lo = math.floor(k)
    hi = math.ceil(k)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n):
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None when n is too small for any."""
    for pct in TAIL_PERCENTILES:
        # Integer arithmetic: n * (100 - pct) / 100 >= MIN_BEYOND.
        if n * (10000 - round(pct * 100)) >= MIN_BEYOND * 10000:
            return pct
    return None


def summarize(values):
    """Median, tail value, tail percentile and n of a sample list. With too
    few samples for any tail percentile the tail is the maximum (reported
    as percentile 100); with none, everything is 0."""
    n = len(values)
    if n == 0:
        return {"median": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    pct = tail_percentile(n)
    if pct is None:
        return {"median": median(values), "tail": max(values), "tail_pct": 100.0, "n": n}
    return {"median": median(values), "tail": percentile(values, pct), "tail_pct": pct, "n": n}


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    if better == "lower":
        return (second - first) / first
    if better == "higher":
        return (first - second) / first
    raise ValueError("better must be 'lower' or 'higher', not %r" % (better,))


def within_bound(first_values, second_values, better, bound):
    """True when the second set's median is not worse than the first's by
    more than `bound`."""
    return worsening(median(first_values), median(second_values), better) <= bound
