"""The benchmark's own arithmetic: percentiles, open-loop latency and
failure accounting, and run-to-run spread. Pure functions over the raw
records fbmpk_perfbench writes, so they can be tested on synthetic data
(test_perfstats.py).
"""

import math
import statistics

# Percentiles considered when reporting "the highest percentile that has
# at least ten samples beyond it".
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def rank(q, n):
    """1-based nearest-rank index of percentile q among n samples."""
    if n <= 0:
        raise ValueError("percentile of no samples")
    return min(n, max(1, math.ceil(q / 100.0 * n)))


def percentile(values, q):
    """Nearest-rank percentile; math.inf entries (failed requests) sort
    last, so a failure counts as missing any latency limit."""
    ordered = sorted(values)
    return ordered[rank(q, len(ordered)) - 1]


def beyond(q, n):
    """Number of samples strictly above the nearest-rank q-th percentile."""
    return n - rank(q, n)


def highest_supported(n, candidates=TAIL_CANDIDATES, min_beyond=MIN_BEYOND):
    """Highest candidate percentile with at least `min_beyond` samples
    beyond it among n samples, or None when even the lowest has fewer."""
    for q in candidates:
        if n > 0 and beyond(q, n) >= min_beyond:
            return q
    return None


def ok(record):
    """A call or request succeeded: no typed error and a correct result."""
    return record.get("status", "ok") == "ok" and record["correct"]


def latencies_ms(records):
    """Latency of each call or request, counted from its due time (not
    its send time), so a stalled generator charges the wait it imposed
    on later requests. Failed or wrong results are math.inf."""
    return [(r["done"] - r["due"]) * 1e3 if ok(r) else math.inf
            for r in records]


def lateness_ms(records):
    """How late the generator sent each request against its schedule."""
    return [(r["send"] - r["due"]) * 1e3 for r in records]


def call_ms(records):
    """Time from send to done: what the caller measures once it sends."""
    return [(r["done"] - r["send"]) * 1e3 for r in records]


def fail_counts(records):
    """(attempted, failed, breakdown) over calls and requests. A
    request fails on a typed error (overload refusals and timeouts are
    broken out) or on a result that differs from the oracle."""
    breakdown = {"error": 0, "overloaded": 0, "timeout": 0, "wrong": 0}
    for r in records:
        status = r.get("status", "ok")
        if status == "ok":
            if not r["correct"]:
                breakdown["wrong"] += 1
        elif status in ("overloaded", "timeout"):
            breakdown[status] += 1
        else:
            breakdown["error"] += 1
    return len(records), sum(breakdown.values()), breakdown


def completed_per_second(records, start, end):
    """Verified-correct completions per second over [start, end]."""
    return sum(1 for r in records if ok(r)) / (end - start)


def spread(values):
    """Inter-quartile distance as a share of the median, with the
    quartiles statistics.quantiles(values, n=4) gives."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
