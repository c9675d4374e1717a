"""Statistics and span helpers of the pipeline benchmark.

Pure functions over plain lists and dicts, so the tests can check them
on hand-built inputs.
"""

import math
import statistics

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    """Median of a non-empty sequence (mean of the middle two if even)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def quartiles(values):
    """(Q1, median, Q3), as statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def percentile(values, p):
    """The p-th percentile (0..100), linear between closest ranks."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile out of range: %r" % p)
    pos = (len(s) - 1) * p / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_beyond(n, p):
    """How many of n samples lie strictly beyond the p-th percentile's
    rank (the samples the tail estimate rests on)."""
    return int(math.floor(n * (100.0 - p) / 100.0 + 1e-9))


def highest_supported_percentile(n, min_beyond=10):
    """The highest percentile of TAIL_LADDER with at least `min_beyond`
    of n samples beyond it, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover.  Children may overlap each other
    (concurrent work under one parent); overlapping parts count once.

    `spans` is a list of dicts with id, parent, start_ns and end_ns.
    Returns {id: self_ns}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start_ns"]):
            a, b = max(lo, c["start_ns"]), min(hi, c["end_ns"])
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def layer_self_ms(spans):
    """Per op, the self time of each span name, in ms:
    {op: {name: ms}}.  Spans of one name within an op add up."""
    st = self_times(spans)
    out = {}
    for s in spans:
        per_op = out.setdefault(s["op"], {})
        per_op[s["name"]] = per_op.get(s["name"], 0.0) + st[s["id"]] / 1e6
    return out


def chrome_trace(spans, pid=1):
    """Spans as Chrome trace-event JSON, the shape `vppb <cmd> --profile`
    writes: {"traceEvents": [{"name", "cat", "ph": "X", "ts", "dur",
    "pid", "tid", "args"}]} with microsecond timestamps."""
    events = []
    for s in sorted(spans, key=lambda s: (s["start_ns"], s["id"])):
        events.append({
            "name": s["name"],
            "cat": s["name"].split(".", 1)[0],
            "ph": "X",
            "ts": s["start_ns"] / 1e3,
            "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
            "pid": pid,
            "tid": s["tid"],
            "args": {"op": s["op"], "id": s["id"], "parent": s["parent"]},
        })
    return {"traceEvents": events}
