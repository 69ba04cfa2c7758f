"""Summary statistics, result hashing and span self time.

Stdlib only: the orchestrator (``run.py``), ``compare.py`` and the
tests import it, and none of them need the simulator on the path.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: checkpoint-record fields that name the point or time it rather than
#: hold its simulated outcome; excluded when records are compared.
IDENTITY_FIELDS = ("key", "config", "benchmarks", "length", "seed",
                   "elapsed_s")


# -- summaries --------------------------------------------------------------

def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median and quartiles of *values* (``statistics.quantiles`` with
    ``n=4``, the default exclusive method), plus every run."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values to summarize")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def spread(summary: Mapping[str, float]) -> float:
    """Distance between the quartiles as a share of the median."""
    median = summary["median"]
    width = summary["q3"] - summary["q1"]
    if median == 0:
        return 0.0 if width == 0 else float("inf")
    return width / abs(median)


def percentile(values: Sequence[float], pct: int) -> float:
    """The *pct*-th percentile (1..99) by the same exclusive method as
    :func:`summarize`; the median for ``pct == 50``."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values")
    if pct == 50 or len(values) == 1:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[pct - 1]


# -- result hashing ---------------------------------------------------------

def _sha(doc: object) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def record_digest(record: Mapping[str, object]) -> str:
    """Digest of a checkpoint or result record's simulated outcome
    (every field but :data:`IDENTITY_FIELDS`)."""
    return _sha({k: v for k, v in record.items()
                 if k not in IDENTITY_FIELDS})


def point_summary(record: Mapping[str, object]) -> Dict[str, object]:
    """The per-point facts the correctness gate compares."""
    threads = [[t["benchmark"], t["retired"], t["cpi"]]
               for t in record["threads"]]
    return {"cycles": record["cycles"], "threads": threads,
            "retired": sum(t[1] for t in threads),
            "digest": record_digest(record)}


def results_hash(points: Mapping[str, Mapping[str, object]]) -> str:
    """Hash of the canonical list ``(point key, cycles, [(benchmark,
    retired, cpi)])`` sorted by key."""
    return _sha([[key, points[key]["cycles"], points[key]["threads"]]
                 for key in sorted(points)])


def records_hash(points: Mapping[str, Mapping[str, object]]) -> str:
    """Hash over every point's full-record digest, sorted by key."""
    return _sha([[key, points[key]["digest"]] for key in sorted(points)])


def mismatched(reference: Mapping[str, Mapping[str, object]],
               other: Mapping[str, Mapping[str, object]]) -> List[str]:
    """Keys whose records differ, or that only one side has."""
    keys = set(reference) | set(other)
    return sorted(k for k in keys
                  if k not in reference or k not in other
                  or reference[k]["digest"] != other[k]["digest"])


# -- spans ------------------------------------------------------------------

SpanKey = Tuple[int, int]


def _covered(start: float, end: float,
             intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of *intervals* clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Mapping[str, object]]
               ) -> Dict[SpanKey, float]:
    """Each span's duration minus the time its child spans cover.

    A span is a mapping with ``pid``, ``id``, ``parent`` (an ``id`` in
    the same process, or ``None``), ``start`` and ``end``.
    """
    children: Dict[SpanKey, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["pid"], s["parent"])].append((s["start"], s["end"]))
    out: Dict[SpanKey, float] = {}
    for s in spans:
        key = (s["pid"], s["id"])
        out[key] = (s["end"] - s["start"]) - _covered(
            s["start"], s["end"], children.get(key, ()))
    return out
