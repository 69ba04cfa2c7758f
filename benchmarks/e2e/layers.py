"""Workload and metric catalogue, and the per-layer metrics of one
traced rep.

Layer names are ``src/repro`` module names; ``tracing.py`` says which
function each span wraps.  Every per-layer metric is a sum over all
processes of the rep (campaign process, server, pool workers) unless its
definition below says otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Mapping

from benchmarks.e2e.stats import self_times

WORKLOADS = ("grid.local", "solo.sweep", "grid.serve")

#: end-to-end metric -> unit.  Only the untraced reps produce these.
END_TO_END = {
    "wall_s": "s",
    "sim_kips": "kinstr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "hit_latency_p50_s": "s",
    "hit_latency_p90_s": "s",
    "failed_frac": "ratio",
}

#: per-layer metric -> unit.
PER_LAYER = {
    "trace.generate_s": "s",
    "trace.generate_calls": "count",
    "executor.trace_memo_hit_ratio": "ratio",
    "executor.worker_busy_frac": "ratio",
    "executor.first_result_s": "s",
    "core.run_s": "s",
    "core.ns_per_instr": "ns",
    "core.ns_per_stepped_cycle": "ns",
    "core.gang_points_frac": "ratio",
    "core.retired_instrs": "count",
    "core.stepped_cycles": "count",
    "core.skipped_cycles": "count",
    "core.ff_jumps": "count",
    "store.put_s": "s",
    "store.put_calls": "count",
    "store.get_s": "s",
    "store.get_calls": "count",
    "store.hit_ratio": "ratio",
    "warehouse.ingest_s": "s",
    "warehouse.campaign_mark_s": "s",
    "campaign.self_s": "s",
    "client.requests": "count",
    "client.requests_per_job": "count",
    "client.request_p50_s": "s",
    "queue.wait_p50_s": "s",
    "queue.submit_s": "s",
    "scheduler.batches": "count",
    "scheduler.points_per_batch": "count",
    "bench.tracing_overhead_frac": "ratio",
    "bench.unattributed_frac": "ratio",
}

#: spans that are one unit of pool work: a local pool task, or one
#: service batch.  Each is a worker process's outermost span.
TASK_SPANS = ("executor.task", "scheduler.run_batch")


def load_spans(directory: Path) -> List[dict]:
    spans: List[dict] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with path.open() as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[dict], rep: Mapping[str, object],
                  untraced_wall_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced rep.

    *rep* is ``rep.py``'s result for that rep (``wall_s``,
    ``first_result_s``, ``attempted``, ``jobs``); *untraced_wall_s* is
    the median ``wall_s`` of the untraced reps of the same workload.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[dict]] = defaultdict(list)
    index = {}
    for s in spans:
        by_name[s["name"]].append(s)
        index[(s["pid"], s["id"])] = s

    def self_s(*names: str) -> float:
        return sum(selfs[(s["pid"], s["id"])]
                   for n in names for s in by_name[n])

    def attr(key: str, *names: str) -> float:
        return sum(s.get("attrs", {}).get(key, 0)
                   for n in names for s in by_name[n])

    def count(*names: str) -> int:
        return sum(len(by_name[n]) for n in names)

    wall = rep["wall_s"]
    tasks = [s for n in TASK_SPANS for s in by_name[n]]
    task_time = sum(s["end"] - s["start"] for s in tasks)
    core = ("core.run", "core.gang_run")
    core_s = self_s("core.build", *core)
    retired = attr("retired", *core)
    stepped = attr("cycles", *core) - attr("skipped", *core)
    gets = count("store.get")
    phase1_requests = [
        s for s in by_name["client.request"]
        if s["parent"] is not None
        and index[(s["pid"], s["parent"])]["name"] == "campaign.run"]
    waits = [w for s in by_name["queue.take_batch"]
             for w in s["attrs"]["waits"]]
    if not waits and by_name["executor.run_points"]:
        # local workloads: every task is submitted to the process pool on
        # run_points' first step; a task waits until a worker starts it.
        submitted = min(s["start"] for s in by_name["executor.run_points"])
        waits = [s["start"] - submitted for s in by_name["executor.task"]]
    return {
        "trace.generate_s": self_s("trace.generate"),
        "trace.generate_calls": count("trace.generate"),
        "executor.trace_memo_hit_ratio": 1.0 - _ratio(
            count("trace.generate"), attr("requested", "executor.traces_for")),
        "executor.worker_busy_frac": _ratio(task_time, rep["jobs"] * wall),
        "executor.first_result_s": rep["first_result_s"],
        "core.run_s": core_s,
        "core.ns_per_instr": _ratio(core_s * 1e9, retired),
        "core.ns_per_stepped_cycle": _ratio(core_s * 1e9, stepped),
        "core.gang_points_frac": _ratio(attr("points", "core.gang_run"),
                                        attr("points", *core)),
        "core.retired_instrs": retired,
        "core.stepped_cycles": stepped,
        "core.skipped_cycles": attr("skipped", *core),
        "core.ff_jumps": attr("jumps", *core),
        "store.put_s": self_s("store.put"),
        "store.put_calls": count("store.put"),
        "store.get_s": self_s("store.get"),
        "store.get_calls": gets,
        "store.hit_ratio": _ratio(attr("hit", "store.get"), gets),
        "warehouse.ingest_s": self_s("warehouse.ingest"),
        "warehouse.campaign_mark_s": self_s("warehouse.campaign_mark"),
        "campaign.self_s": self_s("campaign.run"),
        "client.requests": len(phase1_requests),
        "client.requests_per_job": _ratio(len(phase1_requests),
                                          rep["attempted"]),
        "client.request_p50_s": statistics.median(
            [s["end"] - s["start"] for s in phase1_requests])
        if phase1_requests else 0.0,
        "queue.wait_p50_s": statistics.median(waits) if waits else 0.0,
        "queue.submit_s": self_s("queue.submit"),
        "scheduler.batches": len(tasks),
        "scheduler.points_per_batch": _ratio(
            sum(s["attrs"]["points"] for s in tasks), len(tasks)),
        "bench.tracing_overhead_frac": wall / untraced_wall_s - 1.0,
        "bench.unattributed_frac": _ratio(
            sum(selfs[(s["pid"], s["id"])] for s in tasks), task_time),
    }
