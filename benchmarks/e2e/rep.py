"""One rep of one workload, run by ``run.py`` as a fresh process.

``--mode setup`` builds the workload and reports how long that took
from process launch; ``--mode run`` then also runs it and writes a
result JSON (timings, latencies and per-point result summaries).  The
result store is whatever ``$REPRO_CACHE_DIR`` names; ``run.py`` gives
every rep an empty one.

Workloads (the README says why each was chosen):

* ``grid.local`` -- the Fig 10 grid (every mix on the four evaluated
  configs, plus the distinct single-thread Base64 references) through
  ``Campaign.run(jobs=2)``;
* ``solo.sweep`` -- every benchmark of the grid's mixes alone on
  Base64-1T at eight trace seeds, through ``Campaign.run(jobs=2)``;
* ``grid.serve`` -- the ``grid.local`` points sent to a ``repro serve
  --workers 2`` subprocess by ``Campaign.run(service=...)``.

After the campaign every workload re-fetches its finished points one at
a time, :data:`HIT_PASSES` times over, as store hits: through
``simulate_point`` locally, through submit, wait and result on the
service.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

from repro.harness.campaign import Campaign, CampaignPoint
from repro.harness.configs import EVALUATED_CONFIGS, base64_config
from repro.harness.executor import simulate_point
from repro.service.client import ServiceClient, ServiceError
from repro.trace.mixes import balanced_random_mixes
from repro.trace.workloads import BENCHMARK_NAMES

from benchmarks.e2e.layers import WORKLOADS
from benchmarks.e2e.stats import point_summary, record_digest

#: worker processes for every workload: a constant, not derived from
#: the CPU count, so the work is the same on every runner.
JOBS = 2

#: trace seeds of one benchmark in ``solo.sweep``.
SOLO_SEEDS = 8

#: closed-loop passes over the finished points in the hit phase: one
#: pass lasts well under a second, so a single burst of load from
#: elsewhere on the host could otherwise set the whole p90.
HIT_PASSES = 20


def fig10_mixes(mixes: int) -> List[Tuple[str, ...]]:
    """The first *mixes* of Fig 10's balanced random mixes.

    The workload seed does not pick the mixes: which benchmarks share a
    mix sets how long a ``stop="first"`` grid runs, and other mix sets
    moved ``wall_s`` by up to 20% -- wider than any useful regression
    bound.  Changing only the trace seeds keeps the work per seed
    within noise while every seed still simulates different traces.
    """
    return balanced_random_mixes()[:mixes]


def grid_points(seed: int, mixes: int, length: int) -> List[CampaignPoint]:
    """Every mix on every evaluated config (``stop="first"``), then the
    distinct Base64-1T references, as Fig 10 builds them; ``seed``
    offsets every trace seed by ``1000 * seed`` (seed 0 is exactly the
    Fig 10 point set)."""
    chosen = fig10_mixes(mixes)
    base = 1000 * seed
    points = [CampaignPoint(name, factory(4), mix, length, seed=base + i)
              for name, factory in EVALUATED_CONFIGS.items()
              for i, mix in enumerate(chosen)]
    ref = base64_config(1)
    seen = set()
    for i, mix in enumerate(chosen):
        for slot, bench in enumerate(mix):
            if (bench, base + i + slot) not in seen:
                seen.add((bench, base + i + slot))
                points.append(CampaignPoint("Base64-1T", ref, (bench,),
                                            length, seed=base + i + slot,
                                            stop="all"))
    return points


def solo_points(seed: int, mixes: int, length: int) -> List[CampaignPoint]:
    """Each benchmark of the selected mixes (all 28 for the full grid)
    alone to completion, at :data:`SOLO_SEEDS` distinct trace seeds."""
    used = {b for mix in fig10_mixes(mixes) for b in mix}
    ref = base64_config(1)
    return [CampaignPoint("Base64-1T", ref, (bench,), length,
                          seed=1000 * seed + k, stop="all")
            for k in range(SOLO_SEEDS)
            for bench in BENCHMARK_NAMES if bench in used]


def build_campaign(args) -> Campaign:
    make = solo_points if args.workload == "solo.sweep" else grid_points
    points = make(args.seed, args.mixes, args.length)
    return Campaign(Path(args.rep_dir) / "campaign.jsonl", points,
                    tag=args.workload)


class RecordingClient(ServiceClient):
    """A :class:`ServiceClient` that remembers the job ids it submitted,
    so per-job server latencies can be read back after the campaign."""

    def __init__(self, url: str) -> None:
        super().__init__(url)
        self.job_ids: List[str] = []

    def submit_point(self, *args, **kwargs) -> str:
        job_id = super().submit_point(*args, **kwargs)
        self.job_ids.append(job_id)
        return job_id


def start_server(rep_dir: Path) -> Tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` on an ephemeral port; return it once its
    listening line is printed and ``/healthz`` answers."""
    log = open(rep_dir / "server.log", "wb")
    try:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(JOBS)],
            stdout=subprocess.PIPE, stderr=log, text=True)
    finally:
        log.close()
    line = server.stdout.readline()
    if "listening on " not in line:
        stop_server(server)
        log_tail = (rep_dir / "server.log").read_text(errors="replace")
        raise RuntimeError(f"repro serve did not start: {line!r}\n"
                           f"{log_tail[-2000:]}")
    url = line.split("listening on ", 1)[1].split()[0]
    try:
        ServiceClient(url).healthz()
    except ServiceError:
        stop_server(server)
        raise
    return server, url


def stop_server(server: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), escalating to SIGKILL after 60 s."""
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=60)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    server.stdout.close()


def run_local(campaign: Campaign, out: dict) -> None:
    marks: List[float] = []
    start = time.monotonic()
    campaign.run(progress=lambda *_: marks.append(time.monotonic()),
                 jobs=JOBS)
    out["wall_s"] = marks[-1] - start
    out["first_result_s"] = marks[0] - start
    out["job_latencies"] = [m - start for m in marks]
    hits, mismatched = [], []
    for p in campaign.points * HIT_PASSES:
        t0 = time.monotonic()
        result = simulate_point(p.config, p.benchmarks, p.length, p.seed,
                                p.stop)
        hits.append(time.monotonic() - t0)
        if record_digest(result.as_record()) != \
                record_digest(campaign.records[p.key]):
            mismatched.append(p.key)
    out["hit_latencies"] = hits
    out["hit_mismatches"] = mismatched


def run_serve(campaign: Campaign, rep_dir: Path, t0: float,
              out: dict) -> None:
    server, url = start_server(rep_dir)
    out["setup_s"] = time.monotonic() - t0
    try:
        client = RecordingClient(url)
        marks: List[float] = []
        start = time.monotonic()
        campaign.run(progress=lambda *_: marks.append(time.monotonic()),
                     service=client)
        out["wall_s"] = marks[-1] - start
        out["first_result_s"] = marks[0] - start
        out["job_latencies"] = [client.status(j)["latency_s"]
                                for j in client.job_ids]
        hits, mismatched = [], []
        for p in campaign.points * HIT_PASSES:
            t1 = time.monotonic()
            job_id = client.submit_point(p.config, p.benchmarks, p.length,
                                         seed=p.seed, stop=p.stop)
            client.wait(job_id)
            doc = client.result(job_id)
            hits.append(time.monotonic() - t1)
            if not doc.get("cached") or record_digest(doc["record"]) != \
                    record_digest(campaign.records[p.key]):
                mismatched.append(p.key)
        out["hit_latencies"] = hits
        out["hit_mismatches"] = mismatched
    finally:
        stop_server(server)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mixes", type=int, required=True)
    ap.add_argument("--length", type=int, required=True)
    ap.add_argument("--rep-dir", required=True)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.time() just before this process launched")
    ap.add_argument("--out", help="result JSON (run mode)")
    args = ap.parse_args(argv)
    rep_dir = Path(args.rep_dir)
    out: Dict[str, object] = {"workload": args.workload, "jobs": JOBS}
    try:
        campaign = build_campaign(args)
        out["attempted"] = len(campaign.points)
        if args.workload == "grid.serve":
            t0 = time.monotonic()
            if args.mode == "setup":
                server, _ = start_server(rep_dir)
                out["setup_s"] = time.monotonic() - t0
                stop_server(server)
            else:
                run_serve(campaign, rep_dir, t0, out)
        else:
            out["setup_s"] = time.time() - args.launched
            if args.mode == "run":
                run_local(campaign, out)
        if args.mode == "run":
            out["points"] = {k: point_summary(r)
                             for k, r in campaign.records.items()}
    except Exception:  # reported to run.py, which fails the rep
        out["error"] = traceback.format_exc()
    text = json.dumps(out)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main())
