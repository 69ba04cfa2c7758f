"""Campaigns: persistent, resumable batches of simulations.

A full-scale reproduction is hundreds of simulator runs.  A
:class:`Campaign` enumerates (configuration, workload) points, runs the
missing ones — fanned out across worker processes when ``jobs > 1`` —
and checkpoints every completed point to a JSON file so an interrupted
campaign resumes where it stopped, and finished results can be analyzed
without re-simulating.  Campaign points also flow through the persistent
result store (:mod:`repro.harness.cache`), so deleting a checkpoint file
does not force re-simulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import CoreConfig
from repro.core.stats import SimResult
from repro.harness.cache import point_digest
from repro.harness.executor import run_points


@dataclass(frozen=True)
class CampaignPoint:
    """One simulation in a campaign."""

    config_name: str
    config: CoreConfig
    benchmarks: Tuple[str, ...]
    length: int
    seed: int = 0
    stop: str = "first"

    @property
    def key(self) -> str:
        """Stable identifier used for checkpointing."""
        mix = "+".join(self.benchmarks)
        return (f"{self.config_name}|{mix}|{self.length}|{self.seed}|"
                f"{self.stop}")

    @property
    def digest(self) -> str:
        """Content digest — the store / warehouse key for this point."""
        return point_digest(self.config, self.benchmarks, self.length,
                            self.seed, self.stop)


def _point_record(point: CampaignPoint, record: dict,
                  elapsed: float) -> dict:
    """Checkpoint line: point identity + a :meth:`SimResult.as_record`."""
    return {
        "key": point.key,
        "config": point.config_name,
        "benchmarks": list(point.benchmarks),
        "length": point.length,
        "seed": point.seed,
        **record,
        "elapsed_s": elapsed,
    }


def _result_record(point: CampaignPoint, result: SimResult,
                   elapsed: float) -> dict:
    return _point_record(point, result.as_record(), elapsed)


class Campaign:
    """A checkpointed batch of simulation points.

    Every campaign carries a *tag* (default: the checkpoint file's
    stem) under which its progress is reported to the warehouse index —
    one membership row per completed point — so `repro query --where
    campaign=<tag>`, `repro diff`, and the service's ``/campaigns``
    endpoint can watch a sweep materialize.  Warehouse reporting is
    strictly best-effort: an unwritable index never fails a campaign.
    """

    def __init__(self, path: Union[str, Path],
                 points: Sequence[CampaignPoint],
                 tag: Optional[str] = None) -> None:
        self.path = Path(path)
        self.points = list(points)
        self.tag = tag if tag is not None else self.path.stem
        keys = [p.key for p in self.points]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate campaign points")
        self.records: Dict[str, dict] = {}
        if self.path.exists():
            with self.path.open() as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    # A crash mid-write leaves a truncated trailing line;
                    # tolerate it (and any other mangled line) so the
                    # checkpoint file stays usable — the affected point
                    # simply runs again.
                    try:
                        rec = json.loads(line)
                        key = rec["key"]
                    except (json.JSONDecodeError, KeyError, TypeError):
                        continue
                    self.records[key] = rec

    @property
    def pending(self) -> List[CampaignPoint]:
        return [p for p in self.points if p.key not in self.records]

    @property
    def completed(self) -> int:
        return sum(1 for p in self.points if p.key in self.records)

    def run(self, progress: Optional[Callable[[str, int, int], None]] = None,
            jobs: Optional[int] = None,
            service: Optional[object] = None) -> Dict[str, dict]:
        """Execute all pending points, checkpointing after each.

        With ``jobs > 1`` (or ``$REPRO_JOBS`` set) pending points run
        concurrently across worker processes; each is still checkpointed
        the moment it completes, so interrupting a parallel campaign
        loses at most the in-flight points.  Simulated records are
        bit-identical to a serial run (completion *order* in the file may
        differ; records are keyed, so consumers are unaffected).

        With ``service`` set (a URL string or
        :class:`repro.service.client.ServiceClient`) the campaign spawns
        no local pool at all: every pending point is submitted to a
        running simulation service (``python -m repro serve``) and the
        returned records — identical in schema and content to locally
        simulated ones — are checkpointed as each job completes.

        Args:
            progress: optional callback ``(point_key, done, total)``.
            jobs: worker processes (default: ``$REPRO_JOBS``, else serial).
            service: submit points to this service instead of simulating
                locally.

        Returns the full key -> record mapping (existing + new).
        """
        if service is not None:
            return self._run_via_service(service, progress)
        total = len(self.points)
        pending = self.pending
        warehouse = self._begin_campaign()
        specs = [(p.config, p.benchmarks, p.length, p.seed, p.stop)
                 for p in pending]
        with self._checkpoint_file() as fh:
            for i, result, elapsed in run_points(specs, jobs=jobs):
                self._checkpoint(fh, pending[i],
                                 _result_record(pending[i], result, elapsed))
                self._mark_progress(warehouse, pending[i])
                if progress:
                    progress(pending[i].key, self.completed, total)
        return dict(self.records)

    # -- warehouse campaign reporting ---------------------------------------

    def _begin_campaign(self):
        """Declare this campaign in the warehouse (and back-fill marks
        for points completed by earlier runs).  Returns the warehouse
        handle, or ``None`` when analytics are unavailable — campaigns
        never fail because of the index."""
        from repro import warehouse as _warehouse
        from repro.harness.cache import get_store
        store = get_store()
        wh = store.warehouse() if store is not None else None
        if wh is None:
            return None
        try:
            wh.campaign_begin(self.tag, total=len(self.points))
            for p in self.points:
                if p.key in self.records:
                    wh.campaign_mark(self.tag, p.digest, p.key)
        except _warehouse.WAREHOUSE_ERRORS:
            return None
        return wh

    def _mark_progress(self, warehouse, point: CampaignPoint) -> None:
        if warehouse is None:
            return
        from repro import warehouse as _warehouse
        try:
            warehouse.campaign_mark(self.tag, point.digest, point.key)
        except _warehouse.WAREHOUSE_ERRORS:
            pass  # best-effort analytics (see _begin_campaign)

    def _checkpoint_file(self):
        """Open the checkpoint for appending, first terminating any
        partial trailing line a crash mid-write may have left (so the
        next record doesn't merge into it and get discarded by the
        tolerant loader on reload)."""
        if self.path.exists() and self.path.stat().st_size:
            with self.path.open("rb+") as fh:
                fh.seek(-1, 2)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
        return self.path.open("a")

    def _checkpoint(self, fh, point: CampaignPoint, rec: dict) -> None:
        fh.write(json.dumps(rec) + "\n")
        fh.flush()
        self.records[point.key] = rec

    def _run_via_service(self, service,
                         progress: Optional[Callable[[str, int, int], None]]
                         ) -> Dict[str, dict]:
        """Submit every pending point to a running simulation service and
        checkpoint results as jobs complete (completion order), blocking
        in ``POST /jobs/wait`` long polls rather than polling each job."""
        from repro.service.client import ServiceClient
        client = ServiceClient(service) if isinstance(service, str) \
            else service
        total = len(self.points)
        pending = self.pending
        warehouse = self._begin_campaign()
        outstanding = {client.submit_point(p.config, p.benchmarks, p.length,
                                           seed=p.seed, stop=p.stop,
                                           campaign=self.tag): p
                       for p in pending}
        with self._checkpoint_file() as fh:
            while outstanding:
                for doc in client.wait_jobs(list(outstanding)):
                    point = outstanding.pop(doc["job_id"])
                    if doc["state"] != "done":
                        raise RuntimeError(
                            f"service job {doc['job_id']} for {point.key} "
                            f"failed: {doc.get('error')}")
                    record = doc["record"]
                    elapsed = record.pop("elapsed_s", 0.0)
                    self._checkpoint(fh, point,
                                     _point_record(point, record, elapsed))
                    self._mark_progress(warehouse, point)
                    if progress:
                        progress(point.key, self.completed, total)
        return dict(self.records)

    def dataframe_rows(self) -> List[dict]:
        """Flat per-thread rows for ad-hoc analysis (no pandas needed)."""
        rows = []
        for rec in self.records.values():
            for i, t in enumerate(rec["threads"]):
                rows.append({
                    "config": rec["config"], "seed": rec["seed"],
                    "mix": "+".join(rec["benchmarks"]),
                    "thread": i, "benchmark": t["benchmark"],
                    "cpi": t["cpi"], "retired": t["retired"],
                    "cycles": rec["cycles"],
                })
        return rows


def standard_campaign(path: Union[str, Path], mixes, length: int,
                      configs: Optional[Dict[str, CoreConfig]] = None
                      ) -> Campaign:
    """The paper's evaluation grid: every mix on every evaluated config."""
    if configs is None:
        from repro.harness.configs import EVALUATED_CONFIGS
        configs = {name: factory(4)
                   for name, factory in EVALUATED_CONFIGS.items()}
    points = [CampaignPoint(name, cfg, tuple(mix), length, seed=i)
              for name, cfg in configs.items()
              for i, mix in enumerate(mixes)]
    return Campaign(path, points)
