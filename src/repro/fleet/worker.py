"""The fleet worker node: register, heartbeat, lease, simulate, report.

``repro worker --connect HOST:PORT`` runs a :class:`WorkerNode` against
a coordinator started with ``repro serve --fleet``.  The life cycle:

1. **register** — POST ``/fleet/register`` with a capability report
   (local job slots).  The response carries the node id
   and the fleet store topology (``REPRO_FLEET_DIR`` /
   ``REPRO_FLEET_SHARDS``): if this process has no fleet store mounted
   yet, it adopts the coordinator's, so every node shares one sharded
   store and dedup-by-digest holds fleet-wide.
2. **heartbeat** — a daemon thread beats every ``heartbeat_s``; the
   coordinator reaps a node after three missed beats and re-queues its
   leases.  A reaped worker that comes back simply re-registers under a
   fresh node id.
3. **lease / execute / report** — the main loop pulls a lease, runs it
   through :func:`repro.harness.executor.execute_wire_batch` (the same
   body the local service pool runs — store check, trace memo,
   per-point SIGALRM), and reports outcomes.  Results are already in
   the shared sharded store by the time the report lands, so the wire
   carries digests and timings, not blobs.

Fault injection: when ``$REPRO_FLEET_CRASH_ONCE`` names an existing
file, the worker deletes it and dies with ``os._exit(3)`` *after*
taking a lease and before reporting — the exact mid-batch crash the
dispatcher's lease expiry and exactly-once re-queue must absorb.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from typing import List, Optional

from repro import envvars
from repro.harness.cache import reset_store
from repro.harness.executor import execute_wire_batch
from repro.service.client import ServiceClient, ServiceError
from repro.fleet.registry import heartbeat_interval


def default_node_name() -> str:
    """``$REPRO_FLEET_NODE`` if set, else ``<host>-<pid>``."""
    env = envvars.raw("REPRO_FLEET_NODE")
    if env:
        return env
    return f"{socket.gethostname()}-{os.getpid()}"


def _maybe_crash_fleet() -> None:
    token = envvars.raw("REPRO_FLEET_CRASH_ONCE")
    if token and os.path.exists(token):
        try:
            os.unlink(token)
        except OSError:
            pass
        os._exit(3)


class WorkerNode:
    """One worker process in the fleet."""

    def __init__(self, url: str, name: Optional[str] = None,
                 jobs: int = 1, max_points: int = 4,
                 poll_s: float = 0.05) -> None:
        self.name = name or default_node_name()
        self.jobs = max(1, jobs)
        self.max_points = max(1, max_points)
        self.poll_s = poll_s
        self.heartbeat_s = heartbeat_interval()
        # workers retry aggressively with their name as the jitter key,
        # so a rebooting fleet fans out instead of thundering-herding
        # the recovering coordinator.
        self.client = ServiceClient(url, retries=5, backoff_s=0.2,
                                    jitter_key=self.name)
        self.node_id: Optional[str] = None
        self.leases_run = 0
        self.points_run = 0
        self._stop = threading.Event()
        self._beat_thread: Optional[threading.Thread] = None

    # -- membership --------------------------------------------------------

    def register(self) -> dict:
        """Join the fleet; adopt its store topology if we have none."""
        doc = self.client.fleet_register(self.name, jobs=self.jobs)
        self.node_id = doc["node_id"]
        if doc.get("heartbeat_s"):
            self.heartbeat_s = float(doc["heartbeat_s"])
        fleet = doc.get("fleet") or {}
        if fleet.get("dir") and not envvars.raw("REPRO_FLEET_DIR"):
            os.environ["REPRO_FLEET_DIR"] = str(fleet["dir"])
            if fleet.get("shards"):
                os.environ["REPRO_FLEET_SHARDS"] = str(fleet["shards"])
            reset_store()  # next get_store() mounts the sharded store
        return doc

    def _beat(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            if self.node_id is None:
                continue
            try:
                doc = self.client.fleet_heartbeat(self.node_id)
            except ServiceError:
                continue  # coordinator briefly away; the lease loop's
                # registered-client retries already cover recovery
            if not doc.get("known", True):
                # reaped while we were slow: rejoin under a fresh id
                try:
                    self.register()
                except ServiceError:
                    continue

    # -- main loop ---------------------------------------------------------

    def start(self) -> None:
        self.register()
        self._beat_thread = threading.Thread(
            target=self._beat, name=f"repro-fleet-beat-{self.name}",
            daemon=True)
        self._beat_thread.start()

    def stop(self) -> None:
        self._stop.set()

    def run(self, idle_exit_s: Optional[float] = None,
            max_leases: Optional[int] = None) -> int:
        """Serve leases until stopped.

        *idle_exit_s* exits after that long with no work (used by tests
        and the smoke script); *max_leases* bounds the number of leases
        served.  Returns the number of points executed or served."""
        if self.node_id is None:
            self.start()
        idle_since = time.monotonic()
        while not self._stop.is_set():
            if max_leases is not None and self.leases_run >= max_leases:
                break
            try:
                lease = self.client.fleet_lease(self.node_id,
                                                self.max_points)
            except ServiceError as exc:
                if exc.status == 404:
                    self.register()  # reaped: rejoin and retry
                    continue
                raise
            if lease is None:
                if idle_exit_s is not None and \
                        time.monotonic() - idle_since > idle_exit_s:
                    break
                self._stop.wait(self.poll_s)
                continue
            idle_since = time.monotonic()
            self._run_lease(lease)
        self.stop()
        return self.points_run

    def _run_lease(self, lease: dict) -> None:
        _maybe_crash_fleet()
        wire_jobs = lease["jobs"]
        outcomes = execute_wire_batch(wire_jobs)
        report: List[dict] = []
        for wire, outcome in zip(wire_jobs, outcomes):
            entry = {"job_id": wire.get("job_id"), "ok": outcome["ok"]}
            if outcome["ok"]:
                entry["elapsed_s"] = outcome["elapsed_s"]
                entry["store_hit"] = outcome["store_hit"]
            else:
                entry["error"] = outcome["error"]
            report.append(entry)
        self.leases_run += 1
        self.points_run += len(wire_jobs)
        try:
            self.client.fleet_complete(self.node_id, lease["lease_id"],
                                       report)
        except ServiceError:
            # the report is lost but the results are in the shared
            # store: the coordinator's lease expiry re-queues the jobs,
            # and the retry completes them as instant store hits.
            pass


def worker_main(connect: str, name: Optional[str] = None, jobs: int = 1,
                max_points: int = 4,
                idle_exit_s: Optional[float] = None) -> int:
    """Blocking entry point used by ``python -m repro worker``."""
    node = WorkerNode(connect, name=name, jobs=jobs,
                      max_points=max_points)

    def _drain(signum, frame):
        node.stop()

    for signame in ("SIGTERM", "SIGINT"):
        if hasattr(signal, signame):
            signal.signal(getattr(signal, signame), _drain)
    try:
        node.start()
    except ServiceError as exc:
        print(f"repro worker: cannot join fleet at {connect}: {exc}",
              flush=True)
        return 1
    print(f"repro worker {node.name} joined fleet at "
          f"http://{node.client.host}:{node.client.port} "
          f"as {node.node_id} (jobs={node.jobs})", flush=True)
    points = node.run(idle_exit_s=idle_exit_s)
    print(f"repro worker {node.name} leaving: {points} point(s) over "
          f"{node.leases_run} lease(s)", flush=True)
    return 0
