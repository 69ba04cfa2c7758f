"""Asyncio HTTP front end for the simulation service (stdlib only).

A deliberately small HTTP/1.1 server over :func:`asyncio.start_server`
streams — one request per connection, JSON in and out:

========================  ==================================================
``POST /jobs``            submit a point; 201 with the job status (which may
                          already be ``done`` on a store hit), 400 on a bad
                          payload, 429 when the queue is full, 503 while
                          draining.
``GET /jobs/<id>``        job status document.
``GET /jobs/<id>/result`` terminal document: the canonical result record
                          (:meth:`SimResult.as_record` + ``elapsed_s``) for
                          ``done`` jobs, the structured error for ``failed``
                          ones; 409 while the job is still in flight.
``POST /jobs/wait``       long poll over ``{"ids": [...], "timeout_s": t}``:
                          answers ``{"jobs": [...]}`` as soon as at least
                          one listed job is terminal (at once if one
                          already is), or with an empty list when *t*
                          (capped at :data:`MAX_WAIT_S`) runs out.  Each
                          entry is the job's status document merged with
                          its result document, so a ``done`` job carries
                          its ``record``; 400 on a bad body, 404 on an
                          unknown id.  ``Campaign.run(service=...)`` and
                          :meth:`ServiceClient.wait` use it: about 2
                          requests per job instead of a status poll loop.
``GET /metrics``          queue depth, in-flight, cache hit rate, jobs/sec,
                          latency p50/p95, and every scheduler counter.
``GET /campaigns``        live per-campaign analytics: the service's
                          submitted/completed/failed counters merged with
                          the warehouse's completion counts and rolling
                          metric summaries (see :mod:`repro.warehouse`).
``GET /healthz``          liveness (+ ``draining`` flag).
``GET /dashboard``        the browser dashboard (``--dashboard`` only): a
                          self-contained HTML page polling the JSON
                          endpoints above.
========================  ==================================================

With ``fleet=True`` (``repro serve --fleet``) the local process-pool
scheduler is replaced by a :class:`~repro.fleet.FleetDispatcher` and
the worker protocol appears under ``/fleet/*``: ``POST register`` /
``heartbeat`` / ``lease`` / ``complete`` and ``GET /fleet/nodes``.
Every public endpoint behaves identically in both modes.

On SIGTERM/SIGINT the server stops accepting jobs (503), lets the
scheduler drain queued and in-flight work (bounded by
``drain_timeout_s``, after which outstanding jobs fail with a
``shutdown`` error), then closes the listener and returns — a clean
exit 0 for supervisors.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Dict, List, Optional, Set, Tuple

from repro.harness.cache import get_store
from repro.service.jobs import Job, JobQueue, JobSpec
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import BatchScheduler

_REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: request body cap — a full inline config is ~2 KB; 1 MB is generous.
MAX_BODY = 1 << 20

#: longest ``POST /jobs/wait`` hold, kept well below the client's 10 s
#: default socket timeout so a long poll never reads as a dead server.
MAX_WAIT_S = 5.0


class _BadRequest(Exception):
    """A request that is answered with an error before routing."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceServer:
    """The queue + scheduler + HTTP listener, wired together."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 1, batch_size: int = 4,
                 max_inflight: Optional[int] = None,
                 max_retries: int = 2, retry_backoff_s: float = 0.25,
                 default_timeout_s: Optional[float] = None,
                 max_queue_depth: int = 1024,
                 drain_timeout_s: float = 30.0,
                 fleet: bool = False, dashboard: bool = False) -> None:
        self.host = host
        self.port = port
        self.max_queue_depth = max_queue_depth
        self.drain_timeout_s = drain_timeout_s
        self.fleet = fleet
        self.dashboard = dashboard
        self.metrics = ServiceMetrics()
        self.queue = JobQueue(store=get_store(),
                              on_finish=self._job_finished)
        if fleet:
            from repro.fleet import FleetDispatcher
            self.scheduler = FleetDispatcher(
                self.queue, metrics=self.metrics,
                batch_size=batch_size, max_retries=max_retries)
        else:
            self.scheduler = BatchScheduler(
                self.queue, metrics=self.metrics, workers=workers,
                batch_size=batch_size, max_inflight=max_inflight,
                max_retries=max_retries, retry_backoff_s=retry_backoff_s,
                default_timeout_s=default_timeout_s)
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown = asyncio.Event()
        #: job id -> futures of the ``/jobs/wait`` requests listing it;
        #: loop-side only (the scheduler thread wakes them through
        #: ``call_soon_threadsafe``).
        self._waiters: Dict[str, Set[asyncio.Future]] = {}
        self._closing = False
        self._handlers: Set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the scheduler thread."""
        self._loop = asyncio.get_running_loop()
        self.scheduler.start()
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Begin graceful drain; safe to call from any thread, and a
        no-op once the server has already drained and its loop closed."""
        if self._loop is None or self._loop.is_closed():
            return
        try:
            self._loop.call_soon_threadsafe(self._begin_drain)
        except RuntimeError:
            pass  # loop closed between the check and the call

    def _begin_drain(self) -> None:
        self.draining = True
        self._shutdown.set()

    async def wait_closed(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain and close."""
        await self._shutdown.wait()
        self.draining = True
        deadline = asyncio.get_running_loop().time() + self.drain_timeout_s
        while not self.scheduler.idle and \
                asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.05)
        # drained (or out of patience): a hard scheduler stop is now
        # either a no-op or the documented drain-timeout failure path.
        # stop() joins the scheduler thread — blocking, so off-loop.
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.scheduler.stop(drain=False, timeout=5.0))
        # answer pending long polls now rather than at their timeouts,
        # and let every open request finish its response before the
        # loop goes away.
        self._closing = True
        for job_id in list(self._waiters):
            self._wake(job_id)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._handlers:
            await asyncio.wait(set(self._handlers), timeout=5.0)

    def _job_finished(self, job: Job) -> None:
        """The queue's ``on_finish`` hook, run on whichever thread
        resolved *job*: count it, then wake its long polls on the loop."""
        self.metrics.job_finished(job)
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._wake, job.job_id)
        except RuntimeError:
            pass  # loop closed: no request is left to answer

    def _wake(self, job_id: str) -> None:
        for waiter in self._waiters.pop(job_id, ()):
            if not waiter.done():
                waiter.set_result(None)

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        try:
            status, payload = await self._respond(reader)
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.TimeoutError, UnicodeDecodeError, ValueError):
            status, payload = 400, {"error": "malformed request"}
        # routes return dicts (JSON) except the dashboard, whose
        # payload is the finished HTML page as a str.
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            ctype = "text/html; charset=utf-8"
        else:
            body = json.dumps(payload).encode()
            ctype = "application/json"
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        try:
            writer.write(head + body)
            await asyncio.wait_for(writer.drain(), 10.0)
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError, asyncio.TimeoutError):
            pass  # client went away or stopped reading; nothing to salvage

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> Tuple[int, dict]:
        # one timeout for the whole request: a wait_for per line would
        # cost a task and a loop pass each, several times per request.
        try:
            method, path, body = await asyncio.wait_for(
                self._read_request(reader), 10.0)
        except _BadRequest as exc:
            return exc.status, {"error": str(exc)}
        if path == "/jobs/wait" and method == "POST":
            return await self._wait(body)
        return self._route(method, path, body)

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader
                            ) -> Tuple[str, str, bytes]:
        """Read one request: method, path and body.  Only ever awaited
        under :meth:`_respond`'s ``wait_for``, which bounds these reads."""
        request_line = await reader.readline()  # repro-lint: waive=ASY403
        parts = request_line.decode("ascii").split()
        if len(parts) < 2:
            raise _BadRequest(400, "malformed request line")
        content_length = 0
        while True:
            line = await reader.readline()  # repro-lint: waive=ASY403
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        if content_length > MAX_BODY:
            raise _BadRequest(413, "request body too large")
        body = b""
        if content_length:
            body = await reader.readexactly(  # repro-lint: waive=ASY403
                content_length)
        return parts[0].upper(), parts[1], body

    # -- routing -----------------------------------------------------------

    def _route(self, method: str, path: str, body: bytes
               ) -> Tuple[int, dict]:
        if path == "/healthz" and method == "GET":
            return 200, {"status": "draining" if self.draining else "ok",
                         "fleet": self.fleet}
        if path == "/metrics" and method == "GET":
            fleet = self.scheduler.status() if self.fleet else None
            return 200, self.metrics.snapshot(
                self.queue, self.scheduler.inflight,
                draining=self.draining, fleet=fleet)
        if path == "/campaigns" and method == "GET":
            return 200, self._campaigns()
        if path == "/dashboard" and self.dashboard:
            if method != "GET":
                return 405, {"error": "method not allowed"}
            from repro.fleet.dashboard import render_dashboard
            return 200, render_dashboard()
        if path.startswith("/fleet/"):
            if not self.fleet:
                return 404, {"error": "not a fleet coordinator "
                                      "(start with --fleet)"}
            return self._fleet_route(method, path, body)
        if path == "/jobs" and method == "POST":
            return self._submit(body)
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "method not allowed"}
            rest = path[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = self.queue.get(job_id)
            if job is None:
                return 404, {"error": f"no such job {job_id!r}"}
            if tail == "":
                return 200, job.status()
            if tail == "result":
                return self._result(job)
            return 404, {"error": f"no such endpoint {path!r}"}
        return 404, {"error": f"no such endpoint {path!r}"}

    def _fleet_route(self, method: str, path: str, body: bytes
                     ) -> Tuple[int, dict]:
        """The worker protocol (see :mod:`repro.fleet`)."""
        if path == "/fleet/nodes":
            if method != "GET":
                return 405, {"error": "method not allowed"}
            return 200, self.scheduler.status()
        if method != "POST":
            return 405, {"error": "method not allowed"}
        try:
            payload = json.loads(body.decode() or "{}")
            if not isinstance(payload, dict):
                raise ValueError("fleet payload must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": str(exc)}
        registry = self.scheduler.registry
        if path == "/fleet/register":
            if self.draining:
                return 503, {"error": "service is draining"}
            try:
                info = registry.register(
                    str(payload.get("name", "worker")),
                    jobs=int(payload.get("jobs", 1)),
                    shards=payload.get("shards") or [])
            except (TypeError, ValueError) as exc:
                return 400, {"error": str(exc)}
            self.scheduler.kick()
            from repro.fleet import fleet_dir, fleet_shard_count
            root = fleet_dir()
            return 201, {
                "node_id": info.node_id,
                "heartbeat_s": registry.heartbeat_s,
                "lease_s": self.scheduler.lease_s,
                "fleet": {"dir": str(root) if root else None,
                          "shards": fleet_shard_count()},
            }
        node_id = str(payload.get("node_id", ""))
        if path == "/fleet/heartbeat":
            return 200, {"known": registry.heartbeat(node_id)}
        if path == "/fleet/lease":
            max_points = payload.get("max_points")
            try:
                lease = self.scheduler.lease(
                    node_id,
                    int(max_points) if max_points is not None else None)
            except KeyError:
                return 404, {"error": f"unknown node {node_id!r}; "
                                      f"re-register"}
            except (TypeError, ValueError) as exc:
                return 400, {"error": str(exc)}
            return 200, lease if lease is not None else {"lease_id": None}
        if path == "/fleet/complete":
            outcomes = payload.get("outcomes")
            if not isinstance(outcomes, list):
                return 400, {"error": "outcomes must be a list"}
            return 200, self.scheduler.complete(
                node_id, str(payload.get("lease_id", "")), outcomes)
        return 404, {"error": f"no such endpoint {path!r}"}

    def _campaigns(self) -> dict:
        """The ``GET /campaigns`` document: this process's per-campaign
        submission counters merged with the warehouse's durable
        completion counts and rolling metric summaries."""
        counters = self.metrics.campaign_counters()
        statuses = {}
        store = self.queue.store
        wh = store.warehouse() if store is not None else None
        if wh is not None:
            from repro.warehouse import WAREHOUSE_ERRORS
            try:
                statuses = {s["name"]: s for s in wh.campaign_status()}
            except WAREHOUSE_ERRORS:
                statuses = {}
        campaigns = []
        for name in sorted(set(counters) | set(statuses)):
            campaigns.append({"name": name,
                              "service": counters.get(name),
                              **(statuses.get(name) or {})})
        return {"campaigns": campaigns}

    def _submit(self, body: bytes) -> Tuple[int, dict]:
        if self.draining:
            return 503, {"error": "service is draining"}
        if self.queue.depth >= self.max_queue_depth:
            return 429, {"error": "queue full",
                         "queue_depth": self.queue.depth}
        try:
            payload = json.loads(body.decode() or "{}")
            spec = JobSpec.from_wire(payload)
            priority = int(payload.get("priority", 0))
            timeout_s = payload.get("timeout_s")
            timeout_s = float(timeout_s) if timeout_s is not None else None
            campaign = payload.get("campaign")
            campaign = str(campaign) if campaign is not None else None
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            return 400, {"error": str(exc)}
        self.metrics.inc("jobs_submitted")
        if campaign is not None:
            self.metrics.campaign_submitted(campaign)
        job = self.queue.submit(spec, priority=priority,
                                timeout_s=timeout_s, campaign=campaign)
        self.scheduler.kick()
        return 201, job.status()

    async def _wait(self, body: bytes) -> Tuple[int, dict]:
        """``POST /jobs/wait``: the terminal documents of the listed
        jobs, held until at least one is terminal or the timeout ends."""
        try:
            payload = json.loads(body.decode() or "{}")
            if not isinstance(payload, dict):
                raise ValueError("wait payload must be a JSON object")
            ids = payload.get("ids")
            if not isinstance(ids, list) or not ids or \
                    not all(isinstance(i, str) for i in ids):
                raise ValueError("ids must be a non-empty list of job ids")
            timeout_s = float(payload.get("timeout_s", 0.0))
            if not timeout_s >= 0.0:  # also rejects NaN
                raise ValueError("timeout_s must be a non-negative number")
            timeout_s = min(timeout_s, MAX_WAIT_S)
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            return 400, {"error": str(exc)}
        jobs: List[Job] = []
        for job_id in dict.fromkeys(ids):
            job = self.queue.get(job_id)
            if job is None:
                return 404, {"error": f"no such job {job_id!r}"}
            jobs.append(job)
        if not any(job.finished for job in jobs) and timeout_s > 0 and \
                not self._closing:
            # no await between the check above and this registration,
            # and every wake-up is queued on this loop: a job finishing
            # in between still finds the future.
            waiter = asyncio.get_running_loop().create_future()
            for job in jobs:
                self._waiters.setdefault(job.job_id, set()).add(waiter)
            try:
                await asyncio.wait_for(waiter, timeout_s)
            except asyncio.TimeoutError:
                pass
            finally:
                for job in jobs:
                    waiters = self._waiters.get(job.job_id)
                    if waiters is not None:
                        waiters.discard(waiter)
                        if not waiters:
                            del self._waiters[job.job_id]
        return 200, {"jobs": [{**job.status(), **self._result(job)[1]}
                              for job in jobs if job.finished]}

    @staticmethod
    def _result(job) -> Tuple[int, dict]:
        if not job.finished:
            return 409, {"error": "job not finished", "state": job.state}
        if job.result is None:
            return 200, {"job_id": job.job_id, "state": job.state,
                         "error": job.error}
        record = dict(job.result.as_record())
        record["elapsed_s"] = job.elapsed_s
        return 200, {"job_id": job.job_id, "state": job.state,
                     "cached": job.cached, "record": record}


async def run_server(**kwargs) -> int:
    """Start a server, install signal-driven drain, serve until stopped."""
    server = ServiceServer(**kwargs)
    await server.start()
    loop = asyncio.get_running_loop()
    for signame in ("SIGTERM", "SIGINT"):
        if hasattr(signal, signame):
            loop.add_signal_handler(getattr(signal, signame),
                                    server._begin_drain)
    if server.fleet:
        print(f"repro fleet coordinator listening on "
              f"http://{server.host}:{server.port} "
              f"(batch={server.scheduler.batch_size}, "
              f"lease={server.scheduler.lease_s}s"
              f"{', dashboard=/dashboard' if server.dashboard else ''})",
              flush=True)
    else:
        print(f"repro service listening on "
              f"http://{server.host}:{server.port} "
              f"(workers={server.scheduler.workers}, "
              f"batch={server.scheduler.batch_size}, "
              f"window={server.scheduler.max_inflight}"
              f"{', dashboard=/dashboard' if server.dashboard else ''})",
              flush=True)
    await server.wait_closed()
    print("repro service drained, exiting", flush=True)
    return 0


def serve(**kwargs) -> int:
    """Blocking entry point used by ``python -m repro serve``."""
    return asyncio.run(run_server(**kwargs))
