"""Synchronous client for the simulation service (stdlib ``http.client``).

Used by ``python -m repro submit``, by :meth:`Campaign.run(service=...)
<repro.harness.campaign.Campaign.run>`, by fleet worker nodes, and by
tests/CI.  One connection per request (the server is ``Connection:
close``), JSON both ways.

Connection-level failures retry with **exponential backoff and
deterministic jitter**: the delay before attempt *k* is ``backoff_s x
2^k`` scaled by a factor in [0.5, 1.0) derived from
``sha256(jitter_key:attempt)``.  Each client seeds *jitter_key* with
its own identity (fleet workers use their node name; the default is
the target ``host:port``), so a fleet of clients retrying against a
recovering coordinator fans out across half the exponential step
instead of thundering in lockstep — while any single client's schedule
is exactly reproducible.  The jitter source is a hash, not a PRNG, so
the schedule is deterministic and DET101-clean.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
import urllib.parse
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.config import CoreConfig
from repro.service.jobs import JobSpec, config_to_wire

DEFAULT_URL = "http://127.0.0.1:8642"


def backoff_delay(base_s: float, attempt: int, key: str) -> float:
    """Backoff before retry *attempt* (0-based): ``base_s x 2^attempt``
    scaled into [0.5, 1.0) by a sha256-derived jitter of ``key`` and the
    attempt number.  Pure and deterministic — the same (key, attempt)
    always waits the same time, and distinct keys spread out."""
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    jitter = int.from_bytes(digest[:4], "big") / 2 ** 32
    return base_s * (2 ** attempt) * (0.5 + 0.5 * jitter)


class ServiceError(Exception):
    """An HTTP-level failure: connection problems or a >= 400 response."""

    def __init__(self, message: str, status: Optional[int] = None,
                 payload: Optional[dict] = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class JobFailed(ServiceError):
    """A job reached the ``failed`` state; ``payload`` is its status."""


class ServiceClient:
    """Talk to a running ``python -m repro serve`` instance."""

    def __init__(self, url: str = DEFAULT_URL,
                 timeout_s: float = 10.0, retries: int = 0,
                 backoff_s: float = 0.1,
                 jitter_key: Optional[str] = None) -> None:
        parsed = urllib.parse.urlparse(url if "//" in url
                                       else f"http://{url}")
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// URLs are supported, got {url!r}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 8642
        self.timeout_s = timeout_s
        #: connection-level retries per request (HTTP >= 400 never
        #: retries — the server answered; repeating a POST could act
        #: twice).
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.jitter_key = jitter_key if jitter_key is not None \
            else f"{self.host}:{self.port}"
        #: delays actually slept, for tests and debugging.
        self.retry_log: List[float] = []

    # -- plumbing ----------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> Tuple[int, dict]:
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(method, path, payload)
            except ServiceError as exc:
                # a status code means the server is up and answered:
                # never retry, the failure is the caller's to handle.
                if exc.status is not None or attempt >= self.retries:
                    raise
                delay = backoff_delay(self.backoff_s, attempt,
                                      self.jitter_key)
                self.retry_log.append(delay)
                time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(self, method: str, path: str,
                      payload: Optional[dict] = None) -> Tuple[int, dict]:
        body = json.dumps(payload).encode() if payload is not None else None
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(
                f"service at {self.host}:{self.port} unreachable: {exc}"
            ) from exc
        finally:
            conn.close()
        try:
            doc = json.loads(data.decode() or "{}")
        except (ValueError, UnicodeDecodeError):
            doc = {"error": data[:200].decode("latin1")}
        if status >= 400:
            raise ServiceError(
                f"{method} {path} -> {status}: "
                f"{doc.get('error', 'unknown error')}",
                status=status, payload=doc)
        return status, doc

    # -- API ---------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")[1]

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")[1]

    def campaigns(self) -> list:
        """Live per-campaign analytics (the ``GET /campaigns`` list)."""
        return self._request("GET", "/campaigns")[1]["campaigns"]

    def submit(self, spec: Union[JobSpec, dict], priority: int = 0,
               timeout_s: Optional[float] = None,
               campaign: Optional[str] = None) -> dict:
        """Submit a job; returns the initial status document
        (``job_id``, ``state``, ...).  *campaign* tags the job for
        warehouse analytics without affecting its identity."""
        payload = spec.to_wire() if isinstance(spec, JobSpec) else dict(spec)
        payload["priority"] = priority
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        if campaign is not None:
            payload["campaign"] = campaign
        return self._request("POST", "/jobs", payload)[1]

    def submit_point(self, config: CoreConfig, benchmarks: Sequence[str],
                     length: int, seed: int = 0, stop: str = "first",
                     priority: int = 0,
                     timeout_s: Optional[float] = None,
                     campaign: Optional[str] = None) -> str:
        """Submit one executor-style point; returns its job id."""
        payload = {"config": config_to_wire(config),
                   "benchmarks": list(benchmarks),
                   "length": length, "seed": seed, "stop": stop}
        return self.submit(payload, priority=priority,
                           timeout_s=timeout_s, campaign=campaign)["job_id"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")[1]

    def result(self, job_id: str) -> dict:
        """Terminal document of a finished job (409 -> ServiceError when
        the job is still in flight)."""
        return self._request("GET", f"/jobs/{job_id}/result")[1]

    def wait_jobs(self, job_ids: Sequence[str],
                  timeout_s: Optional[float] = None) -> List[dict]:
        """One ``POST /jobs/wait`` long poll: the terminal documents
        (status merged with result, so a ``done`` job carries its
        ``record``) of those *job_ids* that are finished, returned as
        soon as there is at least one.  An empty list means the hold
        ran out first: *timeout_s*, at most (and by default) half this
        client's socket timeout; the server caps it too."""
        hold = self.timeout_s / 2
        if timeout_s is not None:
            hold = min(timeout_s, hold)
        return self._request("POST", "/jobs/wait", {
            "ids": list(job_ids), "timeout_s": hold})[1]["jobs"]

    def wait(self, job_id: str, timeout_s: Optional[float] = None) -> dict:
        """Block until the job finishes; returns its terminal document
        (the final status plus, for a ``done`` job, its ``record``).

        Raises :class:`JobFailed` if the job failed and
        :class:`TimeoutError` if *timeout_s* elapses first.
        """
        deadline = time.monotonic() + timeout_s if timeout_s else None
        while True:
            budget = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            docs = self.wait_jobs([job_id], budget)
            if docs:
                doc = docs[0]
                if doc["state"] == "failed":
                    raise JobFailed(
                        f"job {job_id} failed: {doc.get('error')}",
                        payload=doc)
                return doc
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} not finished after {timeout_s}s")

    def run(self, spec: Union[JobSpec, dict], priority: int = 0,
            timeout_s: Optional[float] = None,
            wait_timeout_s: Optional[float] = None) -> dict:
        """Submit, wait, and return the terminal document in one call."""
        job_id = self.submit(spec, priority=priority,
                             timeout_s=timeout_s)["job_id"]
        return self.wait(job_id, timeout_s=wait_timeout_s)

    # -- fleet protocol (worker side; coordinator must run --fleet) --------

    def fleet_register(self, name: str, jobs: int = 1,
                       shards: Optional[Sequence[int]] = None) -> dict:
        """Register this process as a worker node; the response carries
        ``node_id`` plus the fleet store topology to mount."""
        return self._request("POST", "/fleet/register", {
            "name": name, "jobs": jobs,
            "shards": list(shards or [])})[1]

    def fleet_heartbeat(self, node_id: str) -> dict:
        return self._request("POST", "/fleet/heartbeat",
                             {"node_id": node_id})[1]

    def fleet_lease(self, node_id: str,
                    max_points: Optional[int] = None) -> Optional[dict]:
        """Ask for work; None when the coordinator has nothing."""
        doc = self._request("POST", "/fleet/lease", {
            "node_id": node_id, "max_points": max_points})[1]
        return doc if doc.get("lease_id") else None

    def fleet_complete(self, node_id: str, lease_id: str,
                       outcomes: List[dict]) -> dict:
        return self._request("POST", "/fleet/complete", {
            "node_id": node_id, "lease_id": lease_id,
            "outcomes": outcomes})[1]

    def fleet_nodes(self) -> dict:
        """The coordinator's ``GET /fleet/nodes`` document."""
        return self._request("GET", "/fleet/nodes")[1]
