"""Tests for the simulation service layer (queue, scheduler, server).

Scheduler and server tests spawn real worker processes; each test gets
its own throwaway persistent store via ``REPRO_CACHE_DIR`` so nothing
leaks between tests (or into the developer's real store).
"""

import asyncio
import signal
import threading
import time
from dataclasses import replace

import pytest

from repro.core.config import CoreConfig
from repro.core.pipeline import Pipeline
from repro.harness.cache import get_store, point_digest, reset_store
from repro.harness.campaign import standard_campaign
from repro.harness.configs import (EVALUATED_CONFIGS, base64_config,
                                   shelf_config)
from repro.harness.executor import execute_wire_batch, simulate_point
from repro.service.client import JobFailed, ServiceClient, ServiceError
from repro.service.jobs import JobQueue, JobSpec, JobState, config_from_wire
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import CRASH_ONCE_ENV, BatchScheduler
from repro.service.server import ServiceServer
from repro.trace import generate
from repro.trace.mixes import balanced_random_mixes

needs_sigalrm = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"),
    reason="per-point timeouts need SIGALRM")


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    """A throwaway persistent store, inherited by spawn workers."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    reset_store()
    yield get_store()
    reset_store()


def _spec(benchmark="ilp.int4", length=400, seed=0, threads=1,
          config=None):
    cfg = config if config is not None else shelf_config(threads)
    return JobSpec(config=cfg, benchmarks=(benchmark,) * threads,
                   length=length, seed=seed)


def _direct_record(spec: JobSpec) -> dict:
    """Reference record: a plain Pipeline run — no store, no service."""
    traces = [generate(b, spec.length, spec.seed + i)
              for i, b in enumerate(spec.benchmarks)]
    return Pipeline(spec.config, traces).run(stop=spec.stop).as_record()


class _Service:
    """A ServiceServer on an ephemeral port, driven from a thread."""

    def __init__(self, **kw):
        kw.setdefault("workers", 1)
        self.server = ServiceServer(port=0, **kw)
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.started = threading.Event()

    def _run(self):
        async def go():
            await self.server.start()
            self.started.set()
            await self.server.wait_closed()

        asyncio.run(go())

    def __enter__(self) -> ServiceClient:
        self.thread.start()
        assert self.started.wait(10), "server did not start"
        return ServiceClient(f"http://127.0.0.1:{self.server.port}")

    def __exit__(self, *exc):
        self.server.request_shutdown()
        self.thread.join(60)
        assert not self.thread.is_alive(), "server did not drain"


# ---------------------------------------------------------------------------
# JobSpec / wire format
# ---------------------------------------------------------------------------

class TestJobSpec:
    def test_wire_roundtrip_inline_config(self):
        spec = _spec(threads=2, config=shelf_config(2, steering="oracle"))
        again = JobSpec.from_wire(spec.to_wire())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_digest_matches_store_digest(self):
        spec = _spec()
        assert spec.digest() == point_digest(*spec.point())

    def test_named_configs(self):
        cfg = config_from_wire({"config": "base64", "threads": 2})
        assert cfg == base64_config(2)
        cfg = config_from_wire({"config": "shelf64", "threads": 1,
                                "steering": "oracle", "optimistic": True})
        assert cfg.steering == "oracle" and cfg.shelf_same_cycle_issue
        cfg = config_from_wire({"config": "base128", "threads": 4,
                                "memory_model": "tso"})
        assert cfg.rob_entries == 128 and cfg.memory_model == "tso"

    @pytest.mark.parametrize("payload", [
        {"config": "nope", "benchmarks": ["ilp.int4"], "length": 100},
        {"config": "base64", "threads": 1, "benchmarks": ["spec.gcc"],
         "length": 100},
        {"config": "base64", "threads": 1, "benchmarks": [], "length": 100},
        {"config": "base64", "threads": 2, "benchmarks": ["ilp.int4"],
         "length": 100},
        {"config": "base64", "threads": 1, "benchmarks": ["ilp.int4"],
         "length": -5},
        {"config": "base64", "threads": 1, "benchmarks": ["ilp.int4"],
         "length": 100, "stop": "sometimes"},
        {"config": {"rob_entries": "lots"},
         "benchmarks": ["ilp.int4"], "length": 100},
        "not even an object",
    ])
    def test_bad_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            JobSpec.from_wire(payload)


# ---------------------------------------------------------------------------
# JobQueue
# ---------------------------------------------------------------------------

class TestJobQueue:
    def test_priority_then_fifo(self):
        q = JobQueue()
        late = q.submit(_spec(seed=1), priority=5)
        first = q.submit(_spec(seed=2), priority=0)
        second = q.submit(_spec(seed=3), priority=0)
        batch = q.take_batch(8)
        # same priority batches together, FIFO; priority 5 stays queued
        assert [j.job_id for j in batch] == [first.job_id, second.job_id]
        assert q.take_batch(8) == [late]
        assert q.take_batch(8) == []

    def test_batch_splits_on_timeout(self):
        q = JobQueue()
        a = q.submit(_spec(seed=1), timeout_s=1.0)
        b = q.submit(_spec(seed=2), timeout_s=2.0)
        assert q.take_batch(8) == [a]
        assert q.take_batch(8) == [b]

    def test_inflight_dedup_resolves_followers(self):
        q = JobQueue()
        primary = q.submit(_spec())
        follower = q.submit(_spec())
        assert follower.dedup_of == primary.job_id
        assert q.depth == 1 and q.dedup_hits == 1
        [taken] = q.take_batch(8)
        result = object()
        q.complete(taken, result, 0.5)
        assert primary.state == JobState.DONE
        assert follower.state == JobState.DONE
        assert follower.result is result

    def test_failure_cascades_to_followers(self):
        q = JobQueue()
        q.submit(_spec())
        follower = q.submit(_spec())
        [taken] = q.take_batch(8)
        q.fail(taken, {"type": "worker-crash", "message": "boom"})
        assert follower.state == JobState.FAILED
        assert follower.error["type"] == "worker-crash"

    def test_store_hit_completes_instantly(self, fresh_store):
        spec = _spec()
        simulate_point(*spec.point())  # populate the store
        q = JobQueue(store=fresh_store)
        job = q.submit(spec)
        assert job.state == JobState.DONE and job.cached
        assert q.cache_hits == 1 and q.depth == 0

    def test_take_batch_prefers_trace_signature(self):
        base = CoreConfig(num_threads=1)

        def spec(rob, bench="ilp.int8", seed=0):
            return JobSpec(config=replace(base, rob_entries=rob),
                           benchmarks=(bench,), length=100, seed=seed)

        q = JobQueue()
        a1 = q.submit(spec(32))
        b1 = q.submit(spec(32, bench="mixed.int"))
        a2 = q.submit(spec(64))
        a3 = q.submit(spec(96))
        batch = q.take_batch(3)
        assert [j.job_id for j in batch] == [a1.job_id, a2.job_id, a3.job_id]
        # the skipped job stays queued, in order, and comes out next.
        assert [j.job_id for j in q.take_batch(3)] == [b1.job_id]

        # top-up: no signature-mates available -> filled from the head.
        c1 = q.submit(spec(32, seed=5))
        d1 = q.submit(spec(32, bench="mixed.int", seed=6))
        d2 = q.submit(spec(64, bench="mixed.int", seed=6))
        batch = q.take_batch(3)
        assert [j.job_id for j in batch] == \
            [c1.job_id, d1.job_id, d2.job_id]

    def test_gang_batch_takes_whole_mix_from_config_major_grid(self):
        # the Fig 10 grid submitted config-major puts one mix's four
        # configs 28 queue entries apart; each batch must still be one
        # whole mix, however deep its later configs sit.
        mixes = balanced_random_mixes()[:28]
        q = JobQueue()
        jobs = {}
        for name, factory in EVALUATED_CONFIGS.items():
            for i, mix in enumerate(mixes):
                jobs[name, i] = q.submit(JobSpec(
                    config=factory(4), benchmarks=tuple(mix), length=300,
                    seed=i))
        for i in range(len(mixes)):
            batch = q.take_batch(4)
            assert [j.job_id for j in batch] == \
                [jobs[name, i].job_id for name in EVALUATED_CONFIGS]
        assert q.take_batch(4) == []


# ---------------------------------------------------------------------------
# Scheduler (worker fleet, no HTTP)
# ---------------------------------------------------------------------------

class TestScheduler:
    def _scheduler(self, **kw):
        metrics = ServiceMetrics()
        queue = JobQueue(store=get_store(), on_finish=metrics.job_finished)
        kw.setdefault("workers", 1)
        kw.setdefault("retry_backoff_s", 0.05)
        return queue, BatchScheduler(queue, metrics=metrics, **kw), metrics

    def test_dedup_one_execution_bit_identical(self, fresh_store):
        """Two identical jobs -> one simulation, two results, both
        bit-identical to a direct Pipeline invocation of the point."""
        queue, sched, metrics = self._scheduler()
        spec = _spec(length=500)
        j1 = queue.submit(spec)
        j2 = queue.submit(spec)
        sched.start()
        try:
            assert j1.done.wait(120) and j2.done.wait(120)
        finally:
            assert sched.stop(drain=True, timeout=30)
        assert j1.state == JobState.DONE and j2.state == JobState.DONE
        assert metrics.counters["executed_points"] == 1
        assert queue.dedup_hits == 1
        direct = _direct_record(spec)
        assert j1.result.as_record() == direct
        assert j2.result.as_record() == direct

    def test_worker_crash_retried_with_backoff(self, fresh_store,
                                               tmp_path, monkeypatch):
        token = tmp_path / "crash-once"
        token.touch()
        monkeypatch.setenv(CRASH_ONCE_ENV, str(token))
        queue, sched, metrics = self._scheduler()
        job = queue.submit(_spec(length=300))
        sched.start()
        try:
            assert job.done.wait(120)
        finally:
            assert sched.stop(drain=True, timeout=30)
        assert job.state == JobState.DONE
        assert job.attempts == 1
        assert metrics.counters["worker_crashes"] >= 1
        assert metrics.counters["retries"] >= 1
        assert not token.exists()

    def test_crash_retries_exhausted_fails_job(self, fresh_store,
                                               tmp_path, monkeypatch):
        token = tmp_path / "crash-once"
        token.touch()
        monkeypatch.setenv(CRASH_ONCE_ENV, str(token))
        # zero retries: the single injected crash exhausts the budget
        queue, sched, metrics = self._scheduler(max_retries=0)
        job = queue.submit(_spec(length=300))
        sched.start()
        try:
            assert job.done.wait(120)
        finally:
            assert sched.stop(drain=True, timeout=30)
        assert job.state == JobState.FAILED
        assert job.error["type"] == "worker-crash"

    @needs_sigalrm
    def test_timeout_surfaces_structured_error(self, fresh_store):
        queue, sched, metrics = self._scheduler()
        # far more work than 0.15s allows; the in-worker alarm aborts it
        slow = _spec(benchmark="pchase.mem", length=2_000_000)
        job = queue.submit(slow, timeout_s=0.15)
        ok = queue.submit(_spec(length=300))
        sched.start()
        try:
            assert job.done.wait(120) and ok.done.wait(120)
        finally:
            assert sched.stop(drain=True, timeout=30)
        assert job.state == JobState.FAILED
        assert job.error["type"] == "timeout"
        assert metrics.counters["timeouts"] >= 1
        # the timed-out point must not poison the queue or the store
        assert ok.state == JobState.DONE
        assert fresh_store.get(slow.digest()) is None

    def test_batching_coalesces_points(self, fresh_store):
        queue, sched, metrics = self._scheduler(batch_size=4)
        jobs = [queue.submit(_spec(length=300, seed=s)) for s in range(4)]
        sched.start()
        try:
            for job in jobs:
                assert job.done.wait(120)
        finally:
            assert sched.stop(drain=True, timeout=30)
        assert all(j.state == JobState.DONE for j in jobs)
        # 4 distinct points, batch size 4, one worker: fewer batches
        # than points proves coalescing happened.
        assert metrics.counters["batches"] < 4
        assert metrics.counters["executed_points"] == 4


def test_wire_batch_mixed_specs_match_solo(fresh_store):
    """Points sharing a signature, a second signature, a timed spec and
    a bad spec in one batch: every good outcome equals a direct run."""
    base = shelf_config(1, steering="practical")
    specs = [_spec(length=120, config=replace(base, rob_entries=64 + 16 * i))
             for i in range(3)]
    specs.append(_spec(benchmark="mixed.int", length=120, config=base))
    wires = [s.to_wire() for s in specs]
    timed = _spec(length=120, seed=3, config=base)
    specs.append(timed)
    wires.append({**timed.to_wire(), "_timeout_s": 60.0})
    wires.append({**specs[0].to_wire(), "benchmarks": ["no.such.bench"]})

    out = execute_wire_batch(wires)
    assert len(out) == len(wires)
    for spec, outcome in zip(specs, out):
        assert outcome["ok"] and not outcome["store_hit"], outcome
        assert outcome["elapsed_s"] >= 0.0
        assert outcome["result"].as_record() == _direct_record(spec)
    assert not out[-1]["ok"] and out[-1]["error"]["type"] == "bad-spec"


def test_wire_batch_looks_each_point_up_once(fresh_store, monkeypatch):
    """One ``ResultStore.get`` per spec, hit or miss: the queue already
    looked the point up before it reached the batch."""
    specs = [_spec(length=150, seed=s) for s in range(3)]
    simulate_point(*specs[1].point())  # one hit among the misses
    calls = []
    real_get = type(fresh_store).get

    def counting_get(store, digest):
        calls.append(digest)
        return real_get(store, digest)

    monkeypatch.setattr(type(fresh_store), "get", counting_get)
    outcomes = execute_wire_batch([s.to_wire() for s in specs])
    assert calls == [s.digest() for s in specs]
    assert [o["store_hit"] for o in outcomes] == [False, True, False]
    for spec, outcome in zip(specs, outcomes):
        assert outcome["result"].as_record() == _direct_record(spec)


# ---------------------------------------------------------------------------
# HTTP server + client
# ---------------------------------------------------------------------------

class TestServer:
    def test_end_to_end_submit_and_result(self, fresh_store):
        spec = _spec(length=500)
        with _Service() as client:
            assert client.healthz()["status"] == "ok"
            doc = client.run(spec.to_wire(), wait_timeout_s=120)
            assert doc["state"] == "done"
            record = dict(doc["record"])
            record.pop("elapsed_s")
            assert record == _direct_record(spec)
            # identical resubmission: served from the store, same record
            again = client.run(spec.to_wire(), wait_timeout_s=120)
            assert again["cached"]
            assert {k: v for k, v in again["record"].items()
                    if k != "elapsed_s"} == record
            metrics = client.metrics()
        assert metrics["jobs_submitted"] == 2
        assert metrics["executed_points"] == 1
        assert metrics["cache_hits"] == 1
        assert metrics["cache_hit_rate"] == 0.5
        assert metrics["jobs_per_sec"] > 0
        assert metrics["latency_p50_s"] is not None
        assert metrics["queue_depth"] == 0 and metrics["inflight"] == 0

    def test_validation_and_unknown_routes(self, fresh_store):
        with _Service() as client:
            with pytest.raises(ServiceError) as err:
                client.submit({"config": "base64", "threads": 1,
                               "benchmarks": ["spec.gcc"], "length": 100})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/jobs", payload=[1, 2, 3])
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.status("j999999")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/nope")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client._request("PUT", "/jobs/j000001")
            assert err.value.status == 405

    def test_result_conflict_while_running(self, fresh_store):
        with _Service() as client:
            jid = client.submit(
                _spec(benchmark="pchase.mem", length=30_000).to_wire()
            )["job_id"]
            # asking for the result races the worker: either the job is
            # still in flight (409) or it already finished (200).
            try:
                doc = client.result(jid)
                assert doc["state"] == "done"
            except ServiceError as err:
                assert err.status == 409
            client.wait(jid, timeout_s=120)

    def test_drain_finishes_inflight_and_refuses_new(self, fresh_store):
        service = _Service()
        with service as client:
            jid = client.submit(
                _spec(benchmark="pchase.mem", length=60_000).to_wire()
            )["job_id"]
            service.server.request_shutdown()
            deadline = time.monotonic() + 5.0
            while not service.server.draining and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            assert client.healthz()["status"] == "draining"
            with pytest.raises(ServiceError) as err:
                client.submit(_spec(length=300, seed=9).to_wire())
            assert err.value.status == 503
        # __exit__ waited for the drain: the in-flight job finished
        # rather than being dropped.
        job = service.server.queue.get(jid)
        assert job.state == JobState.DONE

    def test_campaign_via_service(self, fresh_store, tmp_path):
        class CountingClient(ServiceClient):
            requests = 0

            def _request_once(self, *args, **kwargs):
                CountingClient.requests += 1
                return super()._request_once(*args, **kwargs)

        mixes = balanced_random_mixes()[:1]
        with _Service(workers=2, batch_size=2) as client:
            counting = CountingClient(f"http://{client.host}:{client.port}")
            campaign = standard_campaign(tmp_path / "svc.jsonl", mixes, 300)
            via = campaign.run(service=counting)
        # one submit plus a share of the long polls per job, where a
        # status poll loop made dozens.
        assert CountingClient.requests <= 3 * len(campaign.points)
        local = standard_campaign(tmp_path / "local.jsonl", mixes,
                                  300).run()

        def strip(records):
            return {k: {kk: vv for kk, vv in r.items() if kk != "elapsed_s"}
                    for k, r in records.items()}

        assert strip(via) == strip(local)
        # the service-side checkpoint file reloads cleanly
        reloaded = standard_campaign(tmp_path / "svc.jsonl", mixes, 300)
        assert reloaded.pending == []


# ---------------------------------------------------------------------------
# POST /jobs/wait (long poll)
# ---------------------------------------------------------------------------

def _idle_service(**kw) -> _Service:
    """A service whose scheduler never dispatches: submitted misses stay
    queued until the test resolves them (no worker process starts)."""
    kw.setdefault("drain_timeout_s", 0.2)
    service = _Service(**kw)
    service.server.scheduler._fill = lambda: None
    return service


def _wait_in_thread(client, job_ids, timeout_s):
    """Run one long poll on a thread; returns (thread, outcome dict)."""
    outcome = {}

    def go():
        t0 = time.monotonic()
        outcome["docs"] = client.wait_jobs(job_ids, timeout_s)
        outcome["elapsed"] = time.monotonic() - t0

    thread = threading.Thread(target=go, daemon=True)
    thread.start()
    return thread, outcome


class TestWaitEndpoint:
    def test_finished_job_returns_at_once_with_record(self, fresh_store):
        spec = _spec(length=300)
        simulate_point(*spec.point())  # a store hit: done on submit
        with _idle_service() as client:
            jid = client.submit(spec.to_wire())["job_id"]
            t0 = time.monotonic()
            [doc] = client.wait_jobs([jid], timeout_s=5.0)
            assert time.monotonic() - t0 < 2.0
            assert doc["job_id"] == jid and doc["state"] == "done"
            assert doc["cached"] and doc["digest"] == spec.digest()
            record = dict(doc["record"])
            record.pop("elapsed_s")
            assert record == _direct_record(spec)
            assert client.wait(jid)["record"] == doc["record"]

    def test_wakes_on_completion_from_another_thread(self, fresh_store):
        spec = _spec(length=300)
        service = _idle_service()
        with service as client:
            jid = client.submit(spec.to_wire())["job_id"]
            thread, outcome = _wait_in_thread(client, [jid], 5.0)
            time.sleep(0.2)
            assert thread.is_alive()  # nothing finished yet: it holds
            queue = service.server.queue
            [job] = queue.take_batch(1)  # play the scheduler's part
            queue.complete(job, simulate_point(*spec.point()), 0.5)
            thread.join(5.0)
            assert not thread.is_alive()
            assert outcome["elapsed"] < 3.0
            [doc] = outcome["docs"]
            assert doc["state"] == "done" and not doc["cached"]
            assert doc["record"]["elapsed_s"] == 0.5

    def test_timeout_returns_no_jobs(self, fresh_store):
        with _idle_service() as client:
            jid = client.submit(_spec(length=300).to_wire())["job_id"]
            t0 = time.monotonic()
            assert client.wait_jobs([jid], timeout_s=0.3) == []
            assert 0.25 < time.monotonic() - t0 < 3.0
            with pytest.raises(TimeoutError):
                client.wait(jid, timeout_s=0.3)

    def test_unknown_id_and_malformed_body(self, fresh_store):
        with _idle_service() as client:
            jid = client.submit(_spec(length=300).to_wire())["job_id"]
            with pytest.raises(ServiceError) as err:
                client.wait_jobs([jid, "j999999"], timeout_s=0.1)
            assert err.value.status == 404
            for body in ({}, {"ids": []}, {"ids": [7]}, {"ids": jid},
                         {"ids": [jid], "timeout_s": "soon"},
                         {"ids": [jid], "timeout_s": -1}, [jid]):
                with pytest.raises(ServiceError) as err:
                    client._request("POST", "/jobs/wait", body)
                assert err.value.status == 400, body
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/jobs/wait")
            assert err.value.status == 404

    def test_failed_job_carries_structured_error(self, fresh_store):
        service = _idle_service()
        with service as client:
            jid = client.submit(_spec(length=300).to_wire())["job_id"]
            queue = service.server.queue
            [job] = queue.take_batch(1)
            error = {"type": "worker-crash", "message": "boom"}
            queue.fail(job, error)
            [doc] = client.wait_jobs([jid], timeout_s=5.0)
            assert doc["state"] == "failed" and doc["error"] == error
            assert "record" not in doc
            with pytest.raises(JobFailed) as err:
                client.wait(jid, timeout_s=5.0)
            assert err.value.payload["error"] == error

    def test_drain_answers_pending_waits(self, fresh_store):
        # the drain fails the never-dispatched job with a shutdown
        # error, and the waiter hears of it at once.
        service = _idle_service()
        with service as client:
            jid = client.submit(_spec(length=300).to_wire())["job_id"]
            thread, outcome = _wait_in_thread(client, [jid], 5.0)
            time.sleep(0.2)
            service.server.request_shutdown()
            thread.join(5.0)
        assert not thread.is_alive() and outcome["elapsed"] < 3.0
        [doc] = outcome["docs"]
        assert doc["state"] == "failed"
        assert doc["error"]["type"] == "shutdown"

    def test_drain_wakes_waits_on_unfinished_jobs(self, fresh_store):
        # even a job the scheduler never resolves must not hold the
        # shutdown for the rest of the long poll.
        service = _idle_service()
        scheduler = service.server.scheduler
        real_stop = scheduler.stop
        scheduler.stop = lambda **kw: True
        try:
            with service as client:
                jid = client.submit(_spec(length=300).to_wire())["job_id"]
                thread, outcome = _wait_in_thread(client, [jid], 5.0)
                time.sleep(0.2)
                t0 = time.monotonic()
                service.server.request_shutdown()
                thread.join(5.0)
            assert time.monotonic() - t0 < 3.0
            assert not thread.is_alive() and outcome["docs"] == []
        finally:
            assert real_stop(drain=False, timeout=10.0)


# ---------------------------------------------------------------------------
# campaign analytics (warehouse integration)
# ---------------------------------------------------------------------------

class TestCampaignAnalytics:
    def test_campaign_tag_tracked_end_to_end(self, fresh_store):
        with _Service(workers=1) as client:
            jid = client.submit_point(shelf_config(1), ("ilp.int4",), 300,
                                      campaign="svc-sweep")
            client.wait(jid, timeout_s=120)
            status = client.status(jid)
            assert status["campaign"] == "svc-sweep"
            campaigns = client.campaigns()
            assert [c["name"] for c in campaigns] == ["svc-sweep"]
            doc = campaigns[0]
            assert doc["service"] == {"submitted": 1, "completed": 1,
                                      "failed": 0}
            assert doc["marked"] == 1 and doc["indexed"] == 1
            assert doc["mean_ipc"] > 0
            assert client.metrics()["campaigns_tracked"] == 1
        # the marks are durable: the warehouse remembers after shutdown
        wh = fresh_store.warehouse()
        assert len(wh.campaign_digests("svc-sweep")) == 1

    def test_cache_hit_still_marked(self, fresh_store):
        spec = _spec(length=300)
        simulate_point(*spec.point())  # pre-populate the store
        with _Service(workers=1) as client:
            jid = client.submit(spec.to_wire(), campaign="warm")["job_id"]
            client.wait(jid, timeout_s=60)
        wh = fresh_store.warehouse()
        assert wh.campaign_digests("warm") == [spec.digest()]

    def test_campaign_never_affects_identity(self, fresh_store):
        queue = JobQueue(store=fresh_store)
        spec = _spec(length=300)
        a = queue.submit(spec, campaign="one")
        b = queue.submit(spec, campaign="two")
        assert a.digest == b.digest
        assert b.dedup_of == a.job_id  # still dedups across campaigns

    def test_untagged_jobs_report_no_campaigns(self, fresh_store):
        with _Service(workers=1) as client:
            jid = client.submit_point(shelf_config(1), ("ilp.int4",), 300)
            client.wait(jid, timeout_s=120)
            assert client.campaigns() == []
