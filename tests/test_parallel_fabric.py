"""Tests for the parallel simulation fabric and the persistent store.

Covers: content digests, store round-trips and corruption tolerance,
job-count resolution, serial-vs-parallel campaign determinism,
resume-after-interrupt, zero-simulation replay from the store, the
two-level cache statistics, the per-process trace memo, and one task
per trace signature.
"""

import json
import pickle
from concurrent.futures import Future
from dataclasses import replace

import pytest

from repro.core.config import CoreConfig
from repro.core.pipeline import Pipeline
from repro.harness import cache as hcache
from repro.harness import executor, runner
from repro.harness.cache import ResultStore, point_digest
from repro.harness.campaign import Campaign, CampaignPoint, standard_campaign
from repro.harness.configs import base64_config, shelf_config
from repro.harness.executor import resolve_jobs, run_points, simulate_point
from repro.trace import generate

MIXES = [("ilp.int8", "serial.alu"), ("branchy.easy", "gather.small")]


def small_campaign(path, configs=None):
    configs = configs or {"Base64": base64_config(2),
                          "Shelf": shelf_config(2, shelf_entries=32)}
    return standard_campaign(path, MIXES, 200, configs=configs)


def strip_elapsed(records):
    return {key: {k: v for k, v in rec.items() if k != "elapsed_s"}
            for key, rec in records.items()}


class TestDigest:
    def test_stable_across_equal_configs(self, isolated_store):
        a = point_digest(base64_config(2), ("ilp.int8",), 200, 0, "all")
        b = point_digest(base64_config(2), ("ilp.int8",), 200, 0, "all")
        assert a == b and len(a) == 64

    def test_sensitive_to_every_input(self, isolated_store):
        base = point_digest(base64_config(2), ("ilp.int8",), 200, 0, "all")
        assert point_digest(shelf_config(2, shelf_entries=32),
                            ("ilp.int8",), 200, 0, "all") != base
        assert point_digest(base64_config(2), ("serial.alu",),
                            200, 0, "all") != base
        assert point_digest(base64_config(2), ("ilp.int8",),
                            300, 0, "all") != base
        assert point_digest(base64_config(2), ("ilp.int8",),
                            200, 1, "all") != base
        assert point_digest(base64_config(2), ("ilp.int8",),
                            200, 0, "first") != base


class TestResultStore:
    def test_roundtrip(self, tmp_path, isolated_store):
        store = ResultStore(tmp_path / "s")
        cfg = base64_config(2)
        result = simulate_point(cfg, MIXES[0], 200, 0, "first")
        digest = point_digest(cfg, MIXES[0], 200, 0, "first")
        assert store.get(digest) is None and store.misses == 1
        store.put(digest, result)
        loaded = store.get(digest)
        assert store.hits == 1
        assert loaded.cycles == result.cycles
        assert loaded.events.as_dict() == result.events.as_dict()

    def test_corrupt_entry_discarded(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digest = "ab" + "0" * 62
        path = store._path(digest)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert store.get(digest) is None
        assert store.errors == 1
        assert not path.exists()  # bad entry deleted

    def test_wrong_type_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digest = "cd" + "0" * 62
        path = store._path(digest)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "a SimResult"}))
        assert store.get(digest) is None
        assert store.errors == 1

    def test_clear_and_len(self, tmp_path, isolated_store):
        store = ResultStore(tmp_path / "s")
        result = simulate_point(base64_config(2), MIXES[0], 200, 0, "first")
        store.put("ef" + "0" * 62, result)
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0 and store.evictions == 1

    def test_disabled_by_env(self, monkeypatch):
        for value in ("", "off", "0", "none"):
            monkeypatch.setenv("REPRO_CACHE_DIR", value)
            hcache.reset_store()
            assert hcache.get_store() is None
        hcache.reset_store()


class TestResolveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2  # explicit argument wins

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs()


class TestParallelDeterminism:
    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        # Separate stores so the parallel run cannot trivially replay the
        # serial run's results — it must simulate everything itself.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        runner.clear_cache()
        serial = small_campaign(tmp_path / "serial.jsonl").run(jobs=1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        runner.clear_cache()
        parallel = small_campaign(tmp_path / "par.jsonl").run(jobs=4)
        assert strip_elapsed(serial) == strip_elapsed(parallel)
        runner.clear_cache()

    def test_run_points_yields_every_index(self, isolated_store):
        cfg = base64_config(2)
        specs = [(cfg, mix, 200, seed, "first")
                 for seed, mix in enumerate(MIXES)]
        seen = {i for i, _, _ in run_points(specs, jobs=2)}
        assert seen == {0, 1}

    def test_resume_completes_only_missing(self, tmp_path, isolated_store):
        path = tmp_path / "c.jsonl"
        full = small_campaign(path)
        # interrupt: only the first point was checkpointed
        Campaign(path, full.points[:1]).run()
        assert len(path.read_text().strip().splitlines()) == 1
        before = path.read_text()
        resumed = small_campaign(path)
        assert len(resumed.pending) == len(full.points) - 1
        resumed.run(jobs=2)
        after = path.read_text()
        assert after.startswith(before)  # completed point not re-run
        assert len(after.strip().splitlines()) == len(full.points)
        assert resumed.pending == []


class TestCorruptCheckpoint:
    def test_truncated_trailing_line_tolerated(self, tmp_path,
                                               isolated_store):
        path = tmp_path / "c.jsonl"
        camp = small_campaign(path)
        camp.run()
        # simulate a crash mid-write of the next record
        with path.open("a") as fh:
            fh.write('{"key": "half-written')
        reloaded = small_campaign(path)
        assert len(reloaded.records) == len(camp.points)
        assert reloaded.pending == []

    def test_corrupt_line_point_reruns(self, tmp_path, isolated_store):
        path = tmp_path / "c.jsonl"
        camp = small_campaign(path)
        camp.run()
        lines = path.read_text().strip().splitlines()
        # corrupt the last record: its point must become pending again
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:25] + "\n")
        reloaded = small_campaign(path)
        assert len(reloaded.pending) == 1
        reloaded.run()
        assert reloaded.pending == []

    def test_append_after_truncation_does_not_merge(self, tmp_path,
                                                    isolated_store):
        path = tmp_path / "c.jsonl"
        full = small_campaign(path)
        Campaign(path, full.points[:1]).run()
        # crash mid-write: partial record, no trailing newline
        with path.open("a") as fh:
            fh.write('{"key": "half-writ')
        resumed = small_campaign(path)
        resumed.run()
        # the first record appended on resume must not have merged into
        # the partial line — a fresh reload sees every point completed
        assert small_campaign(path).pending == []

    def test_blank_lines_ignored(self, tmp_path, isolated_store):
        path = tmp_path / "c.jsonl"
        camp = small_campaign(path)
        camp.run()
        path.write_text(path.read_text() + "\n\n")
        assert small_campaign(path).pending == []


class TestPersistentReplay:
    def test_second_invocation_runs_no_pipelines(self, tmp_path,
                                                 isolated_store,
                                                 monkeypatch):
        small_campaign(tmp_path / "first.jsonl").run()
        runner.clear_cache()  # drop the in-process memo, keep the disk store

        def boom(self, stop="all"):
            raise AssertionError("Pipeline.run called despite warm store")
        monkeypatch.setattr(Pipeline, "run", boom)
        records = small_campaign(tmp_path / "second.jsonl").run()
        assert len(records) == 4
        stats = runner.cache_stats()
        assert stats["disk_hits"] == 4 and stats["disk_misses"] == 0

    def test_memoized_runner_replays_from_store(self, isolated_store,
                                                monkeypatch):
        first = runner.run_mix(base64_config(2), MIXES[0], 200, 0)
        runner.clear_cache()
        monkeypatch.setattr(Pipeline, "run", lambda self, stop="all": (
            (_ for _ in ()).throw(AssertionError("simulated twice"))))
        again = runner.run_mix(base64_config(2), MIXES[0], 200, 0)
        assert again.cycles == first.cycles


class TestCacheStats:
    def test_two_level_counters(self, isolated_store):
        cfg = base64_config(2)
        runner.run_mix(cfg, MIXES[0], 200, 0)
        stats = runner.cache_stats()
        assert stats["memo_misses"] == 1 and stats["disk_misses"] == 1
        runner.run_mix(cfg, MIXES[0], 200, 0)
        stats = runner.cache_stats()
        assert stats["memo_hits"] == 1
        assert stats["memo_size"] == 1

    def test_clear_cache_resets_both(self, isolated_store):
        runner.run_mix(base64_config(2), MIXES[0], 200, 0)
        assert runner._CACHE
        store_before = hcache.get_store()
        runner.clear_cache()
        assert not runner._CACHE
        assert runner.cache_stats()["memo_misses"] == 0
        # the handle was dropped: next access builds a fresh one
        assert hcache.get_store() is not store_before

    def test_clear_cache_disk_wipes_store(self, isolated_store):
        runner.run_mix(base64_config(2), MIXES[0], 200, 0)
        assert len(hcache.get_store()) == 1
        runner.clear_cache(disk=True)
        assert len(hcache.get_store()) == 0

    def test_prefill_seeds_memo(self, isolated_store):
        cfg = base64_config(2)
        points = [(cfg, mix, 200, seed, "first")
                  for seed, mix in enumerate(MIXES)]
        assert runner.prefill(points) == 2
        assert runner.prefill(points) == 0  # everything already memoized
        runner.run_mix(cfg, MIXES[0], 200, 0)
        assert runner.cache_stats()["memo_hits"] == 1


class TestTraceMemo:
    """One ``generate()`` per distinct trace per process."""

    @pytest.fixture(autouse=True)
    def _no_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        runner.clear_cache()
        yield
        runner.clear_cache()

    def test_trace_memo_counts_generate_calls(self, monkeypatch):
        calls = []

        def counting_generate(bench, length, seed):
            calls.append((bench, length, seed))
            return generate(bench, length, seed)

        monkeypatch.setattr(executor, "generate", counting_generate)

        first = executor.traces_for(("ilp.int8", "mixed.int"), 200, 0)
        assert len(calls) == 2     # one per distinct (bench, length, seed)
        again = executor.traces_for(("ilp.int8", "mixed.int"), 200, 0)
        assert len(calls) == 2     # all hits: no regeneration
        assert all(a is b for a, b in zip(first, again))
        # a 3-config "grid" over the same mix costs zero extra generates.
        for _ in range(3):
            executor.traces_for(("ilp.int8", "mixed.int"), 200, 0)
        assert len(calls) == 2
        stats = executor.trace_memo_stats()
        assert stats["misses"] == 2 and stats["hits"] == 8
        assert stats["entries"] == 2

        executor.clear_trace_memo()
        assert executor.trace_memo_stats() == {"entries": 0, "hits": 0,
                                               "misses": 0}
        executor.traces_for(("ilp.int8",), 200, 0)
        assert len(calls) == 3     # regenerated after the clear

    def test_trace_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(executor, "generate",
                            lambda bench, length, seed: object())
        for seed in range(executor._TRACE_MEMO_MAX + 10):
            executor.traces_for(("ilp.int8",), 50, seed)
        assert executor.trace_memo_stats()["entries"] == \
            executor._TRACE_MEMO_MAX

    def test_clear_cache_clears_trace_memo(self):
        executor.traces_for(("ilp.int8",), 60, 0)
        assert executor.trace_memo_stats()["entries"] == 1
        runner.clear_cache()
        assert executor.trace_memo_stats()["entries"] == 0
        stats = runner.cache_stats()
        assert "trace_entries" in stats and "trace_hits" in stats


def _point(cfg, benchmarks=("ilp.int8",), length=120, seed=0, stop="first"):
    return (cfg, benchmarks, length, seed, stop)


class _InlinePool:
    """A ProcessPoolExecutor stand-in that runs each task on submit and
    records it, so a test can see how run_points splits its tasks."""

    tasks: list = []

    def __init__(self, max_workers, mp_context):
        pass

    def submit(self, fn, arg):
        future = Future()
        future.set_result(fn(arg))
        self.tasks.append((fn.__name__, arg))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestTraceGroups:
    """Points sharing traces run in one task."""

    def test_groups_by_signature_without_chunking(self):
        a = CoreConfig(num_threads=1)
        specs = [
            _point(a, seed=0),                          # sig S, 0
            _point(replace(a, iq_entries=48), seed=1),  # sig T, 1
            _point(replace(a, rob_entries=96), seed=0),  # sig S, 2
            _point(replace(a, iq_entries=24), seed=0),   # sig S, 3
            _point(a, seed=0, stop="all"),              # sig U, 4
        ]
        # first-appearance order; a signature is never split.
        assert executor._trace_groups(specs) == [[0, 2, 3], [1], [4]]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_points_grouped_matches_per_point(self, jobs, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        runner.clear_cache()
        monkeypatch.setattr(executor, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "tasks", [])
        base = CoreConfig(num_threads=1, shelf_entries=16,
                          steering="practical")
        specs = [_point(replace(base, rob_entries=32 + 16 * i), length=150)
                 for i in range(4)]
        specs.append(_point(base, length=150, seed=9))  # its own group
        got = {}
        for i, result, elapsed in run_points(specs, jobs=jobs):
            assert i not in got, "index yielded twice"
            assert elapsed >= 0.0
            got[i] = pickle.dumps(result)
        assert sorted(got) == list(range(len(specs)))
        for i, (cfg, benchmarks, length, seed, stop) in enumerate(specs):
            solo = Pipeline(cfg, [generate(benchmarks[0], length, seed)]
                            ).run(stop=stop)
            assert got[i] == pickle.dumps(solo), f"spec {i} differs"
        if jobs > 1:
            # one pool task per trace signature.
            assert [(fn, len(arg)) for fn, arg in _InlinePool.tasks] == \
                [("_gang_worker", 4), ("_gang_worker", 1)]
        runner.clear_cache()
