"""Tests for the result warehouse: the sqlite index over the store.

Covers: live ingest on ``ResultStore.put`` (with the meta sidecar),
rebuild round-trip equality, gc invalidation by exact digest, derived
STP/ANTT agreement with the runner's discipline, query filters and
output formats, campaign membership (including the Campaign runner's
progress marks), campaign diffing, baseline record/check with a seeded
regression, and concurrent-writer safety under process-pool fan-out.
"""

import dataclasses
import json

import pytest

from repro.harness import runner
from repro.harness.campaign import Campaign, CampaignPoint
from repro.harness.cache import get_store, point_digest
from repro.harness.configs import base64_config, shelf_config
from repro.harness.executor import simulate_point
from repro.warehouse import open_warehouse, point_key
from repro.warehouse import baseline as wbaseline
from repro.warehouse.diff import diff_campaigns, format_diff
from repro.warehouse.query import (QueryError, aggregate_rows, format_rows,
                                   select_rows)

MIX = ("ilp.int8", "serial.alu")
LENGTH = 250


def simulate_mix(config=None, mix=MIX, length=LENGTH, seed=0, stop="first"):
    cfg = config if config is not None else base64_config(len(mix))
    return simulate_point(cfg, tuple(mix), length, seed, stop)


def simulate_references(mix=MIX, length=LENGTH, seed=0):
    """Single-thread reference runs (the STP/ANTT denominators)."""
    ref = base64_config(1)
    for tid, bench in enumerate(mix):
        simulate_point(ref, (bench,), length, seed + tid, "all")


def all_rows(wh):
    """Every results row as a plain dict, keyed by digest, with the
    ingest timestamps dropped (they legitimately differ across
    rebuilds)."""
    rows = wh.execute("SELECT * FROM results ORDER BY digest")
    out = {}
    for row in rows:
        doc = dict(row)
        doc.pop("created_at")
        doc.pop("ingested_at")
        out[doc["digest"]] = doc
    return out


class TestIngest:
    def test_put_writes_sidecar_and_row(self, isolated_store):
        cfg = base64_config(2)
        result = simulate_mix(cfg)
        store = get_store()
        digest = point_digest(cfg, MIX, LENGTH, 0, "first")
        meta = store.meta(digest)
        assert meta is not None
        assert meta["benchmarks"] == list(MIX)
        assert meta["length"] == LENGTH
        assert meta["seed"] == 0
        assert meta["stop"] == "first"
        wh = store.warehouse()
        rows = all_rows(wh)
        assert set(rows) == {digest}
        row = rows[digest]
        assert row["mix"] == "+".join(MIX)
        assert row["num_threads"] == 2
        assert row["cycles"] == result.cycles
        assert row["config_label"] == result.config_label
        assert row["length"] == LENGTH and row["stop"] == "first"
        assert row["pkey"] == point_key(result.config_label,
                                        "+".join(MIX), LENGTH, 0, "first")
        assert row["edp"] is not None and row["edp"] > 0
        threads = wh.execute(
            "SELECT benchmark, cpi FROM threads WHERE digest = ? "
            "ORDER BY tid", (digest,))
        assert [t["benchmark"] for t in threads] == list(MIX)
        assert all(t["cpi"] > 0 for t in threads)

    def test_ingest_flag_off_skips_index_not_sidecar(self, isolated_store,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_WAREHOUSE_INGEST", "0")
        cfg = base64_config(2)
        simulate_mix(cfg)
        store = get_store()
        digest = point_digest(cfg, MIX, LENGTH, 0, "first")
        assert store.meta(digest) is not None
        assert store.warehouse().row_count() == 0
        # rebuild still indexes everything from the sidecars
        assert store.warehouse().rebuild(store) == 1
        assert store.warehouse().row_count() == 1

    def test_warehouse_db_off_disables(self, isolated_store, monkeypatch):
        monkeypatch.setenv("REPRO_WAREHOUSE_DB", "off")
        simulate_mix()
        store = get_store()
        assert store.warehouse() is None
        disk = store.disk_stats()
        assert disk["entries"] == 1 and not disk["index_present"]

    def test_ingest_is_idempotent(self, isolated_store):
        result = simulate_mix()
        store = get_store()
        wh = store.warehouse()
        digest = point_digest(base64_config(2), MIX, LENGTH, 0, "first")
        before = all_rows(wh)
        wh.ingest(digest, result, meta=store.meta(digest))
        assert all_rows(wh) == before


class TestRebuild:
    def test_round_trip_equals_live_ingest(self, isolated_store):
        simulate_mix(base64_config(2), seed=0)
        simulate_mix(shelf_config(2), seed=1)
        simulate_references()
        store = get_store()
        wh = store.warehouse()
        wh.refresh_derived()
        live = all_rows(wh)
        assert len(live) == 4
        count = wh.rebuild(store)
        assert count == 4
        assert all_rows(wh) == live

    def test_rebuild_fresh_index(self, isolated_store):
        """A store written with the warehouse disabled rebuilds fully."""
        import os
        os.environ["REPRO_WAREHOUSE_INGEST"] = "0"
        try:
            simulate_mix()
            simulate_references()
        finally:
            del os.environ["REPRO_WAREHOUSE_INGEST"]
        store = get_store()
        wh = store.warehouse()
        assert wh.row_count() == 0
        assert wh.rebuild(store) == 3
        rows = all_rows(wh)
        mix_row = next(r for r in rows.values() if r["num_threads"] == 2)
        assert mix_row["stp"] is not None  # derived metrics refreshed too


class TestGCSync:
    def test_gc_reports_digests_and_prunes_index(self, isolated_store):
        simulate_mix(seed=0)
        simulate_mix(seed=1)
        store = get_store()
        wh = store.warehouse()
        assert wh.row_count() == 2
        gc = store.gc(0)
        assert gc.removed == 2 and gc.freed_bytes > 0
        assert len(gc.digests) == 2
        assert all(len(d) == 64 for d in gc.digests)
        assert wh.row_count() == 0
        assert wh.execute("SELECT COUNT(*) AS n FROM threads")[0]["n"] == 0

    def test_partial_gc_keeps_survivors(self, isolated_store):
        simulate_mix(seed=0)
        simulate_mix(seed=1)
        store = get_store()
        disk = store.disk_stats()
        # budget for exactly one entry: the oldest is evicted
        gc = store.gc(disk["bytes"] - 1)
        assert gc.removed >= 1
        survivors = set(all_rows(store.warehouse()))
        assert survivors.isdisjoint(gc.digests)
        assert len(survivors) == 2 - gc.removed

    def test_clear_empties_index(self, isolated_store):
        simulate_mix()
        store = get_store()
        store.clear()
        assert store.warehouse().row_count() == 0
        assert store.disk_stats()["entries"] == 0

    def test_disk_stats_report_index(self, isolated_store):
        simulate_mix()
        store = get_store()
        disk = store.disk_stats()
        assert disk["index_present"]
        assert disk["index_rows"] == 1
        assert disk["index_bytes"] > 0
        assert store.stats["index_errors"] == 0


class TestDerivedMetrics:
    def test_stp_matches_runner_discipline(self, isolated_store):
        cfg = shelf_config(2)
        simulate_mix(cfg)
        simulate_references()
        wh = get_store().warehouse()
        assert wh.refresh_derived() >= 1
        digest = point_digest(cfg, MIX, LENGTH, 0, "first")
        row = all_rows(wh)[digest]
        expected = runner.mix_stp(cfg, MIX, LENGTH, seed=0)
        assert row["stp"] == pytest.approx(expected)
        assert row["antt"] >= 1.0 or row["antt"] == pytest.approx(1.0)

    def test_missing_references_stay_null(self, isolated_store):
        simulate_mix(shelf_config(2))
        wh = get_store().warehouse()
        assert wh.refresh_derived() == 0
        digest = point_digest(shelf_config(2), MIX, LENGTH, 0, "first")
        assert all_rows(wh)[digest]["stp"] is None


class TestQuery:
    def populate(self):
        simulate_mix(base64_config(2), seed=0)
        simulate_mix(shelf_config(2), seed=0)

    def test_filter_and_project(self, isolated_store):
        self.populate()
        wh = get_store().warehouse()
        headers, rows = select_rows(wh, where=["shelf_entries>0"],
                                    select=["config_label", "cycles"])
        assert headers == ["config_label", "cycles"]
        assert len(rows) == 1 and "Shelf" in rows[0][0]

    def test_substring_filter(self, isolated_store):
        self.populate()
        wh = get_store().warehouse()
        _, rows = select_rows(wh, where=["mix~ilp"], select=["mix"])
        assert len(rows) == 2

    def test_sort_and_limit(self, isolated_store):
        self.populate()
        wh = get_store().warehouse()
        _, rows = select_rows(wh, select=["cycles"], sort="cycles:desc",
                              limit=1)
        all_cycles = [r[0] for _, rs in [select_rows(
            wh, select=["cycles"])] for r in rs]
        assert rows[0][0] == max(all_cycles)

    def test_unknown_column_raises(self, isolated_store):
        wh = get_store().warehouse()
        with pytest.raises(QueryError):
            select_rows(wh, select=["nonesuch"])
        with pytest.raises(QueryError):
            select_rows(wh, where=["cycles;DROP TABLE results>1"])

    def test_aggregate(self, isolated_store):
        self.populate()
        wh = get_store().warehouse()
        headers, rows = aggregate_rows(wh, group_by=["config_label"],
                                       aggs=["count", "mean:ipc"])
        assert headers == ["config_label", "count", "mean:ipc"]
        assert len(rows) == 2
        assert all(r[1] == 1 and r[2] > 0 for r in rows)

    def test_formats(self, isolated_store):
        self.populate()
        wh = get_store().warehouse()
        headers, rows = select_rows(wh, select=["mix", "cycles"])
        text = format_rows(headers, rows, "text")
        assert "(2 rows)" in text
        docs = json.loads(format_rows(headers, rows, "json"))
        assert len(docs) == 2 and docs[0]["cycles"] > 0
        csv_text = format_rows(headers, rows, "csv")
        assert csv_text.splitlines()[0] == "mix,cycles"
        with pytest.raises(QueryError):
            format_rows(headers, rows, "xml")


def campaign_points(name, cfg, with_refs=True):
    points = [CampaignPoint(name, cfg, MIX, LENGTH, seed=0)]
    if with_refs:
        ref = base64_config(1)
        points += [CampaignPoint("ref", ref, (b,), LENGTH, seed=tid,
                                 stop="all")
                   for tid, b in enumerate(MIX)]
    return points


class TestCampaignAnalytics:
    def test_run_marks_membership(self, isolated_store, tmp_path):
        camp = Campaign(tmp_path / "c.jsonl",
                        campaign_points("Base", base64_config(2)),
                        tag="sweep-a")
        camp.run()
        wh = get_store().warehouse()
        assert len(wh.campaign_digests("sweep-a")) == 3
        status = wh.campaign_status("sweep-a")
        assert len(status) == 1
        assert status[0]["marked"] == 3 and status[0]["total"] == 3
        assert status[0]["progress"] == pytest.approx(1.0)
        assert status[0]["indexed"] == 3
        assert status[0]["mean_ipc"] > 0

    def test_campaign_query_filter(self, isolated_store, tmp_path):
        Campaign(tmp_path / "c.jsonl",
                 campaign_points("Base", base64_config(2)),
                 tag="sweep-a").run()
        simulate_mix(shelf_config(2))  # indexed but not in the campaign
        wh = get_store().warehouse()
        _, rows = select_rows(wh, select=["mix"], campaign="sweep-a")
        assert len(rows) == 3
        _, rows = select_rows(wh, select=["mix"],
                              where=["campaign=sweep-a", "num_threads=2"])
        assert len(rows) == 1

    def test_resume_backfills_marks(self, isolated_store, tmp_path):
        points = campaign_points("Base", base64_config(2))
        Campaign(tmp_path / "c.jsonl", points, tag="sweep-a").run()
        wh = get_store().warehouse()
        wh.clear()
        # a fresh index: re-running the finished campaign restores the
        # membership marks without re-simulating anything
        wh.rebuild(get_store())
        Campaign(tmp_path / "c.jsonl", points, tag="sweep-a").run()
        assert len(wh.campaign_digests("sweep-a")) == 3

    def test_tag_defaults_to_stem(self, tmp_path):
        camp = Campaign(tmp_path / "nightly.jsonl", [])
        assert camp.tag == "nightly"

    def test_point_digest_property(self):
        p = CampaignPoint("Base", base64_config(2), MIX, LENGTH, seed=3)
        assert p.digest == point_digest(base64_config(2), MIX, LENGTH, 3,
                                        "first")


class TestDiff:
    def seed_two_campaigns(self, regress=False):
        """Campaign A holds a real result; campaign B holds the same
        point identity under a fabricated digest, optionally with 10%
        more cycles (a regression)."""
        cfg = base64_config(2)
        result = simulate_mix(cfg)
        store = get_store()
        wh = store.warehouse()
        digest = point_digest(cfg, MIX, LENGTH, 0, "first")
        wh.campaign_mark("camp-a", digest, key="k")
        other = result if not regress else dataclasses.replace(
            result, cycles=int(result.cycles * 1.1))
        fake = "f" * 64
        wh.ingest(fake, other, meta=store.meta(digest))
        wh.campaign_mark("camp-b", fake, key="k")
        return wh

    def test_identical_campaigns_are_clean(self, isolated_store):
        wh = self.seed_two_campaigns()
        diff = diff_campaigns(wh, "camp-a", "camp-b",
                              metrics=["cycles", "ipc"])
        assert len(diff.common) == 1
        assert not diff.added and not diff.removed
        assert not diff.regressions
        assert diff.common[0].deltas["cycles"] == pytest.approx(0.0)

    def test_regression_detected(self, isolated_store):
        wh = self.seed_two_campaigns(regress=True)
        diff = diff_campaigns(wh, "camp-a", "camp-b",
                              metrics=["cycles"], tolerance=0.05)
        assert len(diff.regressions) == 1
        assert diff.regressions[0].regressed == ["cycles"]
        text = format_diff(diff)
        assert "1 regressed" in text and "cycles!" in text
        doc = json.loads(format_diff(diff, "json"))
        assert doc["regressions"] == 1

    def test_added_and_removed_points(self, isolated_store):
        wh = self.seed_two_campaigns()
        extra = simulate_mix(shelf_config(2))
        digest = point_digest(shelf_config(2), MIX, LENGTH, 0, "first")
        wh.campaign_mark("camp-b", digest, key="k2")
        diff = diff_campaigns(wh, "camp-a", "camp-b", metrics=["cycles"])
        assert len(diff.added) == 1 and not diff.removed
        assert extra.config_label in diff.added[0]

    def test_bad_metric_rejected(self, isolated_store):
        wh = get_store().warehouse()
        with pytest.raises(QueryError):
            diff_campaigns(wh, "a", "b", metrics=["cycles; DROP"])


class TestBaseline:
    def test_record_then_clean_check(self, isolated_store, tmp_path):
        simulate_mix()
        wh = get_store().warehouse()
        path = tmp_path / "baseline.json"
        count = wbaseline.record(wh, path, metrics=["cycles", "ipc"])
        assert count == 1
        doc = json.loads(path.read_text())
        assert doc["schema"] == wbaseline.BASELINE_SCHEMA
        report = wbaseline.check(wh, path)
        assert report.ok and report.checked == 1

    def test_seeded_regression_fails_check(self, isolated_store,
                                           tmp_path, capsys):
        from repro.__main__ import main
        cfg = shelf_config(2)
        simulate_mix(cfg)
        simulate_references()
        store = get_store()
        wh = store.warehouse()
        wh.refresh_derived()
        path = tmp_path / "baseline.json"
        wbaseline.record(wh, path, metrics=["stp", "cycles"])
        # seed an STP regression directly in the index (the stand-in for
        # a store re-simulated by a slower simulator version)
        digest = point_digest(cfg, MIX, LENGTH, 0, "first")
        with wh._lock, wh._conn:
            wh._conn.execute(
                "UPDATE results SET stp = stp * 0.5 WHERE digest = ?",
                (digest,))
        report = wbaseline.check(wh, path)
        assert not report.ok
        assert any(f.metric == "stp" for f in report.findings)
        # and the CLI surfaces it as exit code 1
        assert main(["baseline", "check", "--file", str(path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_point_is_finding(self, isolated_store, tmp_path):
        simulate_mix()
        store = get_store()
        wh = store.warehouse()
        path = tmp_path / "baseline.json"
        wbaseline.record(wh, path, metrics=["cycles"])
        store.gc(0)
        report = wbaseline.check(wh, path)
        assert not report.ok
        assert report.findings[0].kind == "missing"

    def test_improvement_never_fails(self, isolated_store, tmp_path):
        simulate_mix()
        wh = get_store().warehouse()
        path = tmp_path / "baseline.json"
        wbaseline.record(wh, path, metrics=["cycles"])
        digest = point_digest(base64_config(2), MIX, LENGTH, 0, "first")
        with wh._lock, wh._conn:
            wh._conn.execute(
                "UPDATE results SET cycles = cycles / 2 WHERE digest = ?",
                (digest,))
        report = wbaseline.check(wh, path)
        assert report.ok and report.improvements

    def test_bad_file_raises(self, isolated_store, tmp_path):
        wh = get_store().warehouse()
        missing = tmp_path / "nope.json"
        with pytest.raises(wbaseline.BaselineError):
            wbaseline.check(wh, missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(wbaseline.BaselineError):
            wbaseline.check(wh, bad)


class TestConcurrency:
    def test_parallel_campaign_indexes_every_point(self, isolated_store,
                                                   tmp_path):
        mixes = [("ilp.int8", "serial.alu"), ("branchy.easy",
                                              "gather.small")]
        cfg = base64_config(2)
        points = [CampaignPoint("Base", cfg, m, 200, seed=i)
                  for i, m in enumerate(mixes)]
        points += [CampaignPoint("Shelf", shelf_config(2), m, 200, seed=i)
                   for i, m in enumerate(mixes)]
        camp = Campaign(tmp_path / "par.jsonl", points, tag="par")
        camp.run(jobs=2)
        wh = open_warehouse(get_store())
        assert wh.row_count() == 4
        assert len(wh.campaign_digests("par")) == 4
        status = wh.campaign_status("par")[0]
        assert status["marked"] == 4 and status["indexed"] == 4
