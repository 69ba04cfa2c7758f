"""Shared fixtures: keep every test run off the developer's real store.

The session-wide fixture points the persistent result store at a
temporary directory before any test runs, so a test that forgets to
isolate itself (and every worker process it spawns, which inherits the
environment) never writes to ``~/.cache/repro-sim``.  It also drops
any inherited ``REPRO_WAREHOUSE_DB``: the warehouse index then lives
inside whichever store a test uses, which is always a temporary one.
(One index file for the whole session would leak rows between tests.)
"""

import pytest

from repro.harness import runner
from repro.harness.cache import reset_store


@pytest.fixture(scope="session", autouse=True)
def hermetic_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("repro-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(root / "store"))
        mp.delenv("REPRO_WAREHOUSE_DB", raising=False)
        reset_store()
        yield root
    reset_store()


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    """Point the persistent store at a fresh directory (workers inherit
    the env var) and reset both cache levels around the test."""
    store_dir = tmp_path / "store"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(store_dir))
    runner.clear_cache()
    yield store_dir
    runner.clear_cache()
