"""Span recording for the benchmark's traced rep.

``hook/sitecustomize.py`` loads this module at interpreter start in
every process of a traced rep (the campaign process, the ``repro
serve`` subprocess and every spawned pool worker) when ``BENCH_TRACE_DIR`` is
set.  :func:`install` registers an import hook that, as each listed
``repro`` module finishes loading, replaces the public functions named
in :func:`patch_table` with timing wrappers.  A name is patched where
its caller looks it up (``repro.harness.executor.generate``, not
``repro.trace.generate``), and every wrapper keeps the original's
``__module__`` and ``__qualname__`` through :func:`functools.wraps`, so
pool tasks still pickle by reference.  Nothing under ``src/`` changes.

Each span records its name, start, end and parent; spans stay in
memory and are appended to ``<dir>/spans-<pid>.jsonl`` whenever a
thread's outermost span closes, because pool workers are terminated
rather than exited and never run ``atexit`` hooks.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional


class Recorder:
    """Per-process span store; thread-safe, one span stack per thread."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._done: List[dict] = []
        self._fd: Optional[int] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        """Start a span; returns the frame to pass to :meth:`close`."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [next(self._ids), parent, name, time.monotonic()]
        stack.append(frame)
        return frame

    def close(self, frame: list, attrs: Optional[dict] = None) -> None:
        end = time.monotonic()
        stack = self._stack()
        stack.remove(frame)
        span = {"id": frame[0], "parent": frame[1], "name": frame[2],
                "start": frame[3], "end": end}
        if attrs:
            span["attrs"] = attrs
        with self._lock:
            self._done.append(span)
        if not stack:
            self.flush()

    def flush(self) -> None:
        """Append every finished span to this process's span file."""
        with self._lock:
            if not self._done:
                return
            pid = os.getpid()
            data = "".join(json.dumps({**span, "pid": pid}) + "\n"
                           for span in self._done)
            self._done.clear()
            if self._fd is None:
                path = os.path.join(self.directory, f"spans-{pid}.jsonl")
                self._fd = os.open(path,
                                   os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                                   0o644)
            os.write(self._fd, data.encode())


Attrs = Callable[[tuple, object], dict]


def wrap(rec: Recorder, fn: Callable, name: str,
         attrs: Optional[Attrs] = None) -> Callable:
    """*fn* inside a span; ``attrs(args, result)`` adds counts to it
    (``result`` is ``None`` when *fn* raised)."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = rec.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.close(frame, attrs(args, result) if attrs else None)
    return traced


def wrap_generator(rec: Recorder, fn: Callable, name: str) -> Callable:
    """A generator function whose every ``next()`` runs inside a span,
    so the consumer's work between items is not charged to *fn*."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                frame = rec.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.close(frame)
                yield item
        finally:
            inner.close()
    return traced


def _core_counts(pipes, results) -> dict:
    """Simulated counts read off finished pipelines (``results`` is the
    list of their :class:`SimResult`, or ``None`` after a failure)."""
    return {"points": len(pipes),
            "retired": sum(r.total_retired for r in results or ()),
            "cycles": sum(p.cycle for p in pipes),
            "skipped": sum(p.ff_skipped_cycles for p in pipes),
            "jumps": sum(p.ff_jumps for p in pipes)}


def patch_table(rec: Recorder) -> Dict[str, Callable[[object], None]]:
    """Module name -> function that patches that module once loaded."""

    def patch(owner, attr: str, name: str,
              attrs: Optional[Attrs] = None) -> None:
        setattr(owner, attr, wrap(rec, getattr(owner, attr), name, attrs))

    def executor(mod) -> None:
        patch(mod, "generate", "trace.generate")
        patch(mod, "traces_for", "executor.traces_for",
              lambda a, r: {"requested": len(a[0])})
        patch(mod, "_worker", "executor.task", lambda a, r: {"points": 1})
        patch(mod, "_gang_worker", "executor.task",
              lambda a, r: {"points": len(a[0])})
        base = mod.ProcessPoolExecutor
        mod.ProcessPoolExecutor = type(base.__name__, (base,), {
            "submit": wrap(rec, base.submit, "queue.submit")})

    def campaign(mod) -> None:
        mod.run_points = wrap_generator(rec, mod.run_points,
                                        "executor.run_points")
        patch(mod.Campaign, "run", "campaign.run")

    def cache(mod) -> None:
        patch(mod.ResultStore, "get", "store.get",
              lambda a, r: {"hit": r is not None})
        patch(mod.ResultStore, "put", "store.put")

    def warehouse(mod) -> None:
        patch(mod.Warehouse, "ingest", "warehouse.ingest")
        patch(mod.Warehouse, "campaign_mark", "warehouse.campaign_mark")

    def pipeline(mod) -> None:
        patch(mod.Pipeline, "__init__", "core.build")
        patch(mod.Pipeline, "run", "core.run",
              lambda a, r: _core_counts([a[0]], [r] if r else None))

    def gang(mod) -> None:
        patch(mod.GangEngine, "run", "core.gang_run",
              lambda a, r: _core_counts(a[0].members, r))

    def client(mod) -> None:
        for attr in ("submit", "status", "result"):
            patch(mod.ServiceClient, attr, "client.request")

    def jobs(mod) -> None:
        patch(mod.JobQueue, "submit", "queue.submit")
        patch(mod.JobQueue, "take_batch", "queue.take_batch",
              lambda a, r: {"waits": [time.monotonic() - j.submitted_at
                                      for j in r or ()]})

    def scheduler(mod) -> None:
        patch(mod, "run_batch", "scheduler.run_batch",
              lambda a, r: {"points": len(a[0])})

    return {"repro.harness.executor": executor,
            "repro.harness.campaign": campaign,
            "repro.harness.cache": cache,
            "repro.warehouse.index": warehouse,
            "repro.core.pipeline": pipeline,
            "repro.core.gang": gang,
            "repro.service.client": client,
            "repro.service.jobs": jobs,
            "repro.service.scheduler": scheduler}


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Runs a module's patch right after the module body executes."""

    def __init__(self, patches: Dict[str, Callable[[object], None]]):
        self.patches = patches

    def find_spec(self, name, path, target=None):
        patch = self.patches.get(name)
        if patch is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(directory: str) -> Recorder:
    """Start recording spans of this process into *directory*; call it
    before any listed module is imported (``sitecustomize`` does)."""
    rec = Recorder(directory)
    sys.meta_path.insert(0, _PatchOnImport(patch_table(rec)))
    atexit.register(rec.flush)
    return rec
