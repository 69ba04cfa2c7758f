"""Process-pool fan-out for simulation points.

The evaluation grid is embarrassingly parallel — hundreds of independent
:meth:`Pipeline.run` invocations — so :func:`run_points` fans pending
points out over a spawn-safe :class:`~concurrent.futures.ProcessPoolExecutor`
and streams ``(index, result, elapsed)`` tuples back as points complete.
At ``jobs=1`` (the default) it degrades to a plain serial loop with no
pool, no pickling, and identical results.

Worker processes consult and populate the persistent
:mod:`~repro.harness.cache` store directly, so a point simulated by any
worker is a disk hit for every later process.

Job count resolution, in priority order: explicit ``jobs=`` argument,
:func:`set_default_jobs` (the CLI's ``--jobs``), ``$REPRO_JOBS``, then 1.
A non-positive count means "all cores".
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, \
    Tuple

from repro import envvars
from repro.core.config import CoreConfig
from repro.core.pipeline import Pipeline
from repro.core.stats import SimResult
from repro.harness.cache import get_store, point_digest
from repro.trace import generate

#: (config, benchmarks, length, seed, stop) — one simulation's inputs.
PointSpec = Tuple[CoreConfig, Tuple[str, ...], int, int, str]

# ----------------------------------------------------------------------
# per-process trace memo
# ----------------------------------------------------------------------

#: (name, length, seed) -> trace, LRU-bounded.  Traces are immutable
#: once generated (cursors live on ThreadContext), so one object safely
#: serves every point that names it.
_TRACE_MEMO: "OrderedDict[Tuple[str, int, int], object]" = OrderedDict()
_TRACE_MEMO_MAX = 64
_trace_memo_hits = 0
_trace_memo_misses = 0


def traces_for(benchmarks: Tuple[str, ...], length: int,
               seed: int) -> list:
    """The traces for one point, memoized per trace per process.

    A 50-config grid over one mix generates its traces once per worker
    instead of 50 times — which is why points sharing traces run in one
    task (:func:`run_points`, the service's locality batches).
    """
    global _trace_memo_hits, _trace_memo_misses
    out = []
    for i, bench in enumerate(benchmarks):
        key = (bench, length, seed + i)
        trace = _TRACE_MEMO.get(key)
        if trace is None:
            _trace_memo_misses += 1
            trace = generate(bench, length, seed + i)
            _TRACE_MEMO[key] = trace
            if len(_TRACE_MEMO) > _TRACE_MEMO_MAX:
                _TRACE_MEMO.popitem(last=False)
        else:
            _trace_memo_hits += 1
            _TRACE_MEMO.move_to_end(key)
        out.append(trace)
    return out


def clear_trace_memo() -> None:
    """Drop every memoized trace and zero the hit/miss counters
    (invoked by :func:`repro.harness.runner.clear_cache`)."""
    global _trace_memo_hits, _trace_memo_misses
    _TRACE_MEMO.clear()
    _trace_memo_hits = _trace_memo_misses = 0


def trace_memo_stats() -> Dict[str, int]:
    """Live memo counters: ``entries``, ``hits``, ``misses``."""
    return {"entries": len(_TRACE_MEMO), "hits": _trace_memo_hits,
            "misses": _trace_memo_misses}

_default_jobs: Optional[int] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default job count (the CLI's ``--jobs``)."""
    global _default_jobs
    _default_jobs = jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a job count: argument, CLI default, ``$REPRO_JOBS``, else 1."""
    if jobs is None:
        jobs = _default_jobs
    if jobs is None:
        env = (envvars.raw("REPRO_JOBS") or "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"bad REPRO_JOBS value {env!r}") from None
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Hard-kill a pool's worker processes.

    Used on interrupt/shutdown paths only: ``shutdown(cancel_futures=
    True)`` drops *pending* futures but still lets every in-flight point
    run to completion (and the executor's atexit hook joins the workers),
    which can stall exit for minutes.  Mid-simulation results are never
    checkpointed, so killing the workers loses nothing durable.
    """
    processes = getattr(pool, "_processes", None)
    for proc in list((processes or {}).values()):
        try:
            proc.terminate()
        except (OSError, ValueError):
            pass


@contextlib.contextmanager
def interrupt_on_sigterm():
    """Convert SIGTERM into :class:`KeyboardInterrupt` while active.

    A campaign killed by a supervisor (``kill``, CI job cancellation,
    container stop) then takes the same graceful path as Ctrl-C: pending
    futures are cancelled, completed points stay checkpointed, and the
    CLI exits nonzero.  A no-op off the main thread or where SIGTERM is
    unavailable; the previous handler is restored on exit.
    """
    if not hasattr(signal, "SIGTERM") or \
            threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class PointTimeout(Exception):
    """Raised inside a worker when a point exceeds its time budget."""


@contextlib.contextmanager
def _alarm(seconds: Optional[float]):
    """Run the body under a real-time interval timer (worker-side)."""
    if not seconds or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _timeout(signum, frame):
        raise PointTimeout

    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_wire_batch(wire_specs: List[dict]) -> List[dict]:
    """Simulate a batch of wire-format job specs (the shared body of
    the service pool's ``run_batch`` and the fleet worker's lease loop).

    Returns one outcome dict per spec, in order:

    * ``{"ok": True, "result": SimResult, "elapsed_s": float,
      "store_hit": bool}`` — simulated (or loaded from the persistent
      store) successfully;
    * ``{"ok": False, "error": {...}}`` — the point timed out or its
      spec failed validation; the rest of the batch still runs.

    Specs run one after another in this process, so points sharing
    traces — which the service batches together — are served by this
    worker's trace memo.  Each point is looked up in the store once.
    """
    # late import: repro.service imports this module at load time, so
    # the spec class must resolve lazily to keep the layering acyclic.
    from repro.service.jobs import JobSpec
    out: List[dict] = []
    for wire in wire_specs:
        timeout_s = wire.get("_timeout_s")
        t0 = time.time()
        try:
            spec = JobSpec.from_wire(wire)
            with _alarm(timeout_s):
                result, hit = _simulate(*spec.point())
        except PointTimeout:
            out.append({"ok": False, "error": {
                "type": "timeout",
                "message": f"point exceeded its {timeout_s}s budget"}})
        except ValueError as exc:
            out.append({"ok": False, "error": {
                "type": "bad-spec", "message": str(exc)}})
        else:
            out.append({"ok": True, "result": result,
                        "elapsed_s": time.time() - t0,
                        "store_hit": hit})
    return out


def simulate_point(config: CoreConfig, benchmarks: Tuple[str, ...],
                   length: int, seed: int, stop: str) -> SimResult:
    """Run one simulation point through the persistent store.

    Checks the content-addressed disk store first, simulates on miss, and
    persists the result so any other process sharing the store dir hits.
    """
    return _simulate(config, benchmarks, length, seed, stop)[0]


def _simulate(config: CoreConfig, benchmarks: Tuple[str, ...],
              length: int, seed: int, stop: str) -> Tuple[SimResult, bool]:
    """:func:`simulate_point`'s body; also says whether the store hit."""
    store = get_store()
    if store is not None:
        digest = point_digest(config, benchmarks, length, seed, stop)
        cached = store.get(digest)
        if cached is not None:
            return cached, True
    traces = traces_for(benchmarks, length, seed)
    result = Pipeline(config, traces).run(stop=stop)
    if store is not None:
        # the point tuple rides along so the store can write the meta
        # sidecar and the warehouse row with full config columns.
        store.put(digest, result,
                  point=(config, benchmarks, length, seed, stop))
    return result, False


def _worker(spec: PointSpec) -> Tuple[SimResult, float]:
    t0 = time.time()
    result = simulate_point(*spec)
    return result, time.time() - t0


# The e2e benchmark's tracer wraps this name, so it keeps it.
def _gang_worker(specs: Sequence[PointSpec]
                 ) -> List[Tuple[SimResult, float]]:
    """One pool task for points sharing traces: run them one after
    another so this worker's trace memo serves every one after the
    first; each point reports its own ``(result, elapsed_s)``.  It does
    not call :func:`_worker`, whose tracer span would nest in its own."""
    out = []
    for spec in specs:
        t0 = time.time()
        out.append((simulate_point(*spec), time.time() - t0))
    return out


def _trace_groups(specs: Sequence[PointSpec]) -> List[List[int]]:
    """Partition spec indices by trace signature.

    Specs sharing ``(benchmarks, length, seed, stop)`` — the same traces
    and stop condition, whatever their configs — group together in
    first-appearance order.
    """
    by_signature: "OrderedDict[tuple, List[int]]" = OrderedDict()
    for i, (config, benchmarks, length, seed, stop) in enumerate(specs):
        by_signature.setdefault(
            (benchmarks, length, seed, stop), []).append(i)
    return list(by_signature.values())


def run_points(specs: Iterable[PointSpec], jobs: Optional[int] = None
               ) -> Iterator[Tuple[int, SimResult, float]]:
    """Run every spec, yielding ``(index, result, elapsed_s)`` as each
    completes.

    With ``jobs > 1`` points run across a spawn-context process pool and
    arrive in completion order; with ``jobs = 1`` (or a single spec) they
    run serially in this process.  Either way every completed point is
    yielded exactly once, so callers can checkpoint incrementally.

    Points sharing traces run in one task: specs with the same trace
    signature go to one pool task (or run back to back when serial),
    so the worker's trace memo generates their traces once.  Yields may therefore leave spec order even at ``jobs = 1``.
    """
    specs = list(specs)
    jobs = min(resolve_jobs(jobs), max(len(specs), 1))
    groups = _trace_groups(specs)
    if jobs <= 1:
        for indices in groups:
            for i in indices:
                result, elapsed = _worker(specs[i])
                yield i, result, elapsed
        return
    # spawn, not fork: workers re-import the package, so they are safe
    # regardless of parent threads and identical across platforms.
    ctx = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)
    with interrupt_on_sigterm():
        try:
            futures = {pool.submit(_gang_worker,
                                   [specs[i] for i in indices]): indices
                       for indices in groups}
            for future in as_completed(futures):
                for i, (result, elapsed) in zip(futures[future],
                                                future.result()):
                    yield i, result, elapsed
        except BaseException:
            # KeyboardInterrupt / SIGTERM / a consumer abandoning the
            # generator: kill in-flight workers (before shutdown() —
            # which nulls the process table), drop everything not yet
            # running, and return without draining the whole grid.
            # Already-yielded (checkpointed) points are preserved.
            terminate_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)


def map_points(specs: Sequence[PointSpec], jobs: Optional[int] = None
               ) -> list:
    """Like :func:`run_points` but returns results in *spec* order."""
    out: list = [None] * len(specs)
    for i, result, _ in run_points(specs, jobs=jobs):
        out[i] = result
    return out
