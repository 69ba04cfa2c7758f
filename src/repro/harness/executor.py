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
from repro.core.gang import GangEngine, gang_enabled, gang_size
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
#: serves every point that names it — which is also what lets gang
#: members share a single decoded-trace array set (keyed on object
#: identity in :mod:`repro.core.gang`).
_TRACE_MEMO: "OrderedDict[Tuple[str, int, int], object]" = OrderedDict()
_TRACE_MEMO_MAX = 64
_trace_memo_hits = 0
_trace_memo_misses = 0


def traces_for(benchmarks: Tuple[str, ...], length: int,
               seed: int) -> list:
    """The traces for one point, memoized per trace per process.

    A 50-config grid over one mix generates its traces once per worker
    instead of 50 times; repeated lookups also return the *same* trace
    objects, enabling decode sharing across gang members.
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

    With gang mode on (``REPRO_GANG``), store-missing points *without*
    a per-point timeout that share a trace signature simulate as one
    :class:`~repro.core.gang.GangEngine` unit (results bit-identical
    to solo, ``elapsed_s`` reported as the gang's share); a signature
    with a single such point has no gang-mates and runs solo.  Timed
    points stay on the solo path because the ``SIGALRM`` budget is per
    point and gang members interleave.
    """
    # late import: repro.service imports this module at load time, so
    # the spec class must resolve lazily to keep the layering acyclic.
    from repro.service.jobs import JobSpec
    store = get_store()
    out: List[Optional[dict]] = [None] * len(wire_specs)
    gang_ok = gang_enabled()
    gang_points: List[tuple] = []
    gang_indices: List[int] = []
    for idx, wire in enumerate(wire_specs):
        timeout_s = wire.get("_timeout_s")
        t0 = time.time()
        try:
            spec = JobSpec.from_wire(wire)
            hit = store.get(spec.digest()) if store is not None else None
            if hit is None and gang_ok and timeout_s is None:
                gang_points.append(spec.point())
                gang_indices.append(idx)
                continue
            with _alarm(timeout_s):
                result = hit if hit is not None \
                    else simulate_point(*spec.point())
        except PointTimeout:
            out[idx] = {"ok": False, "error": {
                "type": "timeout",
                "message": f"point exceeded its {timeout_s}s budget"}}
        except ValueError as exc:
            out[idx] = {"ok": False, "error": {
                "type": "bad-spec", "message": str(exc)}}
        else:
            out[idx] = {"ok": True, "result": result,
                        "elapsed_s": time.time() - t0,
                        "store_hit": hit is not None}
    for group in _gang_groups(gang_points):
        t0 = time.time()
        if len(group) == 1:
            results = [simulate_point(*gang_points[group[0]])]
        else:
            results = simulate_gang([gang_points[g] for g in group])
        share = (time.time() - t0) / len(group)
        for g, result in zip(group, results):
            out[gang_indices[g]] = {"ok": True, "result": result,
                                    "elapsed_s": share,
                                    "store_hit": False}
    return out  # type: ignore[return-value]


def simulate_point(config: CoreConfig, benchmarks: Tuple[str, ...],
                   length: int, seed: int, stop: str) -> SimResult:
    """Run one simulation point through the persistent store.

    Checks the content-addressed disk store first, simulates on miss, and
    persists the result so any other process sharing the store dir hits.
    """
    store = get_store()
    if store is not None:
        digest = point_digest(config, benchmarks, length, seed, stop)
        cached = store.get(digest)
        if cached is not None:
            return cached
    traces = traces_for(benchmarks, length, seed)
    result = Pipeline(config, traces).run(stop=stop)
    if store is not None:
        # the point tuple rides along so the store can write the meta
        # sidecar and the warehouse row with full config columns.
        store.put(digest, result,
                  point=(config, benchmarks, length, seed, stop))
    return result


def simulate_gang(specs: Sequence[PointSpec]) -> List[SimResult]:
    """Run gang-compatible specs — identical ``(benchmarks, length,
    seed, stop)``, any configs — as one gang through the store.

    Per-spec store hits are honoured individually; the misses become
    members of one :class:`~repro.core.gang.GangEngine` sharing decoded
    traces, and every result is persisted exactly as
    :func:`simulate_point` would.  If the gang raises (e.g. one member
    deadlocks), the misses are re-run solo so the failure is raised by
    — and attributed to — the offending spec alone.
    """
    specs = list(specs)
    store = get_store()
    results: List[Optional[SimResult]] = [None] * len(specs)
    digests: List[Optional[str]] = [None] * len(specs)
    pending = []
    for i, (config, benchmarks, length, seed, stop) in enumerate(specs):
        if store is not None:
            digests[i] = point_digest(config, benchmarks, length, seed,
                                      stop)
            cached = store.get(digests[i])
            if cached is not None:
                results[i] = cached
                continue
        pending.append(i)
    if not pending:
        return results  # type: ignore[return-value]
    try:
        members = []
        for i in pending:
            config, benchmarks, length, seed, stop = specs[i]
            members.append(
                Pipeline(config, traces_for(benchmarks, length, seed)))
        gang_results = GangEngine(
            members, stop=specs[pending[0]][4]).run()
    except Exception:  # repro-lint: waive=DET104
        # Audited: nothing is swallowed — the solo replay below re-runs
        # every miss, so the failing member re-raises its exact
        # exception with solo attribution, and its healthy gang-mates
        # still produce (bit-identical) results.
        for i in pending:
            results[i] = simulate_point(*specs[i])
        return results  # type: ignore[return-value]
    for i, result in zip(pending, gang_results):
        results[i] = result
        if store is not None:
            store.put(digests[i], result, point=specs[i])
    return results  # type: ignore[return-value]


def _worker(spec: PointSpec) -> Tuple[SimResult, float]:
    t0 = time.time()
    result = simulate_point(*spec)
    return result, time.time() - t0


def _gang_worker(specs: Sequence[PointSpec]
                 ) -> Tuple[List[SimResult], float]:
    t0 = time.time()
    results = simulate_gang(specs)
    return results, time.time() - t0


def _gang_groups(specs: Sequence[PointSpec]) -> List[List[int]]:
    """Partition spec indices into gang-compatible chunks.

    Specs sharing ``(benchmarks, length, seed, stop)`` — i.e. the same
    traces and stop condition, whatever their configs — group together
    in first-appearance order, chunked at :func:`gang_size` members.
    Unique signatures come out as singletons and take the plain solo
    paths.
    """
    by_signature: "OrderedDict[tuple, List[int]]" = OrderedDict()
    for i, (config, benchmarks, length, seed, stop) in enumerate(specs):
        by_signature.setdefault(
            (benchmarks, length, seed, stop), []).append(i)
    size = gang_size()
    groups: List[List[int]] = []
    for indices in by_signature.values():
        for k in range(0, len(indices), size):
            groups.append(indices[k:k + size])
    return groups


def run_points(specs: Iterable[PointSpec], jobs: Optional[int] = None
               ) -> Iterator[Tuple[int, SimResult, float]]:
    """Run every spec, yielding ``(index, result, elapsed_s)`` as each
    completes.

    With ``jobs > 1`` points run across a spawn-context process pool and
    arrive in completion order; with ``jobs = 1`` (or a single spec) they
    run serially in this process.  Either way every completed point is
    yielded exactly once, so callers can checkpoint incrementally.

    When gang mode is on (``REPRO_GANG``, default) specs sharing a trace
    signature run as one :class:`~repro.core.gang.GangEngine` unit —
    one pool task (or one serial step) per gang, results bit-identical
    to solo, per-spec elapsed reported as the gang's share — so yields
    may leave spec order even at ``jobs = 1``.
    """
    specs = list(specs)
    jobs = min(resolve_jobs(jobs), max(len(specs), 1))
    if gang_enabled() and len(specs) > 1:
        groups = _gang_groups(specs)
    else:
        groups = [[i] for i in range(len(specs))]
    if jobs <= 1:
        for indices in groups:
            if len(indices) == 1:
                result, elapsed = _worker(specs[indices[0]])
                yield indices[0], result, elapsed
            else:
                results, elapsed = _gang_worker(
                    [specs[i] for i in indices])
                share = elapsed / len(indices)
                for i, result in zip(indices, results):
                    yield i, result, share
        return
    # spawn, not fork: workers re-import the package, so they are safe
    # regardless of parent threads and identical across platforms.
    ctx = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)
    with interrupt_on_sigterm():
        try:
            futures = {}
            for indices in groups:
                if len(indices) == 1:
                    future = pool.submit(_worker, specs[indices[0]])
                else:
                    future = pool.submit(
                        _gang_worker, [specs[i] for i in indices])
                futures[future] = indices
            for future in as_completed(futures):
                indices = futures[future]
                if len(indices) == 1:
                    result, elapsed = future.result()
                    yield indices[0], result, elapsed
                    continue
                results, elapsed = future.result()
                share = elapsed / len(indices)
                for i, result in zip(indices, results):
                    yield i, result, share
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
