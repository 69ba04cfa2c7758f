"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``run``          simulate a benchmark mix on a named configuration;
* ``experiments``  regenerate paper figures/tables;
* ``benchmarks``   list the synthetic benchmark roster;
* ``trace``        generate a benchmark trace and save it to a file;
* ``profile``      cProfile a simulation and print the hottest functions;
* ``lint``         run the determinism lint over the codebase;
* ``check``        lint + the slot/lane/async/digest contract passes;
* ``cache``        inspect / garbage-collect the persistent result store;
* ``serve``        run the simulation service (queue + worker fleet);
* ``worker``       join a fleet coordinator as a worker node;
* ``submit``       submit a simulation to a running service;
* ``query``        filter/project/aggregate the result warehouse;
* ``diff``         compare two campaigns point by point;
* ``baseline``     record / check a metric-regression baseline;
* ``warehouse``    rebuild or inspect the warehouse index itself.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import CoreConfig
from repro.core.pipeline import Pipeline
from repro.energy import area_report, edp, energy_report
from repro.harness.configs import (base64_config, base128_config,
                                   shelf_config)
from repro.trace import BENCHMARK_NAMES, benchmark_spec, generate


def _build_config(args) -> CoreConfig:
    threads = args.threads
    if args.config == "base64":
        cfg = base64_config(threads)
    elif args.config == "base128":
        cfg = base128_config(threads)
    else:
        cfg = shelf_config(threads, steering=args.steering,
                           optimistic=args.optimistic)
    if args.memory_model != "relaxed":
        from dataclasses import replace
        cfg = replace(cfg, memory_model=args.memory_model)
    return cfg


def _cmd_run(args) -> int:
    benches = args.benchmarks.split(",")
    if len(benches) != args.threads:
        print(f"error: {args.threads} thread(s) need {args.threads} "
              f"benchmark(s), got {len(benches)}", file=sys.stderr)
        return 2
    for b in benches:
        if b not in BENCHMARK_NAMES:
            print(f"error: unknown benchmark {b!r} "
                  f"(try: python -m repro benchmarks)", file=sys.stderr)
            return 2
    cfg = _build_config(args)
    traces = [generate(b, args.length, seed=args.seed + i)
              for i, b in enumerate(benches)]
    pipe = Pipeline(cfg, traces, record_schedule=args.pipetrace)
    res = pipe.run(stop="all" if args.threads == 1 else "first")
    print(res.summary())
    if args.energy:
        rep = energy_report(cfg, res)
        print()
        print(rep.summary())
        print(f"EDP {edp(rep):.3e} J*s")
    if args.pipetrace:
        from repro.analysis import format_pipetrace
        print()
        print(format_pipetrace(pipe, max_instructions=args.pipetrace))
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.harness import (cache_stats, get_scale, resolve_jobs,
                               set_default_jobs)
    scale = get_scale(args.scale)
    set_default_jobs(args.jobs)
    wanted = args.ids or list(ALL_EXPERIMENTS)
    unknown = [w for w in wanted if w not in ALL_EXPERIMENTS]
    if unknown:
        print(f"error: unknown experiment(s) {', '.join(unknown)}; "
              f"choose from {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    print(f"scale: {scale}, jobs: {resolve_jobs()}\n")
    for key in wanted:
        print(ALL_EXPERIMENTS[key].run(scale).format())
        print()
    stats = cache_stats()
    print("cache: " + ", ".join(f"{k}={v}" for k, v in stats.items()))
    return 0


def _cmd_benchmarks(args) -> int:
    by_family: dict = {}
    for name in BENCHMARK_NAMES:
        spec = benchmark_spec(name)
        by_family.setdefault(spec.family, []).append(spec)
    for family, specs in by_family.items():
        print(f"{family}:")
        for spec in specs:
            foot = (f"{spec.footprint // 1024}KB data"
                    if spec.footprint else "register-resident")
            print(f"  {spec.name:<14} {spec.description} ({foot})")
    return 0


def _cmd_litmus(args) -> int:
    from repro.analysis import run_litmus
    print(run_litmus().format())
    return 0


def _cmd_lint(args) -> int:
    from repro.lint import main as lint_main
    forwarded = [str(p) for p in args.paths]
    if args.list_rules:
        forwarded.append("--list-rules")
    return lint_main(forwarded)


def _cmd_check(args) -> int:
    from repro.lint import check_main
    forwarded = [str(p) for p in args.paths]
    forwarded += ["--output", args.output]
    if args.output_file:
        forwarded += ["--output-file", str(args.output_file)]
    if args.baseline:
        forwarded += ["--baseline", str(args.baseline)]
    if args.no_baseline:
        forwarded.append("--no-baseline")
    if args.write_baseline:
        forwarded.append("--write-baseline")
    if args.explain:
        forwarded += ["--explain", args.explain]
    if args.list_rules:
        forwarded.append("--list-rules")
    return check_main(forwarded)


def _parse_size(text: str) -> int:
    """``"500M"`` / ``"2G"`` / ``"123456"`` -> bytes."""
    text = text.strip()
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    factor = units.get(text[-1:].upper(), 1)
    digits = text[:-1] if factor != 1 else text
    try:
        return int(digits) * factor
    except ValueError:
        raise ValueError(f"bad size {text!r} (expected e.g. 500M)") from None


def _cmd_cache(args) -> int:
    from repro.harness.cache import get_store, simulator_salt
    store = get_store()
    if store is None:
        print("persistent result store is disabled "
              "(REPRO_CACHE_DIR=off)", file=sys.stderr)
        return 1
    if args.cache_cmd == "gc":
        try:
            max_bytes = _parse_size(args.max_bytes)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        gc = store.gc(max_bytes)
        print(f"evicted {gc.removed} entr{'y' if gc.removed == 1 else 'ies'}"
              f", freed {gc.freed_bytes} bytes")
    disk = store.disk_stats()
    print(f"store:   {store.directory}")
    print(f"salt:    {simulator_salt()}")
    print(f"entries: {disk['entries']}")
    print(f"bytes:   {disk['bytes']}")
    if disk["index_present"]:
        print(f"index:   {disk['index_rows']} row(s), "
              f"{disk['index_bytes']} bytes")
    else:
        print("index:   absent (run `repro warehouse rebuild`)")
    return 0


def _open_warehouse_cli():
    """The (store, warehouse) pair for warehouse subcommands, or
    ``(None, None)`` after printing why (store or warehouse disabled)."""
    from repro.harness.cache import get_store
    store = get_store()
    if store is None:
        print("persistent result store is disabled "
              "(REPRO_CACHE_DIR=off)", file=sys.stderr)
        return None, None
    wh = store.warehouse()
    if wh is None:
        print("warehouse is disabled (REPRO_WAREHOUSE_DB=off) or "
              "unwritable", file=sys.stderr)
        return None, None
    return store, wh


def _refresh_derived_quietly(wh) -> None:
    """Fill in any STP/ANTT that became computable since the last write
    (live ingest defers them); reading commands call this so freshly
    simulated sweeps query correctly without an explicit rebuild."""
    from repro.warehouse import WAREHOUSE_ERRORS
    try:
        wh.refresh_derived()
    except WAREHOUSE_ERRORS:
        pass  # read-only index: query what is there


def _cmd_query(args) -> int:
    from repro.warehouse import (QUERYABLE_COLUMNS, QueryError,
                                 aggregate_rows, format_rows, select_rows)
    if args.list_columns:
        width = max(len(c) for c in QUERYABLE_COLUMNS)
        for name, doc in QUERYABLE_COLUMNS.items():
            print(f"{name:<{width}}  {doc}")
        return 0
    store, wh = _open_warehouse_cli()
    if wh is None:
        return 1
    if args.rebuild:
        print(f"reindexed {wh.rebuild(store)} result(s)", file=sys.stderr)
    _refresh_derived_quietly(wh)
    select = args.select.split(",") if args.select else None
    try:
        if args.group_by or args.agg:
            headers, rows = aggregate_rows(
                wh, group_by=args.group_by.split(",") if args.group_by
                else [], aggs=args.agg or [], where=args.where,
                sort=args.sort, limit=args.limit, campaign=args.campaign)
        else:
            headers, rows = select_rows(
                wh, where=args.where, select=select, sort=args.sort,
                limit=args.limit, campaign=args.campaign)
        print(format_rows(headers, rows, args.format))
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_diff(args) -> int:
    from repro.warehouse import QueryError, diff_campaigns, format_diff
    store, wh = _open_warehouse_cli()
    if wh is None:
        return 1
    _refresh_derived_quietly(wh)
    from repro.warehouse.diff import DEFAULT_METRICS
    try:
        diff = diff_campaigns(wh, args.campaign_a, args.campaign_b,
                              metrics=args.metric or list(DEFAULT_METRICS),
                              tolerance=args.tolerance)
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_diff(diff, args.format, all_points=args.all))
    return 1 if diff.regressions else 0


def _cmd_baseline(args) -> int:
    from repro.warehouse import baseline as _baseline
    from repro.warehouse import QueryError
    store, wh = _open_warehouse_cli()
    if wh is None:
        return 1
    _refresh_derived_quietly(wh)
    try:
        if args.baseline_cmd == "record":
            count = _baseline.record(
                wh, args.file, metrics=args.metric or
                _baseline.DEFAULT_METRICS, where=args.where,
                campaign=args.campaign, tolerance=args.tolerance)
            print(f"recorded {count} point(s) to {args.file}")
            return 0
        report = _baseline.check(wh, args.file, tolerance=args.tolerance,
                                 where=args.where, campaign=args.campaign)
    except _baseline.BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_baseline.format_report(report, args.format))
    return 0 if report.ok else 1


def _cmd_warehouse(args) -> int:
    store, wh = _open_warehouse_cli()
    if wh is None:
        return 1
    if args.warehouse_cmd == "rebuild":
        count = wh.rebuild(store)
        print(f"reindexed {count} result(s) into {wh.path}")
        return 0
    # status
    _refresh_derived_quietly(wh)
    print(f"index:     {wh.path}")
    print(f"rows:      {wh.row_count()}")
    print(f"bytes:     {wh.size_bytes()}")
    for status in wh.campaign_status():
        total = status["total"] if status["total"] is not None else "?"
        print(f"campaign:  {status['name']} {status['marked']}/{total} "
              f"point(s)")
    return 0


def _cmd_serve(args) -> int:
    from repro.service.server import serve
    return serve(host=args.host, port=args.port, workers=args.workers,
                 batch_size=args.batch_size, max_inflight=args.max_inflight,
                 max_retries=args.retries,
                 retry_backoff_s=args.retry_backoff,
                 default_timeout_s=args.timeout,
                 max_queue_depth=args.max_queue_depth,
                 drain_timeout_s=args.drain_timeout,
                 fleet=args.fleet, dashboard=args.dashboard)


def _cmd_worker(args) -> int:
    from repro.fleet.worker import worker_main
    return worker_main(args.connect, name=args.name, jobs=args.jobs,
                       max_points=args.max_points,
                       idle_exit_s=args.idle_exit)


def _cmd_submit(args) -> int:
    import json as _json

    from repro.service.client import JobFailed, ServiceClient, ServiceError
    benches = args.benchmarks.split(",")
    cfg = _build_config(args)
    payload = {"config": args.config, "threads": args.threads,
               "steering": args.steering, "optimistic": args.optimistic,
               "memory_model": cfg.memory_model,
               "benchmarks": benches, "length": args.length,
               "seed": args.seed, "stop": args.stop}
    client = ServiceClient(args.url)
    try:
        status = client.submit(payload, priority=args.priority,
                               timeout_s=args.timeout)
        job_id = status["job_id"]
        if args.no_wait:
            print(job_id)
            return 0
        client.wait(job_id, timeout_s=args.wait_timeout)
        doc = client.result(job_id)
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ServiceError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = doc["record"]
    if args.json:
        print(_json.dumps(doc, indent=2))
    else:
        threads = " ".join(
            f"t{i}:{t['benchmark']}={t['cpi']:.3f}"
            for i, t in enumerate(record["threads"]))
        print(f"{job_id} done ({'cached' if doc['cached'] else 'simulated'})"
              f": {record['cycles']} cycles, IPC {record['ipc']:.3f}, "
              f"CPI {threads}")
    return 0


def _cmd_profile(args) -> int:
    import cProfile
    import pstats

    benches = args.benchmarks.split(",")
    if len(benches) != args.threads:
        print(f"error: {args.threads} thread(s) need {args.threads} "
              f"benchmark(s), got {len(benches)}", file=sys.stderr)
        return 2
    for b in benches:
        if b not in BENCHMARK_NAMES:
            print(f"error: unknown benchmark {b!r} "
                  f"(try: python -m repro benchmarks)", file=sys.stderr)
            return 2
    cfg = _build_config(args)
    traces = [generate(b, args.length, seed=args.seed + i)
              for i, b in enumerate(benches)]
    stop = "all" if args.threads == 1 else "first"
    mode_kwargs = {
        "lanes": {"lanes": True},
        "object": {"lanes": False, "fastforward": True},
        "reference": {"lanes": False, "fastforward": False},
    }[args.mode]
    pipe = Pipeline(cfg, traces, **mode_kwargs)
    profiler = cProfile.Profile()
    profiler.enable()
    res = pipe.run(stop=stop)
    profiler.disable()
    print(res.summary())
    print(f"\nmode: {args.mode}, sorted by {args.sort}, "
          f"top {args.limit}:\n")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    if args.output:
        profiler.dump_stats(args.output)
        print(f"raw profile written to {args.output} "
              f"(inspect with python -m pstats)")
    return 0


def _cmd_trace(args) -> int:
    from repro.trace.serialize import save_trace
    if args.benchmark not in BENCHMARK_NAMES:
        print(f"error: unknown benchmark {args.benchmark!r}",
              file=sys.stderr)
        return 2
    trace = generate(args.benchmark, args.length, seed=args.seed)
    save_trace(trace, args.output)
    print(f"wrote {len(trace)} instructions to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shelf/IQ hybrid SMT core simulator "
                    "(ISCA 2016 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a benchmark mix")
    run.add_argument("benchmarks",
                     help="comma-separated benchmark names, one per thread")
    run.add_argument("--config", choices=["base64", "shelf64", "base128"],
                     default="shelf64")
    run.add_argument("--threads", type=int, default=4)
    run.add_argument("--length", type=int, default=4000,
                     help="instructions per thread")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--steering", default="practical",
                     choices=["practical", "oracle", "shelf-only"])
    run.add_argument("--optimistic", action="store_true",
                     help="allow same-cycle shelf issue")
    run.add_argument("--memory-model", choices=["relaxed", "tso"],
                     default="relaxed")
    run.add_argument("--energy", action="store_true",
                     help="print the energy/power report")
    run.add_argument("--pipetrace", type=int, metavar="N", default=0,
                     help="render a pipe trace of the first N instructions")
    run.set_defaults(func=_cmd_run)

    exp = sub.add_parser("experiments",
                         help="regenerate paper figures/tables")
    exp.add_argument("ids", nargs="*",
                     help="experiment ids (default: all)")
    exp.add_argument("--scale", choices=["smoke", "default", "full"],
                     default=None)
    exp.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="worker processes for simulation fan-out "
                          "(default: $REPRO_JOBS, else serial; "
                          "0 = all cores)")
    exp.set_defaults(func=_cmd_experiments)

    lst = sub.add_parser("benchmarks", help="list the benchmark roster")
    lst.set_defaults(func=_cmd_benchmarks)

    lit = sub.add_parser("litmus",
                         help="measure fundamental pipeline latencies")
    lit.set_defaults(func=_cmd_litmus)

    lint = sub.add_parser("lint",
                          help="determinism lint over the codebase")
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: src tests)")
    lint.add_argument("--list-rules", action="store_true",
                      help="describe every rule and exit")
    lint.set_defaults(func=_cmd_lint)

    check = sub.add_parser("check",
                           help="lint + slot/lane/async/digest contract "
                                "analysis")
    check.add_argument("paths", nargs="*",
                       help="files or directories (default: src tests)")
    check.add_argument("--output", choices=["text", "json", "sarif"],
                       default="text", help="report format")
    check.add_argument("--output-file", default=None, metavar="FILE",
                       help="write the report here (text summary still "
                            "goes to stdout)")
    check.add_argument("--baseline", default=None, metavar="FILE",
                       help="baseline of grandfathered findings "
                            "(default: .repro-check-baseline.json)")
    check.add_argument("--no-baseline", action="store_true",
                       help="report baselined findings too")
    check.add_argument("--write-baseline", action="store_true",
                       help="write current findings to the baseline")
    check.add_argument("--explain", metavar="CODE", default=None,
                       help="print the rationale for one rule and exit")
    check.add_argument("--list-rules", action="store_true",
                       help="describe every rule and exit")
    check.set_defaults(func=_cmd_check)

    prof = sub.add_parser("profile",
                          help="cProfile a simulation and print the "
                               "hottest functions")
    prof.add_argument("benchmarks",
                      help="comma-separated benchmark names, one per thread")
    prof.add_argument("--config", choices=["base64", "shelf64", "base128"],
                      default="shelf64")
    prof.add_argument("--threads", type=int, default=4)
    prof.add_argument("--length", type=int, default=4000,
                      help="instructions per thread")
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--steering", default="practical",
                      choices=["practical", "oracle", "shelf-only"])
    prof.add_argument("--optimistic", action="store_true")
    prof.add_argument("--memory-model", choices=["relaxed", "tso"],
                      default="relaxed")
    prof.add_argument("--mode",
                      choices=["lanes", "object", "reference"],
                      default="lanes",
                      help="which cycle loop to profile (default: lanes)")
    prof.add_argument("--sort", default="cumulative",
                      choices=["cumulative", "tottime", "ncalls",
                               "pcalls", "filename", "line", "name",
                               "nfl", "stdname", "time", "calls"],
                      help="pstats sort key (default: cumulative)")
    prof.add_argument("--limit", type=int, default=25, metavar="N",
                      help="number of entries to print (default: 25)")
    prof.add_argument("--output", metavar="FILE", default=None,
                      help="also dump the raw profile for pstats")
    prof.set_defaults(func=_cmd_profile)

    tr = sub.add_parser("trace", help="generate and save a trace")
    tr.add_argument("benchmark")
    tr.add_argument("output")
    tr.add_argument("--length", type=int, default=10000)
    tr.add_argument("--seed", type=int, default=0)
    tr.set_defaults(func=_cmd_trace)

    cache = sub.add_parser("cache",
                           help="inspect the persistent result store")
    cache_sub = cache.add_subparsers(dest="cache_cmd", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="print store location, entry count, and size")
    cache_stats.set_defaults(func=_cmd_cache)
    cache_gc = cache_sub.add_parser(
        "gc", help="evict oldest entries down to a size budget")
    cache_gc.add_argument("--max-bytes", required=True, metavar="SIZE",
                          help="target store size (e.g. 500M, 2G, 1048576)")
    cache_gc.set_defaults(func=_cmd_cache)

    srv = sub.add_parser("serve",
                         help="run the simulation service "
                              "(queue + batching worker fleet)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8642,
                     help="listen port (0 = ephemeral)")
    srv.add_argument("--workers", type=int, default=1, metavar="N",
                     help="worker processes (0 = all cores)")
    srv.add_argument("--batch-size", type=int, default=4, metavar="N",
                     help="max points coalesced into one worker task")
    srv.add_argument("--max-inflight", type=int, default=None, metavar="N",
                     help="bounded in-flight batch window "
                          "(default: 2x workers)")
    srv.add_argument("--retries", type=int, default=2, metavar="N",
                     help="retry budget per job after worker crashes")
    srv.add_argument("--retry-backoff", type=float, default=0.25,
                     metavar="S", help="initial retry backoff (doubles)")
    srv.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="default per-job timeout (none if unset)")
    srv.add_argument("--max-queue-depth", type=int, default=1024,
                     metavar="N", help="submissions beyond this get 429")
    srv.add_argument("--drain-timeout", type=float, default=30.0,
                     metavar="S",
                     help="max seconds to drain on SIGTERM/SIGINT")
    srv.add_argument("--fleet", action="store_true",
                     help="run as a fleet coordinator: jobs are leased "
                          "to registered worker nodes (repro worker) "
                          "instead of a local process pool")
    srv.add_argument("--dashboard", action="store_true",
                     help="serve the browser dashboard at /dashboard")
    srv.set_defaults(func=_cmd_serve)

    wk = sub.add_parser("worker",
                        help="join a fleet coordinator as a worker node")
    wk.add_argument("--connect", required=True, metavar="HOST:PORT",
                    help="coordinator address (repro serve --fleet)")
    wk.add_argument("--name", default=None,
                    help="node label (default: $REPRO_FLEET_NODE or "
                         "host-pid)")
    wk.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="local simulation slots reported to the "
                         "coordinator")
    wk.add_argument("--max-points", type=int, default=4, metavar="N",
                    help="max points requested per lease")
    wk.add_argument("--idle-exit", type=float, default=None, metavar="S",
                    help="exit after this long with no work (default: "
                         "serve forever)")
    wk.set_defaults(func=_cmd_worker)

    sb = sub.add_parser("submit",
                        help="submit a simulation to a running service")
    sb.add_argument("benchmarks",
                    help="comma-separated benchmark names, one per thread")
    sb.add_argument("--url", default="http://127.0.0.1:8642")
    sb.add_argument("--config", choices=["base64", "shelf64", "base128"],
                    default="shelf64")
    sb.add_argument("--threads", type=int, default=4)
    sb.add_argument("--length", type=int, default=4000)
    sb.add_argument("--seed", type=int, default=0)
    sb.add_argument("--steering", default="practical",
                    choices=["practical", "oracle", "shelf-only"])
    sb.add_argument("--optimistic", action="store_true")
    sb.add_argument("--memory-model", choices=["relaxed", "tso"],
                    default="relaxed")
    sb.add_argument("--stop", choices=["first", "all"], default="first")
    sb.add_argument("--priority", type=int, default=0,
                    help="lower runs first; FIFO within a priority")
    sb.add_argument("--timeout", type=float, default=None, metavar="S",
                    help="per-job simulation timeout")
    sb.add_argument("--wait-timeout", type=float, default=None, metavar="S",
                    help="max seconds to wait for completion")
    sb.add_argument("--no-wait", action="store_true",
                    help="print the job id and exit without waiting")
    sb.add_argument("--json", action="store_true",
                    help="print the full result document as JSON")
    sb.set_defaults(func=_cmd_submit)

    qr = sub.add_parser("query",
                        help="filter/project/aggregate the result "
                             "warehouse")
    qr.add_argument("--where", action="append", default=[],
                    metavar="COL OP VAL",
                    help="row filter, e.g. 'cycles>1000', 'mix~ilp', "
                         "'campaign=sweep1' (repeatable, ANDed)")
    qr.add_argument("--select", default=None, metavar="COL,COL,...",
                    help="columns to project (default: the summary set)")
    qr.add_argument("--sort", default=None, metavar="COL[:desc]",
                    help="sort column (default: point identity)")
    qr.add_argument("--limit", type=int, default=None, metavar="N")
    qr.add_argument("--group-by", default=None, metavar="COL,COL,...",
                    help="aggregate instead of listing rows")
    qr.add_argument("--agg", action="append", default=[],
                    metavar="FN:COL",
                    help="aggregate function, e.g. mean:stp, geomean:ipc, "
                         "count (repeatable)")
    qr.add_argument("--campaign", default=None, metavar="TAG",
                    help="restrict to one campaign's points")
    qr.add_argument("--format", choices=["text", "json", "csv"],
                    default="text")
    qr.add_argument("--rebuild", action="store_true",
                    help="rescan the store into the index first")
    qr.add_argument("--list-columns", action="store_true",
                    help="describe every queryable column and exit")
    qr.set_defaults(func=_cmd_query)

    df = sub.add_parser("diff",
                        help="compare two campaigns point by point")
    df.add_argument("campaign_a", help="baseline campaign tag")
    df.add_argument("campaign_b", help="candidate campaign tag")
    df.add_argument("--metric", action="append", default=[],
                    metavar="COL",
                    help="metric column to compare (repeatable; default: "
                         "cycles, ipc, stp, edp)")
    df.add_argument("--tolerance", type=float, default=0.01, metavar="REL",
                    help="relative drift allowed before flagging "
                         "(default: 0.01)")
    df.add_argument("--all", action="store_true",
                    help="show every common point, not just regressions")
    df.add_argument("--format", choices=["text", "json"], default="text")
    df.set_defaults(func=_cmd_diff)

    bl = sub.add_parser("baseline",
                        help="record / check a metric-regression baseline")
    bl_sub = bl.add_subparsers(dest="baseline_cmd", required=True)
    for name, help_text in (("record", "snapshot current metrics"),
                            ("check", "compare the warehouse against a "
                                      "recorded baseline")):
        blp = bl_sub.add_parser(name, help=help_text)
        blp.add_argument("--file", default=".repro-warehouse-baseline.json",
                         metavar="FILE")
        blp.add_argument("--metric", action="append", default=[],
                         metavar="COL",
                         help="metric column (repeatable; default: "
                              "cycles, ipc, stp, edp)")
        blp.add_argument("--where", action="append", default=[],
                         metavar="COL OP VAL",
                         help="restrict the point set (repeatable)")
        blp.add_argument("--campaign", default=None, metavar="TAG")
        blp.add_argument("--tolerance", type=float,
                         default=0.02 if name == "record" else None,
                         metavar="REL",
                         help="relative drift allowed (check default: "
                              "the recorded value)")
        blp.set_defaults(func=_cmd_baseline)
    bl_sub.choices["check"].add_argument(
        "--format", choices=["text", "json"], default="text")
    bl_sub.choices["record"].set_defaults(format="text")
    bl.set_defaults(func=_cmd_baseline)

    wa = sub.add_parser("warehouse",
                        help="rebuild or inspect the warehouse index")
    wa_sub = wa.add_subparsers(dest="warehouse_cmd", required=True)
    wa_rebuild = wa_sub.add_parser(
        "rebuild", help="rescan every stored blob into the index")
    wa_rebuild.set_defaults(func=_cmd_warehouse)
    wa_status = wa_sub.add_parser(
        "status", help="print index location, rows, size, campaigns")
    wa_status.set_defaults(func=_cmd_warehouse)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped through `head`): exit quietly.
        return 0
    except KeyboardInterrupt:
        # Ctrl-C or SIGTERM (converted by the executor): completed work
        # is already checkpointed; report the interruption and exit
        # nonzero without a traceback.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
