"""End-to-end benchmark: the Fig 10 grid run locally and through
``repro serve``, and a single-thread sweep, with a traced per-layer
breakdown.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed S]
        [--reps N | --seconds T] [--trace 0|1] [--out FILE]

(``PYTHONPATH=src python -m benchmarks.e2e.run`` works too.)  Every rep
is a fresh process tree (``rep.py``) with an empty result store;
reps of several workloads are interleaved.  ``--trace 1`` adds one
traced rep per workload.  The report names every metric with its unit
(median, quartiles and every run), checks the results, and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end medians (``--trace 0``) or the traced rep's per-layer
metrics (``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import layers, stats  # noqa: E402

HERE = Path(__file__).resolve().parent
HOOK = HERE / "hook"
WORK = ROOT / ".bench_work"

#: the Fig 10 grid at the ``default`` scale.
FULL_MIXES, FULL_LENGTH = 28, 2500

#: set-up time is the median of this many set-up-only launches per
#: workload, made back to back after the reps so that each starts on a
#: machine no rep is still winding down on.
SETUP_SAMPLES = 7

#: a rep that has not finished by then is killed and counted as failed.
REP_TIMEOUT_S = 120.0

#: end-to-end metrics left out of the result line.  ``failed_frac`` is 0
#: by design and is reported as ``failed`` / ``attempted`` instead.  The
#: service's ``hit_latency_p90_s`` (three sub-millisecond round trips
#: between two processes) follows minutes-long bursts of load from
#: elsewhere on the host: its spread over ten seeds reached 0.21-0.24,
#: too wide to gate on.
E2E_RESULT = [m for m in layers.END_TO_END
              if m not in ("failed_frac", "hit_latency_p90_s")]
#: per-layer metrics left out of the result line: ``client.request_p50_s``
#: has no client, hence no value, on the local workloads.
LAYER_RESULT = [m for m in layers.PER_LAYER if m != "client.request_p50_s"]


# -- process trees ------------------------------------------------------------

def _proc_table() -> Dict[int, tuple]:
    """pid -> (ppid, pgrp, rss_bytes) for every live process."""
    page = os.sysconf("SC_PAGE_SIZE")
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        table[int(entry)] = (int(fields[1]), int(fields[2]),
                             int(fields[21]) * page)
    return table


def tree_rss(root: int) -> int:
    """Summed resident set of *root* and all its descendants, in bytes."""
    table = _proc_table()
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        if pid in table:
            total += table[pid][2]
            todo.extend(children.get(pid, ()))
    return total


class PeakRss(threading.Thread):
    """Samples a process tree's summed RSS every *period* seconds."""

    def __init__(self, pid: int, period: float = 0.1) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.period = period
        self.peak = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while True:
            self.peak = max(self.peak, tree_rss(self.pid))
            if self._stop_event.wait(self.period):
                return

    def stop(self) -> int:
        self._stop_event.set()
        self.join()
        return self.peak


def reap_group(pgid: int) -> None:
    """Kill whatever is left of a rep's process group and wait until
    every member is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and any(
            pgrp == pgid for _, pgrp, _ in _proc_table().values()):
        time.sleep(0.05)


# -- reps -----------------------------------------------------------------------

class Bench:
    """One invocation: runs reps, keeps their results, checks them."""

    def __init__(self, args) -> None:
        self.args = args
        self.work = WORK / f"run-{os.getpid()}"
        self.counter = 0
        self.reps: Dict[str, List[dict]] = {w: [] for w in args.workload}
        self.setups: Dict[str, List[float]] = {w: [] for w in args.workload}
        self.traced: Dict[str, dict] = {}

    def _child(self, workload: str, mode: str, traced: bool = False):
        self.counter += 1
        rep_dir = self.work / f"{self.counter:03d}-{workload}"
        (rep_dir / "tmp").mkdir(parents=True)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_") and k != "BENCH_TRACE_DIR"}
        paths = [str(ROOT / "src")]
        if traced:
            paths.insert(0, str(HOOK))
            (rep_dir / "spans").mkdir()
            env["BENCH_TRACE_DIR"] = str(rep_dir / "spans")
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["REPRO_CACHE_DIR"] = str(rep_dir / "store")
        env["TMPDIR"] = str(rep_dir / "tmp")
        cmd = [sys.executable, "-m", "benchmarks.e2e.rep",
               "--mode", mode, "--workload", workload,
               "--seed", str(self.args.seed),
               "--mixes", str(self.args.mixes),
               "--length", str(self.args.length),
               "--rep-dir", str(rep_dir),
               "--out", str(rep_dir / "result.json")]
        launched = time.time()
        proc = subprocess.Popen(cmd + ["--launched", repr(launched)],
                                cwd=ROOT, env=env, start_new_session=True)
        sampler = PeakRss(proc.pid)
        sampler.start()
        try:
            proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            reap_group(proc.pid)
            proc.wait()
            peak = sampler.stop()
        duration = time.time() - launched
        try:
            result = json.loads((rep_dir / "result.json").read_text())
        except (OSError, ValueError):
            result = {"error": f"rep exited {proc.returncode} "
                               f"without a result"}
        result.update(duration_s=duration, peak_rss_mb=peak / 2 ** 20)
        return rep_dir, result

    def rep(self, workload: str, traced: bool = False) -> dict:
        rep_dir, res = self._child(workload, "run", traced)
        rep = {"traced": traced, "duration_s": res["duration_s"]}
        if "error" in res:
            print(f"{workload}: rep failed:\n{res['error']}", file=sys.stderr)
            rep.update(error=res["error"], points={},
                       attempted=res.get("attempted", 1))
        else:
            lat, hits = res["job_latencies"], res["hit_latencies"]
            retired = sum(p["retired"] for p in res["points"].values())
            rep.update({
                "wall_s": res["wall_s"],
                "sim_kips": retired / res["wall_s"] / 1e3,
                "setup_s": res["setup_s"],
                "peak_rss_mb": res["peak_rss_mb"],
                "job_latency_p50_s": stats.percentile(lat, 50),
                "job_latency_p90_s": stats.percentile(lat, 90),
                "hit_latency_p50_s": stats.percentile(hits, 50),
                "hit_latency_p90_s": stats.percentile(hits, 90),
                "points": res["points"],
                "attempted": res["attempted"],
                "bad": set(res["hit_mismatches"]),
                "hash": stats.results_hash(res["points"]),
                "records_hash": stats.records_hash(res["points"]),
            })
            if traced:
                untraced = [r["wall_s"] for r in self.reps[workload]
                            if "wall_s" in r]
                rep["per_layer"] = layers.layer_metrics(
                    layers.load_spans(rep_dir / "spans"), res,
                    stats.summarize(untraced)["median"] if untraced
                    else res["wall_s"])
        shutil.rmtree(rep_dir, ignore_errors=True)
        return rep

    def every_rep(self, workload: str) -> List[dict]:
        """The untraced reps of *workload*, then its traced rep."""
        traced = self.traced.get(workload)
        return self.reps[workload] + ([traced] if traced else [])

    def setup_sample(self, workload: str) -> Optional[float]:
        rep_dir, res = self._child(workload, "setup")
        shutil.rmtree(rep_dir, ignore_errors=True)
        return res.get("setup_s")

    def run(self) -> None:
        args = self.args
        spent = {w: 0.0 for w in args.workload}
        active = list(args.workload)
        while active:  # interleave the workloads' reps
            for w in list(active):
                rep = self.rep(w)
                self.reps[w].append(rep)
                spent[w] += rep["duration_s"]
                if args.seconds is not None:
                    more = spent[w] + rep["duration_s"] <= args.seconds
                else:
                    more = len(self.reps[w]) < args.reps
                if not more:
                    active.remove(w)
        for w in args.workload:
            for _ in range(SETUP_SAMPLES):
                value = self.setup_sample(w)
                if value is not None:
                    self.setups[w].append(value)
        if args.trace:
            for w in args.workload:
                self.traced[w] = self.rep(w, traced=True)


# -- correctness ----------------------------------------------------------------

def expected_hashes() -> Dict[str, Dict[str, str]]:
    return json.loads((HERE / "expected.json").read_text())["seed0"]


def failed(rep: dict) -> int:
    """Points of *rep* that failed, timed out or came back wrong."""
    return rep["attempted"] if "error" in rep else len(rep["bad"])


def _agree(reference: dict, reps: List[dict]) -> str:
    """Mark the points of *reps* whose records differ from
    *reference*'s as bad; report how many there were."""
    count = 0
    for r in reps:
        keys = stats.mismatched(reference["points"], r["points"])
        r["bad"].update(keys)
        count += len(keys)
    return "ok" if not count else f"MISMATCH ({count} points)"


def check(bench: Bench) -> Dict[str, Dict[str, object]]:
    """Correctness gate: seed-0 hashes, agreement between the reps of a
    workload, and ``grid.serve`` records equal to ``grid.local`` ones.
    Every failing point joins its rep's ``bad`` set.  Returns the
    findings per workload."""
    args = bench.args
    gated = args.seed == 0 and (args.mixes, args.length) == \
        (FULL_MIXES, FULL_LENGTH)
    expected = expected_hashes() if gated else {}
    good = {w: [r for r in bench.every_rep(w) if "error" not in r]
            for w in args.workload}
    findings: Dict[str, Dict[str, object]] = {}
    for w in args.workload:
        found: Dict[str, object] = {
            "failed_reps": len(bench.every_rep(w)) - len(good[w])}
        findings[w] = found
        if not good[w]:
            continue
        reference = good[w][0]
        found["hash"] = reference["hash"]
        found["records_hash"] = reference["records_hash"]
        if w in expected:
            want = (expected[w]["hash"], expected[w]["records_hash"])
            wrong = [r for r in good[w]
                     if (r["hash"], r["records_hash"]) != want]
            for r in wrong:
                r["bad"].update(r["points"])
            found["expected"] = "MISMATCH" if wrong else "ok"
        found["reps_agree"] = _agree(reference, good[w][1:])
    if good.get("grid.local") and good.get("grid.serve"):
        findings["grid.serve"]["equals_local"] = _agree(
            good["grid.local"][0], good["grid.serve"])
    return findings


# -- report -----------------------------------------------------------------------

def provenance(args) -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        commit = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "git_head": commit,
            "seed": args.seed, "reps": args.reps, "seconds": args.seconds,
            "trace": args.trace,
            "scale": {"instructions_per_thread": args.length,
                      "mixes": args.mixes,
                      "name": "default" if (args.mixes, args.length) ==
                      (FULL_MIXES, FULL_LENGTH) else "custom"}}


def summarize_workload(bench: Bench, w: str,
                       found: Dict[str, object]) -> Dict[str, object]:
    reps = bench.reps[w]
    ok = [r for r in reps if "error" not in r]
    e2e = {}
    for m, unit in layers.END_TO_END.items():
        if m == "failed_frac":
            values = [failed(r) / r["attempted"] for r in reps]
        elif m == "setup_s":
            values = bench.setups[w]
        else:
            values = [r[m] for r in ok]
        if values:
            e2e[m] = {"unit": unit, **stats.summarize(values)}
    every = bench.every_rep(w)
    doc = {"end_to_end": e2e,
           "attempted": sum(r["attempted"] for r in every),
           "failed": sum(failed(r) for r in every),
           "checks": found,
           "runs": [{**{k: v for k, v in r.items()
                        if k not in ("points", "bad")}, "failed": failed(r)}
                    for r in every]}
    traced = bench.traced.get(w)
    if traced is not None and "per_layer" in traced:
        doc["per_layer"] = {m: {"unit": layers.PER_LAYER[m], "value": v}
                            for m, v in traced["per_layer"].items()}
    return doc


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def print_report(doc: Dict[str, object]) -> None:
    p = doc["provenance"]
    print(f"e2e benchmark: seed={p['seed']} scale={p['scale']} "
          f"nproc={p['nproc']} cpu={p['cpu_model']!r} "
          f"python={p['python']} head={p['git_head']}")
    for w, wd in doc["workloads"].items():
        print(f"\n== {w}: {len(wd['runs'])} run(s), "
              f"{wd['failed']}/{wd['attempted']} failed ==")
        print(f"  {'metric':<30} {'unit':<9} {'median':>11} {'q1':>11} "
              f"{'q3':>11}  runs")
        for m, s in wd["end_to_end"].items():
            runs = " ".join(_fmt(v) for v in s["runs"])
            print(f"  {m:<30} {s['unit']:<9} {_fmt(s['median']):>11} "
                  f"{_fmt(s['q1']):>11} {_fmt(s['q3']):>11}  {runs}")
        print(f"  checks: {wd['checks']}")
        if "per_layer" in wd:
            print("  per-layer (traced rep):")
            for m, s in wd["per_layer"].items():
                print(f"  {m:<30} {s['unit']:<9} {_fmt(s['value']):>11}")


def result_line(doc: Dict[str, object], trace: int) -> Dict[str, object]:
    """The final JSON line: medians of the result-line end-to-end
    metrics, or the traced rep's per-layer metrics."""
    metrics = {}
    for w, wd in doc["workloads"].items():
        if trace:
            chosen = {m: wd["per_layer"][m] for m in LAYER_RESULT
                      if m in wd.get("per_layer", {})}
        else:
            chosen = {m: {"value": wd["end_to_end"][m]["median"],
                          "unit": wd["end_to_end"][m]["unit"]}
                      for m in E2E_RESULT if m in wd["end_to_end"]}
        metrics[w] = chosen
    if len(metrics) == 1:
        metrics = next(iter(metrics.values()))
    return {"correct": doc["correct"],
            "attempted": sum(wd["attempted"]
                             for wd in doc["workloads"].values()),
            "failed": sum(wd["failed"] for wd in doc["workloads"].values()),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)")
    ap.add_argument("--workload", "--workloads", nargs="+", action="extend",
                    choices=layers.WORKLOADS, help="default: all three")
    ap.add_argument("--seed", type=int, default=0)
    count = ap.add_mutually_exclusive_group()
    count.add_argument("--reps", type=int, default=None,
                       help="untraced reps per workload (default 3)")
    count.add_argument("--seconds", type=float, default=None,
                       help="instead of --reps: run reps of each workload "
                            "while they fit in this many seconds (>= 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1,
                    help="also run one traced rep per workload")
    ap.add_argument("--out", help="write the full result JSON here")
    ap.add_argument("--mixes", type=int, default=FULL_MIXES,
                    help="grid mixes (smaller sizes are for smoke tests)")
    ap.add_argument("--length", type=int, default=FULL_LENGTH,
                    help="instructions per thread")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    args.workload = list(dict.fromkeys(args.workload or layers.WORKLOADS))
    if args.seconds is None and args.reps is None:
        args.reps = 3
    # byte-compile once so the first rep's set-up time is not a build
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    "src", "benchmarks/e2e"], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    bench = Bench(args)
    try:
        bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    findings = check(bench)
    doc = {"provenance": provenance(args),
           "workloads": {w: summarize_workload(bench, w, findings[w])
                         for w in args.workload}}
    doc["correct"] = all(wd["failed"] == 0
                         for wd in doc["workloads"].values())
    print_report(doc)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(result_line(doc, args.trace)))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
