"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py BEFORE.json AFTER.json

For every end-to-end metric of ``BENCHMARK.json`` on every workload
both files ran, print each side's median and quartiles, the change of
the median, the wider of the two sides' spreads (quartile distance over
median), and a verdict:

* ``unresolved`` -- a spread is wider than the metric's bound, and not
  every AFTER run reads better than every BEFORE run;
* ``REGRESSED`` -- the AFTER median is worse by more than the bound;
* ``better`` -- every AFTER run reads better than every BEFORE run;
* ``ok`` -- otherwise (within the bound).

When both sides have the same number of runs they are taken as paired
in run order and the share of pairs AFTER wins is shown (ties count for
neither).  A rise in ``failed_frac`` is flagged.  Exits 1 on any
regression or failure rise, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import stats  # noqa: E402


def metric_bounds() -> Dict[str, Tuple[float, str]]:
    """End-to-end metric -> (bound, better) from ``BENCHMARK.json``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in doc["end_to_end"]}


def judge(before: Mapping, after: Mapping, bound: float,
          better: str) -> Dict[str, object]:
    """Verdict for one metric on one workload (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    change = (after["median"] - before["median"]) / abs(before["median"])
    worse = sign * change
    width = max(stats.spread(before), stats.spread(after))
    all_better = all(sign * (b - a) < 0 for a in before["runs"]
                     for b in after["runs"])
    if width > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSED"
    elif all_better:
        verdict = "better"
    else:
        verdict = "ok"
    out = {"change": change, "spread": width, "verdict": verdict}
    if len(before["runs"]) == len(after["runs"]):
        pairs = list(zip(before["runs"], after["runs"]))
        out["wins"] = sum(sign * (b - a) < 0 for a, b in pairs) / len(pairs)
    return out


def compare(before: Mapping, after: Mapping,
            bounds: Mapping[str, Tuple[float, str]]) -> Tuple[List[dict], bool]:
    """Rows for every metric x workload present on both sides, and
    whether any of them regressed or saw more failures."""
    rows, bad = [], False
    for w, a in before["workloads"].items():
        b = after["workloads"].get(w)
        if b is None:
            continue
        for m, (bound, better) in bounds.items():
            if m not in a["end_to_end"] or m not in b["end_to_end"]:
                continue
            sa, sb = a["end_to_end"][m], b["end_to_end"][m]
            row = {"workload": w, "metric": m, "unit": sa["unit"],
                   "bound": bound, "before": sa, "after": sb,
                   **judge(sa, sb, bound, better)}
            bad |= row["verdict"] == "REGRESSED"
            rows.append(row)
        fa = a["failed"] / a["attempted"]
        fb = b["failed"] / b["attempted"]
        rows.append({"workload": w, "metric": "failed_frac",
                     "before": fa, "after": fb,
                     "verdict": "FAILED_FRAC ROSE" if fb > fa else "ok"})
        bad |= fb > fa
    return rows, bad


def _q(s: Mapping) -> str:
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args(argv)
    before = json.loads(Path(args.before).read_text())
    after = json.loads(Path(args.after).read_text())
    if before["provenance"]["scale"] != after["provenance"]["scale"]:
        print("warning: the two files ran at different scales")
    rows, bad = compare(before, after, metric_bounds())
    print(f"{'workload':<11} {'metric':<18} {'before: median [q1, q3]':<36} "
          f"{'after: median [q1, q3]':<36} {'change':>7} {'spread':>7} "
          f"{'bound':>6} {'wins':>5}  verdict")
    for r in rows:
        if r["metric"] == "failed_frac":
            print(f"{r['workload']:<11} {'failed_frac':<18} "
                  f"{r['before']:<36.4g} {r['after']:<36.4g} "
                  f"{'':>7} {'':>7} {'':>6} {'':>5}  {r['verdict']}")
            continue
        wins = f"{r['wins']:.2f}" if "wins" in r else "-"
        print(f"{r['workload']:<11} {r['metric']:<18} "
              f"{_q(r['before']):<36} {_q(r['after']):<36} "
              f"{r['change']:>+7.1%} {r['spread']:>7.1%} {r['bound']:>6.0%} "
              f"{wins:>5}  {r['verdict']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
