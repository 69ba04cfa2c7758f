"""Flat-lane engine vs per-object pipeline equivalence oracle.

The structure-of-arrays hot loop (:mod:`repro.core.lanes`) must be
*bit-identical* to the per-object pipeline it shadows: same
:class:`SimResult` records byte for byte, same issue logs, same
per-instruction lifetime records, same final cycle — across steering
policies, memory models, SMT widths, fast-forward on/off, and with the
sanitizer watching.  These tests mirror
``tests/test_fastforward_equivalence.py`` one layer down: the object
pipeline (itself proven against the polling reference there) is the
reference here.
"""

import pickle
import random
from dataclasses import replace

import pytest

from repro.core.config import CoreConfig
from repro.core.lanes import lanes_enabled
from repro.core.pipeline import Pipeline
from repro.memory.hierarchy import HierarchyConfig
from repro.trace import generate


def _run_pair(cfg, traces, stop="all", fastforward=None, max_cycles=None):
    """Run lane-mode and object-mode pipelines over the same traces;
    assert byte-identical results and identical logs; return both."""
    lane = Pipeline(cfg, traces, record_schedule=True, lanes=True,
                    fastforward=fastforward)
    r_lane = lane.run(stop=stop, max_cycles=max_cycles)
    obj = Pipeline(cfg, traces, record_schedule=True, lanes=False,
                   fastforward=fastforward)
    r_obj = obj.run(stop=stop, max_cycles=max_cycles)

    assert lane.cycle == obj.cycle, \
        f"cycle count diverged: lanes {lane.cycle} vs object {obj.cycle}"
    assert lane.issue_log == obj.issue_log, "issue schedules diverged"
    assert lane.instr_log == obj.instr_log, "lifetime records diverged"
    assert pickle.dumps(r_lane) == pickle.dumps(r_obj), \
        "SimResult records are not byte-identical"
    assert r_lane.as_record() == r_obj.as_record(), \
        "as_record() output diverged"
    return lane, obj


#: Same workload roster as the fast-forward oracle: distinct idle and
#: occupancy shapes stress different inlined stage bodies.
_WORKLOADS = ("pchase.mem", "pchase.l2", "ilp.int8", "serial.memdep",
              "branchy.hard", "mixed.store", "gather.small", "serial.div")


def _random_config(rng):
    num_threads = rng.choice((1, 2))
    steering = rng.choice(("iq-only", "practical", "oracle", "shelf-only"))
    shelf = 0 if steering == "iq-only" and rng.random() < 0.5 \
        else rng.choice((16, 32)) * num_threads
    return CoreConfig(
        num_threads=num_threads,
        rob_entries=rng.choice((32, 64)) * num_threads,
        iq_entries=rng.choice((16, 32)),
        lq_entries=16 * num_threads,
        sq_entries=16 * num_threads,
        shelf_entries=shelf,
        steering=steering if shelf else "iq-only",
        shelf_same_cycle_issue=rng.random() < 0.5,
        dual_ssr=rng.random() < 0.75,
        memory_model=rng.choice(("relaxed", "relaxed", "tso")),
        fetch_policy=rng.choice(("icount", "round-robin")),
        hierarchy=HierarchyConfig(
            mem_latency=rng.choice((60, 200, 450)),
            l1d_mshrs=rng.choice((2, 16)),
        ),
    )


@pytest.mark.parametrize("trial", range(8))
def test_random_configs_bit_identical(trial):
    # Also randomizes fastforward on/off: the lane engine must match the
    # object pipeline in BOTH of its sub-modes (lanes x fastforward
    # cross-product), not just the default.
    rng = random.Random(5000 + trial)
    cfg = _random_config(rng)
    length = rng.randrange(200, 401)
    traces = [generate(rng.choice(_WORKLOADS), length, seed=trial * 7 + tid)
              for tid in range(cfg.num_threads)]
    _run_pair(cfg, traces, stop=rng.choice(("all", "first")),
              fastforward=rng.random() < 0.5)


@pytest.mark.parametrize("workload", ("ilp.int8", "pchase.mem",
                                      "branchy.hard", "mixed.store"))
def test_directed_workloads_bit_identical(workload):
    cfg = CoreConfig(num_threads=1, shelf_entries=16, steering="practical")
    _run_pair(cfg, [generate(workload, 600, 0)])


def test_scaled_window_bit_identical():
    # The configuration BENCH_simspeed.json reports the compute-bound
    # lane speedup on: a deep single-thread window where the object
    # pipeline's whole-IQ rescan is at its most expensive.
    cfg = CoreConfig(num_threads=1, rob_entries=512, iq_entries=256,
                     lq_entries=64, sq_entries=64)
    _run_pair(cfg, [generate("ilp.int8", 1500, 7)])


def test_smt_shelf_config_bit_identical():
    # The paper's interesting configuration: SMT + shelf + practical
    # steering, where shelf FIFOs, SSR segments, and the issue-tracking
    # bitvectors all see traffic.
    cfg = CoreConfig(num_threads=2, shelf_entries=32, steering="practical")
    traces = [generate("pchase.mem", 250, 0), generate("mixed.int", 250, 1)]
    _run_pair(cfg, traces, stop="first")


def test_sanitizer_on_bit_identical():
    # The sanitizer is observational: with it watching every cycle of
    # both loops, the runs must still agree byte for byte (and any lane
    # bookkeeping divergence would raise a SanitizerError outright).
    for steering in ("practical", "shelf-only", "iq-only"):
        for model in ("relaxed", "tso"):
            cfg = CoreConfig(num_threads=2, sanitize=True,
                             memory_model=model,
                             shelf_entries=0 if steering == "iq-only"
                             else 32,
                             steering=steering)
            traces = [generate("mixed.store", 200, 0),
                      generate("gather.small", 200, 1)]
            _run_pair(cfg, traces, stop="first")


def test_squash_stress_bit_identical():
    # branchy.hard at 2 threads maximizes recovery traffic: squashes
    # must rebuild the ready sets, wakeup heap, and IQ position lane
    # exactly as the object pipeline rebuilds its structures.
    cfg = CoreConfig(num_threads=2, shelf_entries=32, steering="practical",
                     fetch_policy="round-robin")
    traces = [generate("branchy.hard", 400, 0),
              generate("branchy.flip", 400, 1)]
    _run_pair(cfg, traces, stop="all")


def test_lane_growth_past_one_chunk():
    # Lanes allocate in 4096-slot chunks; a run fetching more global
    # sequence numbers than one chunk exercises _grow mid-run.
    cfg = CoreConfig(num_threads=1)
    _run_pair(cfg, [generate("ilp.int8", 5000, 0)])


def test_manual_step_parity():
    # step() must advance the lane engine one cycle at a time and leave
    # the same observable state as the object pipeline's step().
    cfg = CoreConfig(num_threads=1)
    traces = [generate("mixed.int", 120, 0)]
    lane = Pipeline(cfg, traces, record_schedule=True, lanes=True)
    obj = Pipeline(cfg, traces, record_schedule=True, lanes=False)
    for _ in range(300):
        lane.step()
        obj.step()
    assert lane.cycle == obj.cycle
    assert lane.issue_log == obj.issue_log
    assert [t.retired for t in lane.threads] == \
        [t.retired for t in obj.threads]


def test_env_escape_hatch(monkeypatch):
    monkeypatch.setenv("REPRO_LANES", "0")
    assert not lanes_enabled()
    cfg = CoreConfig(num_threads=1)
    pipe = Pipeline(cfg, [generate("ilp.int8", 50, 0)])
    assert not pipe.lanes
    # The explicit constructor argument wins over the environment.
    pipe = Pipeline(cfg, [generate("ilp.int8", 50, 0)], lanes=True)
    assert pipe.lanes
    monkeypatch.delenv("REPRO_LANES")
    assert lanes_enabled()


def test_final_invariants_hold_after_lane_run():
    cfg = CoreConfig(num_threads=2, shelf_entries=32, steering="practical")
    traces = [generate("gather.small", 200, 0),
              generate("serial.memdep", 200, 1)]
    pipe = Pipeline(cfg, traces, lanes=True)
    pipe.run(stop="all")
    pipe.check_final_invariants()


def test_lane_mode_outside_digests():
    # Lane mode must not perturb result-store digests: the same config
    # digest must serve both modes (it is the RESULT that is identical,
    # so the cache key must not fork on an implementation detail).
    from repro.harness.cache import point_digest
    cfg = CoreConfig(num_threads=1)
    point = (("ilp.int8",), 100, 0, "all")
    assert point_digest(cfg, *point) == point_digest(replace(cfg), *point)
    # ...and CoreConfig has no lane field at all, by design.
    assert not hasattr(cfg, "lanes")
