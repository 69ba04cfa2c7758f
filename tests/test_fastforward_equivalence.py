"""Fast-forward vs reference equivalence oracle.

The event-driven loop (wakeup lists + idle fast-forward, see
``docs/performance.md``) must be *bit-identical* to the per-cycle polling
reference: same :class:`SimResult` records byte for byte, same issue
logs, same per-instruction lifetime records, same final cycle.  These
tests run both paths over randomized small configurations and directed
stress cases and compare everything.
"""

import pickle
import random

import pytest

from repro.core.config import CoreConfig
from repro.core.horizon import fastforward_enabled
from repro.core.pipeline import DeadlockError, Pipeline
from repro.memory.hierarchy import HierarchyConfig
from repro.trace import generate


def _run_pair(cfg, traces, stop="all", max_cycles=None):
    """Run fast-forward and reference pipelines over the same traces;
    assert byte-identical results and identical logs; return both."""
    fast = Pipeline(cfg, traces, record_schedule=True, fastforward=True)
    r_fast = fast.run(stop=stop, max_cycles=max_cycles)
    ref = Pipeline(cfg, traces, record_schedule=True, fastforward=False)
    r_ref = ref.run(stop=stop, max_cycles=max_cycles)

    assert fast.cycle == ref.cycle, \
        f"cycle count diverged: fast {fast.cycle} vs ref {ref.cycle}"
    assert fast.issue_log == ref.issue_log, "issue schedules diverged"
    assert fast.instr_log == ref.instr_log, "lifetime records diverged"
    assert pickle.dumps(r_fast) == pickle.dumps(r_ref), \
        "SimResult records are not byte-identical"
    return fast, ref


#: Workloads that exercise distinct idle/activity shapes: miss-dominated
#: pointer chases (long fast-forward windows), dense ILP (no windows),
#: serialized dependency chains, hard-to-predict branches, and stores.
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
    rng = random.Random(1000 + trial)
    cfg = _random_config(rng)
    length = rng.randrange(200, 401)
    traces = [generate(rng.choice(_WORKLOADS), length, seed=trial * 7 + tid)
              for tid in range(cfg.num_threads)]
    _run_pair(cfg, traces, stop=rng.choice(("all", "first")))


def test_latency_bound_run_actually_fast_forwards():
    # pchase.mem is miss-dominated: the vast majority of cycles are idle
    # and must be jumped, not stepped.
    cfg = CoreConfig(num_threads=1)
    traces = [generate("pchase.mem", 300, 0)]
    fast, _ = _run_pair(cfg, traces)
    assert fast.ff_jumps > 0
    assert fast.ff_skipped_cycles > fast.cycle // 2, \
        f"only {fast.ff_skipped_cycles}/{fast.cycle} cycles skipped"


def test_smt_shelf_config_bit_identical():
    # The paper's interesting configuration: SMT + shelf + practical
    # steering, where RCT countdown batching must replay exactly.
    cfg = CoreConfig(num_threads=2, shelf_entries=32, steering="practical")
    traces = [generate("pchase.mem", 250, 0), generate("mixed.int", 250, 1)]
    _run_pair(cfg, traces, stop="first")


def test_env_escape_hatch(monkeypatch):
    monkeypatch.setenv("REPRO_FASTFORWARD", "0")
    assert not fastforward_enabled()
    cfg = CoreConfig(num_threads=1)
    pipe = Pipeline(cfg, [generate("ilp.int8", 50, 0)])
    assert not pipe.fastforward
    # The explicit constructor argument wins over the environment.
    pipe = Pipeline(cfg, [generate("ilp.int8", 50, 0)], fastforward=True)
    assert pipe.fastforward
    monkeypatch.delenv("REPRO_FASTFORWARD")
    assert fastforward_enabled()


def test_long_dram_stall_is_not_a_deadlock():
    # Satellite regression: a legitimate stall longer than DEADLOCK_WINDOW
    # (a 60k-cycle DRAM access) must complete in BOTH modes — the detector
    # now distinguishes scheduled-progress stalls from true deadlocks.
    hier = HierarchyConfig(mem_latency=60_000)
    cfg = CoreConfig(num_threads=1, hierarchy=hier)
    assert hier.mem_latency > Pipeline.DEADLOCK_WINDOW
    traces = [generate("pchase.mem", 8, 0)]
    for ff in (True, False):
        pipe = Pipeline(cfg, traces, fastforward=ff)
        result = pipe.run(stop="all", max_cycles=5_000_000)
        assert result.threads[0].retired == 8


def test_max_cycles_still_enforced_under_fast_forward():
    cfg = CoreConfig(num_threads=1)
    pipe = Pipeline(cfg, [generate("pchase.mem", 2000, 0)], fastforward=True)
    with pytest.raises(DeadlockError):
        pipe.run(max_cycles=50)


def test_final_invariants_hold_after_fast_forward():
    cfg = CoreConfig(num_threads=2, shelf_entries=32, steering="practical")
    traces = [generate("gather.small", 200, 0),
              generate("serial.memdep", 200, 1)]
    pipe = Pipeline(cfg, traces, fastforward=True)
    pipe.run(stop="all")
    pipe.check_final_invariants()
