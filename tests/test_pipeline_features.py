"""Tests for warm-up measurement regions, fetch-policy variants and
failure injection (the invariant checks must actually catch corruption)."""

import pytest

from repro.core import CoreConfig, Pipeline, simulate
from repro.core.gang import GangEngine
from repro.core.shelf import ShelfPartition
from repro.frontend.fetch import ICount2Policy, make_fetch_policy
from repro.trace import generate


class TestWarmup:
    def test_warmup_resets_event_counters(self):
        tr = generate("branchy.easy", 2000, 0)
        cold = simulate(CoreConfig(num_threads=1), [tr], stop="all")
        warm = simulate(CoreConfig(num_threads=1), [tr], stop="all",
                        warmup_instructions=800)
        assert warm.events.fetches < cold.events.fetches
        assert warm.total_retired == cold.total_retired  # retires all

    def test_warm_cpi_beats_cold_cpi_on_cacheable_code(self):
        # gather.small's table warms into the caches: the post-warm-up
        # measurement region must show a lower CPI than the cold run.
        tr = generate("gather.small", 3000, 0)
        cold = simulate(CoreConfig(num_threads=1), [tr], stop="all")
        warm = simulate(CoreConfig(num_threads=1), [tr], stop="all",
                        warmup_instructions=1500)
        assert warm.threads[0].cpi < cold.threads[0].cpi

    def test_warmup_longer_than_trace_rejected(self):
        tr = generate("ilp.int4", 300, 0)
        with pytest.raises(ValueError):
            simulate(CoreConfig(num_threads=1), [tr], stop="all",
                     warmup_instructions=300)

    def test_warmup_rejected_with_stop_first(self):
        # a stop="first" run may end before every thread reaches the
        # mark, so the reset would fire on some configs and not others.
        traces = [generate(b, 1200, i) for i, b in enumerate(
            ["ilp.int8", "serial.alu"])]
        with pytest.raises(ValueError, match="stop='all'"):
            simulate(CoreConfig(num_threads=2), traces, stop="first",
                     warmup_instructions=300)
        gang = GangEngine([Pipeline(CoreConfig(num_threads=2), traces)],
                          stop="first")
        with pytest.raises(ValueError, match="stop='all'"):
            gang.run(warmup_instructions=300)

    def test_warmup_multithreaded(self):
        traces = [generate(b, 1200, i) for i, b in enumerate(
            ["ilp.int8", "serial.alu"])]
        res = simulate(CoreConfig(num_threads=2), traces, stop="all",
                       warmup_instructions=300)
        assert all(t.retired == 1200 for t in res.threads)
        assert all(t.cpi > 0 for t in res.threads)

    def test_predictor_stats_reset(self):
        tr = generate("branchy.easy", 3000, 0)
        warm = simulate(CoreConfig(num_threads=1), [tr], stop="all",
                        warmup_instructions=1500)
        cold = simulate(CoreConfig(num_threads=1), [tr], stop="all")
        # measured over the trained region only: accuracy no worse.
        assert warm.bpred_accuracy >= cold.bpred_accuracy - 0.01


class TestFetchPolicies:
    def test_icount2_selects_two_distinct_threads(self):
        p = ICount2Policy(4)
        assert p.fetch_threads == 2
        first = p.select([True] * 4, [1, 2, 3, 4])
        assert first == 0

    def test_factory_knows_icount2(self):
        assert isinstance(make_fetch_policy("icount2", 4), ICount2Policy)

    def test_icount2_end_to_end(self):
        traces = [generate(b, 500, i) for i, b in enumerate(
            ["ilp.int8", "serial.alu", "branchy.easy", "gather.small"])]
        res = simulate(CoreConfig(num_threads=4, fetch_policy="icount2"),
                       traces, stop="all")
        assert all(t.retired == 500 for t in res.threads)

    def test_icount2_with_shelf(self):
        traces = [generate(b, 500, i) for i, b in enumerate(
            ["mixed.int", "pchase.l2", "ilp.int4", "stream.l2"])]
        cfg = CoreConfig(num_threads=4, fetch_policy="icount2",
                         shelf_entries=64, steering="practical")
        pipe = Pipeline(cfg, traces)
        res = pipe.run(stop="all")
        assert all(t.retired == 500 for t in res.threads)
        pipe.check_final_invariants()


class TestFailureInjection:
    """The safety nets must catch deliberately induced corruption."""

    def test_shelf_fifo_violation_caught(self):
        # Issuing a non-head shelf instruction trips the FIFO assertion.
        cfg = CoreConfig(num_threads=1, shelf_entries=16,
                         steering="shelf-only")
        pipe = Pipeline(cfg, [generate("serial.alu", 400, 0)])
        original_pop = ShelfPartition.pop_issued

        def corrupted(self):
            if len(self.fifo) > 1:
                self.fifo.rotate(-1)  # swap head away
            return original_pop(self)

        ShelfPartition.pop_issued = corrupted
        try:
            with pytest.raises(AssertionError):
                pipe.run(stop="all")
        finally:
            ShelfPartition.pop_issued = original_pop

    def test_leaked_physical_register_caught(self):
        cfg = CoreConfig(num_threads=1)
        pipe = Pipeline(cfg, [generate("ilp.int8", 300, 0)])
        pipe.run(stop="all")
        pipe.phys_fl.allocate()  # leak one
        with pytest.raises(AssertionError):
            pipe.check_final_invariants()

    def test_undrained_structure_caught(self):
        cfg = CoreConfig(num_threads=1)
        pipe = Pipeline(cfg, [generate("ilp.int8", 300, 0)])
        pipe.run(stop="all")
        pipe.iq.append(object())  # stale IQ occupant
        with pytest.raises(AssertionError):
            pipe.check_final_invariants()

    def test_retired_shelf_index_squash_caught(self):
        # Squashing past a retired shelf index violates the writeback-hold
        # guarantee and must assert rather than corrupt pointers.
        shelf = ShelfPartition(4)
        from repro.core.dynamic import DynInstr
        from repro.isa.instruction import Instruction
        from repro.isa.opcodes import OpClass
        d = DynInstr(0, 0, 0, Instruction(op=OpClass.INT_ALU, dest=1,
                                          srcs=(), pc=0, next_pc=4), 1)
        shelf.allocate(d)
        shelf.pop_issued()
        shelf.mark_retired(d.shelf_idx)
        with pytest.raises(AssertionError):
            shelf.squash_from(d.shelf_idx)

    def test_deadlock_detector_fires_with_poisoned_scoreboard(self, monkeypatch):
        # Freeze every operand forever: nothing can issue, and the
        # detector must report rather than spin.  (Scoreboard uses
        # __slots__, so poison the method at class level.  The lane
        # engine reads the ready lanes directly and never calls
        # all_ready, so the injection only bites the object path.)
        from repro.core.scoreboard import Scoreboard
        cfg = CoreConfig(num_threads=1)
        pipe = Pipeline(cfg, [generate("serial.alu", 200, 0)], lanes=False)
        pipe.DEADLOCK_WINDOW = 2000
        monkeypatch.setattr(Scoreboard, "all_ready",
                            lambda self, tags, cycle: False)
        from repro.core import DeadlockError
        with pytest.raises(DeadlockError):
            pipe.run(stop="all")
