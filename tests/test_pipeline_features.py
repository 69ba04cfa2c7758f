"""Tests for fetch-policy variants and failure injection (the invariant
checks must actually catch corruption)."""

import pytest

from repro.core import CoreConfig, Pipeline, simulate
from repro.core.shelf import ShelfPartition
from repro.frontend.fetch import ICount2Policy, make_fetch_policy
from repro.trace import generate


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
