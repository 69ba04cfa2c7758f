"""Per-SMT-thread pipeline state."""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.config import CoreConfig
from repro.core.dynamic import DynInstr
from repro.core.issue_tracking import IssueTracker
from repro.core.lsq import LoadStoreQueues
from repro.core.shelf import ShelfPartition
from repro.core.ssr import SpeculationShiftRegisters
from repro.trace.trace import Trace, TraceCursor


class ThreadContext:
    """Everything one hardware thread owns: its trace cursor, front-end
    buffer, ROB partition, LQ/SQ partition, shelf partition, trackers and
    speculation registers."""

    __slots__ = (
        "tid", "trace", "cursor", "config",
        "frontend", "fetch_blocked_until", "ifetch_pending", "pending_branch",
        "rob", "issue_tracker", "order_tracker", "lsq", "shelf", "ssr",
        "in_flight", "shelf_wb_pending", "spec_inflight",
        "icount", "retired", "finish_cycle",
        "last_dispatch_was_shelf", "head_snapshot", "insequence_flags",
    )

    def __init__(self, tid: int, trace: Trace, config: CoreConfig) -> None:
        self.tid = tid
        self.trace = trace
        self.cursor = TraceCursor(trace)
        self.config = config

        #: fetched instructions waiting out the fetch-to-dispatch pipe.
        self.frontend: Deque[DynInstr] = deque()
        self.fetch_blocked_until = 0          #: I-cache miss stall
        #: an I-miss fill is en route: when the stall expires the block is
        #: delivered to the fetch unit directly (no re-lookup — avoids
        #: livelock when threads thrash an I-cache set).
        self.ifetch_pending = False
        self.pending_branch: Optional[DynInstr] = None  #: mispredict gate

        #: IQ instructions in program order (the thread's ROB partition).
        self.rob: Deque[DynInstr] = deque()
        self.issue_tracker = IssueTracker()   #: IQ issue bitvector (III-A)
        self.order_tracker = IssueTracker()   #: all instrs (classification)
        self.lsq = LoadStoreQueues(
            config.lq_per_thread, config.sq_per_thread,
            config.store_buffer_lines,
            config.hierarchy.line_size.bit_length() - 1,
            coalesce=config.memory_model == "relaxed")
        self.shelf = ShelfPartition(max(config.shelf_per_thread, 1)) \
            if config.shelf_entries else ShelfPartition(0)
        self.ssr = SpeculationShiftRegisters(dual=config.dual_ssr)

        #: all dispatched, unretired instructions in program order.
        self.in_flight: List[DynInstr] = []
        #: shelf instructions whose execution finished but whose writeback
        #: is held until no elder instruction can still squash them.
        self.shelf_wb_pending: List[DynInstr] = []

        #: elder speculation horizon for classification:
        #: (order_idx, resolve_cycle) of speculative instrs in flight.
        self.spec_inflight: List[Tuple[int, int]] = []

        self.icount = 0            #: ICOUNT statistic (front end + unissued)
        self.retired = 0
        self.finish_cycle: Optional[int] = None
        self.last_dispatch_was_shelf = False
        self.head_snapshot = 0     #: issue-tracker head at cycle start

        #: classification output: 1 in-sequence, 0 reordered, 2 unknown.
        self.insequence_flags = bytearray(b"\x02" * len(trace))

    @property
    def trace_done(self) -> bool:
        return self.cursor.exhausted

    @property
    def finished(self) -> bool:
        return self.retired >= len(self.trace)

    def fetchable(self, cycle: int) -> bool:
        return (not self.trace_done
                and cycle >= self.fetch_blocked_until
                and self.pending_branch is None
                and len(self.frontend) < self.config.frontend_buffer_per_thread)

    def rob_reservation(self) -> Optional[int]:
        """Shelf squash index at the head of the ROB — the shelf
        reservation pointer (paper Section III-B)."""
        if not self.rob:
            return None
        return self.rob[0].shelf_squash_idx

    def elder_spec_resolution(self, order_idx: int, cycle: int) -> int:
        """Latest unresolved resolution cycle among elder speculative
        instructions (classification's speculation-dependence check)."""
        worst = 0
        alive = []
        for idx, resolve in self.spec_inflight:
            if resolve <= cycle:
                continue  # resolved; prune
            alive.append((idx, resolve))
            if idx < order_idx and resolve > worst:
                worst = resolve
        self.spec_inflight = alive
        return worst
