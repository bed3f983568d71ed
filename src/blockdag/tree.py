"""Predecessor-tree scheduler: the address-keyed parallel baseline.

Every address in the block maps to two ascending lists in a per-address
table: its writers, and its accessors (the transactions that read or write
it). Addresses conflict only when they are equal (``blockdag.dag.conflicts``),
so unlike a radix tree over address prefixes the table needs no prefix walk.
A read waits for the earlier writers and a write for the earlier accessors,
so the build records one check per address a transaction touches: the
accessors list where it writes the address, the writers list where it only
reads it. Construction is serial. To grant a transaction, the scheduler
re-checks the completion status of the lower-index entries of each of those
lists — that per-address bookkeeping, serialized behind one lock, is the
cost this design pays relative to the DAG scheduler, and it is preserved
here on purpose. Workers run on the same blocking loop as the DAG executor
(``blockdag.scheduler.run_scheduled``), which takes a ``TreeRun`` as a run
object with ``grant(batch)`` and ``commit(i)``, the steps of the DAG's
``ReadyQueue``, and uses it from the first transaction: the tree has no
in-order head. ``TreeRun.grant`` grants batches of one. It cannot tell
whether another transaction is grantable without a second scan, so after
each successful grant the loop wakes a waiter or starts a helper.
"""

from __future__ import annotations

from .model import Block, ExecutionReport, StateStore
from .scheduler import _checked_processor, run_scheduled

UNSCHEDULED = 0
RUNNING = 1
DONE = 2


class PredecessorTree:
    """Per-address table: ``writers`` and ``accessors`` map each address to
    an ascending list of transaction indices. ``checks[j]`` holds one
    ``(slot, list)`` per address transaction j touches; the slot is the
    list's place in a run's done-prefix array."""

    def __init__(self) -> None:
        self.writers: dict[bytes, list[int]] = {}
        self.accessors: dict[bytes, list[int]] = {}
        self.checks: list[list[tuple[int, list[int]]]] = []
        self.txn_count = 0


def build_predecessor_tree(block: Block) -> PredecessorTree:
    tree = PredecessorTree()
    writers, accessors, checks = tree.writers, tree.accessors, tree.checks
    slots: dict[bytes, int] = {}  # address -> its writers' slot; accessors' is next
    for j, txn in enumerate(block.transactions):
        write_set = txn.write_set
        entry: list[tuple[int, list[int]]] = []
        for address in txn.read_set | write_set:
            slot = slots.get(address)
            if slot is None:
                slot = slots[address] = 2 * len(slots)
                writers[address] = []
                accessors[address] = []
            if address in write_set:
                entry.append((slot + 1, accessors[address]))
                writers[address].append(j)
            else:
                entry.append((slot, writers[address]))
            accessors[address].append(j)
        checks.append(entry)
    tree.txn_count = len(checks)
    return tree


class TreeRun:
    """Per-run tree scheduling state: the grant and commit steps of the loop.

    It holds each transaction's status and one done-prefix hint per list:
    ``_done_prefix[slot]`` counts how many leading entries of that slot's
    list are DONE. A hint only ever advances, which is safe because status
    transitions are monotonic. The run only reads the tree's ``checks``, so
    a fresh TreeRun makes the tree reusable across runs.
    """

    def __init__(self, tree: PredecessorTree) -> None:
        self.checks = tree.checks
        self.status = [UNSCHEDULED] * tree.txn_count
        self._first_pending = 0
        self._done_prefix = [0] * (2 * len(tree.accessors))

    def grant(self, batch: list[int]) -> bool:
        """Append to the empty list ``batch`` the lowest unscheduled
        transaction whose conflicting predecessors are all done, marking it
        RUNNING, and return True, since whether another is grantable takes a
        second scan; leave ``batch`` empty and return False when none is."""
        status = self.status
        n = len(status)
        first = self._first_pending
        while first < n and status[first] != UNSCHEDULED:
            first += 1
        self._first_pending = first
        checks, done_prefix = self.checks, self._done_prefix
        for i in range(first, n):
            if status[i] != UNSCHEDULED:
                continue
            # every entry below i in each checked list must be DONE
            for slot, listed in checks[i]:
                p = done_prefix[slot]
                size = len(listed)
                while p < size and status[listed[p]] == DONE:
                    p += 1
                done_prefix[slot] = p
                if p < size and listed[p] < i:
                    break
            else:
                status[i] = RUNNING
                batch.append(i)
                return True
        return False

    def commit(self, index: int) -> None:
        """Mark a running transaction DONE."""
        if self.status[index] != RUNNING:
            raise ValueError(f"transaction {index} is not running")
        self.status[index] = DONE


def execute_block_tree(
    block: Block,
    tree: PredecessorTree,
    store: StateStore,
    workers: int,
    processor=None,
    sim_work_us: int = 0,
) -> ExecutionReport:
    """Run the block through the predecessor-tree scheduler, on the loop at
    every worker count, one worker included.

    Each transaction's simulated work (``sim_work_us``) sleeps before its
    processor call. Raises ParallelExecutionError, carrying the partial
    report, when a worker fails.
    """
    if tree.txn_count != block.txn_count:
        raise ValueError("tree does not match block")
    processor = _checked_processor(processor, sim_work_us, workers)
    return run_scheduled(block, store, workers, TreeRun(tree), processor)
