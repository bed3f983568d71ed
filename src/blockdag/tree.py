"""Predecessor-tree scheduler: the address-keyed parallel baseline.

Every address in the block maps to one record of a per-address table that
lists which transactions read and write it. Addresses conflict only when
they are equal (``blockdag.dag.conflicts``), so unlike a radix tree over
address prefixes the table needs no prefix walk. Construction is serial.
To grant a transaction, the scheduler re-checks the completion status of all
lower-index transactions sharing an address with it in a conflicting
pattern — that per-address bookkeeping, serialized behind one lock, is the
cost this design pays relative to the DAG scheduler, and it is preserved
here on purpose. Workers run on the same blocking loop as the DAG executor
(``blockdag.scheduler.run_scheduled``), with this grant check and
``TreeRun.mark_done`` as its grant and commit steps, granting batches of
one. The check cannot tell whether another transaction is grantable without
a second scan, so after each successful grant the loop wakes a waiter or
starts a helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Block, ExecutionReport, StateStore, Transaction
from .scheduler import run_scheduled

UNSCHEDULED = 0
RUNNING = 1
DONE = 2


class _AddressRecord:
    __slots__ = ("read_list", "write_list", "slot")

    def __init__(self, slot: int) -> None:
        self.read_list: list[int] = []
        self.write_list: list[int] = []
        self.slot = slot  # index into TreeRun's done-prefix arrays


class PredecessorTree:
    """Per-address table: each address maps to the ascending lists of the
    transactions that read and write it. Addresses conflict only when equal,
    so no prefix walk is needed."""

    def __init__(self) -> None:
        self._records: dict[bytes, _AddressRecord] = {}
        self.txn_count = 0
        # Per transaction: (record, writes_here) for each touched address, so
        # grant checks do not look addresses up again.
        self._txn_records: list[list[tuple[_AddressRecord, bool]]] = []

    def node(self, address: bytes) -> _AddressRecord | None:
        return self._records.get(address)


def tree_insert(tree: PredecessorTree, txn: Transaction) -> None:
    """Register a transaction's addresses; must be called in index order."""
    if txn.index != tree.txn_count:
        raise ValueError(
            f"insertions must follow index order: got {txn.index}, expected {tree.txn_count}"
        )
    records = tree._records
    entry: list[tuple[_AddressRecord, bool]] = []
    for address in sorted(txn.read_set | txn.write_set):
        record = records.get(address)
        if record is None:
            record = records[address] = _AddressRecord(len(records))
        writes = address in txn.write_set
        if address in txn.read_set:
            record.read_list.append(txn.index)
        if writes:
            record.write_list.append(txn.index)
        entry.append((record, writes))
    tree._txn_records.append(entry)
    tree.txn_count += 1


def build_predecessor_tree(block: Block) -> PredecessorTree:
    tree = PredecessorTree()
    for txn in block.transactions:
        tree_insert(tree, txn)
    return tree


@dataclass
class TreeRun:
    """Per-run scheduling state: txn status plus per-address done-prefix hints.

    The hint arrays, indexed by each record's slot, track how many leading
    entries of each address's lists are DONE; they only ever advance, which
    is safe because status transitions are monotonic. A fresh TreeRun makes
    the tree reusable across runs.
    """

    tree: PredecessorTree
    status: list[int] = field(init=False)
    done_count: int = field(init=False, default=0)
    _first_pending: int = field(init=False, default=0)
    _read_ptr: list[int] = field(init=False)
    _write_ptr: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.status = [UNSCHEDULED] * self.tree.txn_count
        slots = len(self.tree._records)
        self._read_ptr = [0] * slots
        self._write_ptr = [0] * slots

    def mark_done(self, index: int) -> None:
        if self.status[index] != RUNNING:
            raise ValueError(f"transaction {index} is not running")
        self.status[index] = DONE
        self.done_count += 1


def _lower_entries_done(lst: list[int], ptrs: list[int], slot: int, status: list[int], limit: int) -> bool:
    p = ptrs[slot]
    size = len(lst)
    while p < size and status[lst[p]] == DONE:
        p += 1
    ptrs[slot] = p
    return p >= size or lst[p] >= limit


def _grantable(tree: PredecessorTree, run: TreeRun, index: int) -> bool:
    # A read competes with earlier writers; a write also competes with
    # earlier readers. Read-read sharing never blocks.
    status = run.status
    for record, writes in tree._txn_records[index]:
        slot = record.slot
        if not _lower_entries_done(record.write_list, run._write_ptr, slot, status, index):
            return False
        if writes and not _lower_entries_done(record.read_list, run._read_ptr, slot, status, index):
            return False
    return True


def tree_next_txn(tree: PredecessorTree, run: TreeRun) -> int | None:
    """Grant the lowest-index unscheduled transaction whose conflicting
    predecessors are all done, marking it RUNNING, or return None when no
    transaction can be granted now; callers serialize this behind one lock."""
    n = tree.txn_count
    status = run.status
    first = run._first_pending
    while first < n and status[first] != UNSCHEDULED:
        first += 1
    run._first_pending = first
    for i in range(first, n):
        if status[i] != UNSCHEDULED:
            continue
        if _grantable(tree, run, i):
            status[i] = RUNNING
            return i
    return None


def tree_predecessors(tree: PredecessorTree, index: int) -> set[int]:
    """Lower-index transactions this one must wait for (test/inspection aid)."""
    preds: set[int] = set()
    for record, writes in tree._txn_records[index]:
        for other in record.write_list:
            if other < index:
                preds.add(other)
        if writes:
            for other in record.read_list:
                if other < index:
                    preds.add(other)
    return preds


def execute_block_tree(
    block: Block,
    tree: PredecessorTree,
    store: StateStore,
    workers: int,
    processor=None,
    sim_work_us: int = 0,
) -> ExecutionReport:
    """Run the block through the predecessor-tree scheduler.

    Raises ParallelExecutionError, carrying the partial report, when a
    worker fails.
    """
    if tree.txn_count != block.txn_count:
        raise ValueError("tree does not match block")
    run = TreeRun(tree)

    def grant(batch: list[int]) -> bool:
        index = tree_next_txn(tree, run)
        if index is None:
            return False
        batch.append(index)
        return True  # cannot tell without a second scan

    return run_scheduled(
        block,
        store,
        workers,
        grant,
        run.mark_done,
        processor,
        sim_work_us,
    )
