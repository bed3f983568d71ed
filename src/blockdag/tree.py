"""Predecessor-tree scheduler: the address-keyed parallel baseline.

Every address in the block maps to a leaf of a byte-keyed prefix tree whose
node records which transactions read and write it. Construction is serial.
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


class _TrieNode:
    __slots__ = ("children", "read_list", "write_list", "leaf_id")

    def __init__(self) -> None:
        self.children: dict[int, _TrieNode] = {}
        self.read_list: list[int] = []
        self.write_list: list[int] = []
        self.leaf_id = -1


class PredecessorTree:
    """Prefix tree over address bytes with per-node read/write lists."""

    def __init__(self) -> None:
        self.root = _TrieNode()
        self.leaf_count = 0
        self.txn_count = 0
        # Per transaction: (node, writes_here) for each touched address, so
        # grant checks do not re-walk the trie.
        self._txn_nodes: list[list[tuple[_TrieNode, bool]]] = []

    def _descend(self, address: bytes) -> _TrieNode:
        node = self.root
        for byte in address:
            child = node.children.get(byte)
            if child is None:
                child = _TrieNode()
                node.children[byte] = child
            node = child
        if node.leaf_id < 0:
            node.leaf_id = self.leaf_count
            self.leaf_count += 1
        return node

    def node(self, address: bytes) -> _TrieNode | None:
        node = self.root
        for byte in address:
            node = node.children.get(byte)
            if node is None:
                return None
        return node


def tree_insert(tree: PredecessorTree, txn: Transaction) -> None:
    """Register a transaction's addresses; must be called in index order."""
    if txn.index != tree.txn_count:
        raise ValueError(
            f"insertions must follow index order: got {txn.index}, expected {tree.txn_count}"
        )
    entry: list[tuple[_TrieNode, bool]] = []
    for address in sorted(txn.read_set | txn.write_set):
        node = tree._descend(address)
        writes = address in txn.write_set
        if address in txn.read_set:
            node.read_list.append(txn.index)
        if writes:
            node.write_list.append(txn.index)
        entry.append((node, writes))
    tree._txn_nodes.append(entry)
    tree.txn_count += 1


def build_predecessor_tree(block: Block) -> PredecessorTree:
    tree = PredecessorTree()
    for txn in block.transactions:
        tree_insert(tree, txn)
    return tree


@dataclass
class TreeRun:
    """Per-run scheduling state: txn status plus per-node done-prefix hints.

    The hint arrays track how many leading entries of each node's lists are
    DONE; they only ever advance, which is safe because status transitions
    are monotonic. A fresh TreeRun makes the tree reusable across runs.
    """

    tree: PredecessorTree
    status: list[int] = field(init=False)
    done_count: int = field(init=False, default=0)
    _first_pending: int = field(init=False, default=0)
    _read_ptr: list[int] = field(init=False)
    _write_ptr: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.status = [UNSCHEDULED] * self.tree.txn_count
        self._read_ptr = [0] * self.tree.leaf_count
        self._write_ptr = [0] * self.tree.leaf_count

    def mark_done(self, index: int) -> None:
        if self.status[index] != RUNNING:
            raise ValueError(f"transaction {index} is not running")
        self.status[index] = DONE
        self.done_count += 1


def _lower_entries_done(lst: list[int], ptrs: list[int], leaf: int, status: list[int], limit: int) -> bool:
    p = ptrs[leaf]
    size = len(lst)
    while p < size and status[lst[p]] == DONE:
        p += 1
    ptrs[leaf] = p
    return p >= size or lst[p] >= limit


def _grantable(tree: PredecessorTree, run: TreeRun, index: int) -> bool:
    # A read competes with earlier writers; a write also competes with
    # earlier readers. Read-read sharing never blocks.
    status = run.status
    for node, writes in tree._txn_nodes[index]:
        leaf = node.leaf_id
        if not _lower_entries_done(node.write_list, run._write_ptr, leaf, status, index):
            return False
        if writes and not _lower_entries_done(node.read_list, run._read_ptr, leaf, status, index):
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
    for node, writes in tree._txn_nodes[index]:
        for other in node.write_list:
            if other < index:
                preds.add(other)
        if writes:
            for other in node.read_list:
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
