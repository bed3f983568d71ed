"""Dependency DAG construction over a block's declared read/write sets.

An edge (i, j) with i < j exists exactly when transactions i and j overlap
in a read-write, write-read, or write-write pattern; read-read overlap never
creates an edge. Construction is one single-threaded pass over the block
that keeps, per address, the transactions so far that wrote it and the ones
that read or wrote it: transaction j's predecessors are the prior writers of
every address j touches plus the prior readers of every address j writes.
Threads would not help, since they cannot overlap Python work under the GIL.
The same pass feeds the validator, so building and validating agree on the
edge set by construction.

Every DAG keeps each transaction's predecessors as an ascending tuple,
which is what the wire codec embeds and what the executor reads, so neither
has to walk the edge relation. A plain ``DependencyDAG`` holds nothing else
and answers edge queries from those tuples; ``dag_from_shared`` returns one,
since the validate path only executes the DAG it has just checked. Two
representations add storage on top, and ``build_dag`` fills the one it is
asked for: the adjacency-matrix variant backs the edge relation with a flat
byte grid (direct access), and the linked-list variant keeps a per-node
successor list. Every kind must hold identical edge sets and indegrees for
any block.
"""

from __future__ import annotations

import bisect

from .model import Block, Transaction

VARIANTS = ("matrix", "linked-list")


def conflicts(a: Transaction, b: Transaction) -> bool:
    """True when a and b overlap RW, WR, or WW. Requires a.index < b.index."""
    assert a.index < b.index, "conflicts() takes the lower-index transaction first"
    return (
        not a.write_set.isdisjoint(b.write_set)
        or not a.write_set.isdisjoint(b.read_set)
        or not a.read_set.isdisjoint(b.write_set)
    )


def predecessor_sets(block: Block) -> list[set[int]]:
    """Each transaction's predecessor set, from one pass over the block.

    The pass keeps, per address, the transactions so far that wrote it and
    the ones that read or wrote it. A read waits for every prior writer and
    a write for every prior reader or writer, which is exactly conflicts().
    A transaction is registered only after its own set is taken, so it is
    never its own predecessor.
    """
    writers: dict[bytes, list[int]] = {}
    accessors: dict[bytes, list[int]] = {}
    out: list[set[int]] = []
    for j, txn in enumerate(block.transactions):
        preds: set[int] = set()
        for address in txn.read_set:
            prior = writers.get(address)
            if prior:
                preds.update(prior)
        for address in txn.write_set:
            prior = accessors.get(address)
            if prior:
                preds.update(prior)
        out.append(preds)
        for address in txn.read_set | txn.write_set:
            accessors.setdefault(address, []).append(j)
        for address in txn.write_set:
            writers.setdefault(address, []).append(j)
    return out


class DependencyDAG:
    """A DAG kept as predecessor tuples, and the base of both representations.

    ``indegree[j]`` is the number of edges into j, and ``_preds[j]`` the
    ascending tuple of their sources; both are kept in step with the edge
    relation. This class answers every edge query from the tuples, and a
    subclass that adds storage overrides ``_insert``, ``_store``,
    ``has_edge`` and ``successors``. Executors never change the DAG, so one
    DAG can be executed any number of times.
    """

    def __init__(self, txn_count: int) -> None:
        self.txn_count = txn_count
        self.indegree = [0] * txn_count
        self.edge_count = 0
        self._preds: list[tuple[int, ...]] = [()] * txn_count

    def add_edge(self, i: int, j: int) -> bool:
        """Insert edge (i, j) if absent; True when it was new.

        Keeping j's predecessor tuple sorted copies it, so one call costs
        O(indegree of j); bulk loads go through ``_fill`` instead.
        """
        if not 0 <= i < j < self.txn_count:
            raise ValueError(f"edge ({i}, {j}) out of range for n={self.txn_count}")
        if self._insert(i, j):
            self.indegree[j] += 1
            self.edge_count += 1
            preds = self._preds[j]
            at = bisect.bisect(preds, i)
            self._preds[j] = preds[:at] + (i,) + preds[at:]
            return True
        return False

    def _fill(self, preds: list) -> None:
        """Load every transaction's predecessors into this empty DAG.

        ``preds[j]`` must hold distinct indices below j, in any order.
        """
        self.indegree = [len(p) for p in preds]
        self.edge_count = sum(self.indegree)
        self._preds = [tuple(sorted(p)) if p else () for p in preds]
        self._store(self._preds)

    def _insert(self, i: int, j: int) -> bool:
        """Record edge (i, j) in the storage; False when it was there."""
        return not self.has_edge(i, j)

    def _store(self, preds: list[tuple[int, ...]]) -> None:
        """Load the storage from filled predecessor tuples; none here."""

    def has_edge(self, i: int, j: int) -> bool:
        preds = self._preds[j]
        at = bisect.bisect_left(preds, i)
        return at < len(preds) and preds[at] == i

    def successors(self, i: int) -> list[int]:
        return [j for j in range(i + 1, self.txn_count) if self.has_edge(i, j)]

    def edges(self):
        for i in range(self.txn_count):
            for j in self.successors(i):
                yield (i, j)

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges())

    def predecessor_lists(self) -> list[tuple[int, ...]]:
        """Each transaction's predecessors, ascending; no edge walk."""
        return list(self._preds)

    def indegree_snapshot(self) -> list[int]:
        return list(self.indegree)


class MatrixDAG(DependencyDAG):
    """Adjacency-matrix representation: n*n byte grid, direct access."""

    variant = "matrix"

    def __init__(self, txn_count: int) -> None:
        super().__init__(txn_count)
        self._cells = bytearray(txn_count * txn_count)

    def _insert(self, i: int, j: int) -> bool:
        k = i * self.txn_count + j
        if self._cells[k]:
            return False
        self._cells[k] = 1
        return True

    def _store(self, preds: list[tuple[int, ...]]) -> None:
        n = self.txn_count
        cells = self._cells
        for j, column in enumerate(preds):
            for i in column:
                cells[i * n + j] = 1

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self._cells[i * self.txn_count + j])

    def successors(self, i: int) -> list[int]:
        n = self.txn_count
        base = i * n
        end = base + n
        out = []
        k = self._cells.find(1, base, end)
        while k != -1:
            out.append(k - base)
            k = self._cells.find(1, k + 1, end)
        return out

    def matrix_bytes(self) -> bytes:
        return bytes(self._cells)


class LinkedListDAG(DependencyDAG):
    """Per-node successor lists with insert-if-absent."""

    variant = "linked-list"

    def __init__(self, txn_count: int) -> None:
        super().__init__(txn_count)
        self._succ: list[list[int]] = [[] for _ in range(txn_count)]

    def _insert(self, i: int, j: int) -> bool:
        if j in self._succ[i]:
            return False
        self._succ[i].append(j)
        return True

    def _store(self, preds: list[tuple[int, ...]]) -> None:
        succ = self._succ
        for j, column in enumerate(preds):
            for i in column:
                succ[i].append(j)

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._succ[i]

    def successors(self, i: int) -> list[int]:
        return sorted(self._succ[i])


def _new_dag(txn_count: int, variant: str) -> DependencyDAG:
    if variant == "matrix":
        return MatrixDAG(txn_count)
    if variant == "linked-list":
        return LinkedListDAG(txn_count)
    raise ValueError(f"unknown DAG variant: {variant!r} (expected one of {VARIANTS})")


def build_dag(block: Block, workers: int = 1, variant: str = "matrix") -> DependencyDAG:
    """Construct the block's dependency DAG in the chosen representation.

    ``workers`` must be >= 1 and is otherwise unused: the single pass of
    predecessor_sets runs on the calling thread, because threads cannot
    overlap pure-Python work under the GIL. The result is the same edge set
    and indegrees for every variant.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    dag = _new_dag(block.txn_count, variant)
    dag._fill(predecessor_sets(block))
    return dag


def brute_force_dag(block: Block) -> DependencyDAG:
    """Single-threaded reference builder, straight from the edge definition.

    Deliberately kept independent of build_dag's per-address pass: it calls
    conflicts() on the declared sets pair by pair, and exists so the fast
    builder has something to be checked against. Each transaction's
    predecessors are collected in ascending order and loaded once, since
    inserting edge by edge would copy a predecessor tuple per edge.
    """
    txns = block.transactions
    dag = MatrixDAG(block.txn_count)
    dag._fill(
        [[i for i in range(j) if conflicts(txns[i], txn)] for j, txn in enumerate(txns)]
    )
    return dag


def dag_from_shared(block: Block) -> DependencyDAG:
    """The DAG embedded in a shared block, kept as predecessor tuples only.

    Duplicate dependencies count once, in indegree too. No storage is
    filled: the validate path only executes this DAG, and the executor
    reads the tuples.
    """
    if not block.has_shared_dag:
        raise ValueError("block does not carry a shared DAG")
    dag = DependencyDAG(block.txn_count)
    dag._fill([set(txn.declared_dependencies) for txn in block.transactions])
    # each tuple is ascending, so its ends are its minimum and maximum
    for j, preds in enumerate(dag._preds):
        if preds and (preds[0] < 0 or preds[-1] >= j):
            deps = block.transactions[j].declared_dependencies
            bad = next(dep for dep in deps if not 0 <= dep < j)
            raise ValueError(f"transaction {j} declares invalid dependency {bad}")
    return dag
