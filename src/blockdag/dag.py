"""Dependency DAG construction over a block's declared read/write sets.

An edge (i, j) with i < j exists exactly when transactions i and j overlap
in a read-write, write-read, or write-write pattern; read-read overlap never
creates an edge. Construction is one single-threaded pass over the block
that keeps, per address, the transactions so far that wrote it and the ones
that read or wrote it: transaction j's predecessors are the prior writers of
every address j touches plus the prior readers of every address j writes.
Threads would not help, since they cannot overlap Python work under the GIL.
The same pass feeds the validator, so building and validating agree on the
edge set by construction, and its per-address lists feed the conflict
metrics (``workload.conflict_metrics``).

Every DAG is built once from each transaction's predecessor set and never
changed. It keeps those predecessors as an ascending tuple, which is what
the wire codec embeds and what the executor reads, so neither has to walk
the edge relation. The constructor checks that every predecessor is below
its transaction, and ``edges()`` walks the tuples for every kind. A plain
``DependencyDAG`` holds nothing else and answers edge queries from those
tuples; ``build_dag`` returns one unless a variant is named, and
``dag_from_shared`` returns one, since the validate path only executes the
DAG it has just checked. Two representations add storage on top, and only
``build_dag`` with a named variant and the brute-force oracle fill it: the
adjacency-matrix variant backs ``has_edge``/``successors`` with a flat byte
grid (direct access), and the linked-list variant keeps a per-node
successor list. Every kind must hold identical edge sets and indegrees for
any block.
"""

from __future__ import annotations

import bisect

from .model import Block, Transaction


def conflicts(a: Transaction, b: Transaction) -> bool:
    """True when a and b overlap RW, WR, or WW. Requires a.index < b.index."""
    assert a.index < b.index, "conflicts() takes the lower-index transaction first"
    return (
        not a.write_set.isdisjoint(b.write_set)
        or not a.write_set.isdisjoint(b.read_set)
        or not a.read_set.isdisjoint(b.write_set)
    )


def address_pass(
    block: Block,
) -> tuple[list[set[int]], dict[bytes, list[int]], dict[bytes, list[int]]]:
    """The one per-address pass: predecessor sets, writers and accessors.

    The pass keeps, per address, the transactions so far that wrote it and
    the ones that read or wrote it, and returns both lists (ascending) next
    to each transaction's predecessor set. A read waits for every prior
    writer and a write for every prior reader or writer, which is exactly
    conflicts(). An address's accessors include its writers, so the writers
    are read only for addresses the transaction reads but does not write.
    A transaction is registered only after its own set is taken, so it is
    never its own predecessor. The conflict metrics read the per-address
    lists; the DAG builder and the validator only the sets.
    """
    writers: dict[bytes, list[int]] = {}
    accessors: dict[bytes, list[int]] = {}
    out: list[set[int]] = []
    for j, txn in enumerate(block.transactions):
        preds: set[int] = set()
        write_set = txn.write_set
        for address in txn.read_set:
            if address not in write_set:
                prior = writers.get(address)
                if prior:
                    preds.update(prior)
        for address in write_set:
            prior = accessors.get(address)
            if prior:
                preds.update(prior)
        out.append(preds)
        for address in txn.read_set | write_set:
            accessors.setdefault(address, []).append(j)
        for address in write_set:
            writers.setdefault(address, []).append(j)
    return out, writers, accessors


def predecessor_sets(block: Block) -> list[set[int]]:
    """Each transaction's predecessor set, from one pass over the block."""
    return address_pass(block)[0]


class DependencyDAG:
    """A DAG kept as predecessor tuples, and the base of both representations.

    ``preds[j]`` holds the distinct indices below j that j waits for, in any
    order; one that is negative or not below j raises ``ValueError``, so no
    DAG can make an executor wait for a transaction that never commits. The
    DAG is built once from them and never changed: ``_preds[j]`` is their
    ascending tuple, and indegrees, the edge count and ``edges()`` come from
    the tuples. This class answers every edge query from the tuples, and a
    subclass that adds storage overrides ``_store``, ``has_edge`` and
    ``successors``. Executors only read the DAG, so one DAG can be executed
    any number of times.
    """

    def __init__(self, preds: list) -> None:
        self.txn_count = len(preds)
        self._preds: list[tuple[int, ...]] = [tuple(sorted(p)) if p else () for p in preds]
        # each tuple is ascending, so its ends are its minimum and maximum
        for j, column in enumerate(self._preds):
            if column and (column[0] < 0 or column[-1] >= j):
                bad = next(i for i in preds[j] if not 0 <= i < j)
                raise ValueError(f"transaction {j} declares invalid dependency {bad}")
        self.edge_count = sum(map(len, self._preds))
        self._store(self._preds)

    def _store(self, preds: list[tuple[int, ...]]) -> None:
        """Allocate and fill the storage from the predecessor tuples; none here."""

    def has_edge(self, i: int, j: int) -> bool:
        preds = self._preds[j]
        at = bisect.bisect_left(preds, i)
        return at < len(preds) and preds[at] == i

    def successors(self, i: int) -> list[int]:
        return [j for j in range(i + 1, self.txn_count) if self.has_edge(i, j)]

    def edges(self):
        """Every edge (i, j) once, grouped by j; a walk of the kept tuples."""
        for j, column in enumerate(self._preds):
            for i in column:
                yield (i, j)

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges())

    def predecessor_lists(self) -> list[tuple[int, ...]]:
        """Each transaction's predecessors, ascending; no edge walk."""
        return list(self._preds)

    def indegree_snapshot(self) -> list[int]:
        return list(map(len, self._preds))


class MatrixDAG(DependencyDAG):
    """Adjacency-matrix representation: n*n byte grid, direct access."""

    def _store(self, preds: list[tuple[int, ...]]) -> None:
        n = self.txn_count
        self._cells = cells = bytearray(n * n)
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
    """Per-node successor lists, ascending by construction."""

    def _store(self, preds: list[tuple[int, ...]]) -> None:
        self._succ = succ = [[] for _ in preds]
        for j, column in enumerate(preds):
            for i in column:
                succ[i].append(j)

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._succ[i]

    def successors(self, i: int) -> list[int]:
        return list(self._succ[i])


_CLASSES = {"matrix": MatrixDAG, "linked-list": LinkedListDAG}


def build_dag(block: Block, workers: int = 1, variant: str | None = None) -> DependencyDAG:
    """Construct the block's dependency DAG, by default as predecessor tuples alone.

    ``variant`` names a representation that adds storage on top ("matrix"
    or "linked-list"); the default fills none, since no executor, codec or
    validator reads it. ``workers`` must be >= 1 and is otherwise unused:
    the single pass of predecessor_sets runs on the calling thread, because
    threads cannot overlap pure-Python work under the GIL. The result is
    the same edge set and indegrees for every variant.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cls = DependencyDAG if variant is None else _CLASSES.get(variant)
    if cls is None:
        raise ValueError(f"unknown DAG variant: {variant!r} (expected one of {tuple(_CLASSES)})")
    return cls(predecessor_sets(block))


def brute_force_dag(block: Block) -> DependencyDAG:
    """Single-threaded reference builder, straight from the edge definition.

    Deliberately kept independent of build_dag's per-address pass: it calls
    conflicts() on the declared sets pair by pair, and exists so the fast
    builder has something to be checked against.
    """
    txns = block.transactions
    return MatrixDAG(
        [[i for i in range(j) if conflicts(txns[i], txn)] for j, txn in enumerate(txns)]
    )


def dag_from_shared(block: Block) -> DependencyDAG:
    """The DAG embedded in a shared block, kept as predecessor tuples only.

    Duplicate dependencies count once, in indegree too, and a dependency
    that is negative or not below its transaction raises ``ValueError``. No
    storage is filled: the validate path only executes this DAG, and the
    executor reads the tuples.
    """
    if not block.has_shared_dag:
        raise ValueError("block does not carry a shared DAG")
    return DependencyDAG([set(txn.declared_dependencies) for txn in block.transactions])
