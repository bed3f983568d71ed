"""Dependency DAG construction over a block's declared read/write sets.

An edge (i, j) with i < j exists exactly when transactions i and j overlap
in a read-write, write-read, or write-write pattern; read-read overlap never
creates an edge. Construction is one single-threaded pass over the block
that keeps, per address, the transactions so far that wrote it and the ones
that read or wrote it: transaction j's predecessors are the prior writers of
every address j touches plus the prior readers of every address j writes.
Threads would not help, since they cannot overlap Python work under the GIL.
The pass returns one ``AccessIndex``: the block, every predecessor set and
the per-address lists. It is the only per-address index outside the tree
baseline. The builder and the validator read its sets, so building and
validating agree on the edge set by construction, and the conflict metrics
(``workload.conflict_metrics``) read its lists.

Every DAG is a ``DependencyDAG``: each transaction's predecessors as an
ascending tuple, built once and never changed. Those tuples are what the
wire codec embeds and what the executor reads, so neither has to walk the
edge relation, and the DAG keeps nothing else. The constructor checks that
every predecessor is below its transaction; ``edges()``, the edge count and
the indegrees come from the tuples. ``build_dag`` builds one from the pass,
``dag_from_shared`` from a shared block's declared dependencies, and
``brute_force_dag`` from ``conflicts()`` pair by pair; all three must hold
identical edge sets and indegrees for any block.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import Block, Transaction


def conflicts(a: Transaction, b: Transaction) -> bool:
    """True when a and b overlap RW, WR, or WW. Requires a.index < b.index."""
    assert a.index < b.index, "conflicts() takes the lower-index transaction first"
    return (
        not a.write_set.isdisjoint(b.write_set)
        or not a.write_set.isdisjoint(b.read_set)
        or not a.read_set.isdisjoint(b.write_set)
    )


class AccessIndex(NamedTuple):
    """One block's per-address pass: the block, predecessor sets and lists.

    ``preds[j]`` is transaction j's predecessor set; ``writers`` and
    ``accessors`` map each address to the ascending indices that wrote it
    and that read or wrote it.
    """

    block: Block
    preds: list[set[int]]
    writers: dict[bytes, list[int]]
    accessors: dict[bytes, list[int]]


def address_pass(block: Block) -> AccessIndex:
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
    return AccessIndex(block, out, writers, accessors)


class DependencyDAG:
    """A DAG kept as predecessor tuples alone.

    ``preds[j]`` holds the distinct indices below j that j waits for, in any
    order; one that is negative or not below j raises ``ValueError``, so no
    DAG can make an executor wait for a transaction that never commits. The
    DAG is built once from them and never changed: ``_preds[j]`` is their
    ascending tuple, and indegrees, the edge count and ``edges()`` come from
    the tuples. Executors only read the DAG, so one DAG can be executed any
    number of times.
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


def build_dag(block: Block, workers: int = 1) -> DependencyDAG:
    """Construct the block's dependency DAG from the one per-address pass.

    ``workers`` is only range-checked (>= 1) and kept because the benchmark
    passes it: the single ``address_pass`` runs on the calling thread, since
    threads cannot overlap pure-Python work under the GIL.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return DependencyDAG(address_pass(block).preds)


def brute_force_dag(block: Block) -> DependencyDAG:
    """Single-threaded reference builder, straight from the edge definition.

    Deliberately kept independent of build_dag's per-address pass: it calls
    conflicts() on the declared sets pair by pair, and exists so the fast
    builder has something to be checked against.
    """
    txns = block.transactions
    return DependencyDAG(
        [[i for i in range(j) if conflicts(txns[i], txn)] for j, txn in enumerate(txns)]
    )


def dag_from_shared(block: Block) -> DependencyDAG:
    """The DAG embedded in a shared block, from its declared dependencies.

    Duplicate dependencies count once, in indegree too, and a dependency
    that is negative or not below its transaction raises ``ValueError``.
    """
    if not block.has_shared_dag:
        raise ValueError("block does not carry a shared DAG")
    return DependencyDAG([set(txn.declared_dependencies) for txn in block.transactions])
