"""Dependency DAG construction over a block's declared read/write sets.

An edge (i, j) with i < j exists exactly when transactions i and j overlap
in a read-write, write-read, or write-write pattern; read-read overlap never
creates an edge. Construction is one single-threaded pass over the block
that keeps, per address, the transactions so far that wrote it and the ones
that read or wrote it: transaction j's predecessors are the prior writers of
every address j touches plus the prior readers of every address j writes.
Threads would not help, since they cannot overlap Python work under the GIL.
The pass returns one ``AccessIndex``: the block, every transaction's
predecessors as an ascending tuple, and the per-address lists. It is the
only per-address index outside the tree baseline. The builder and the
validator read its tuples, so building and validating agree on the edge set
by construction, and the conflict metrics (``workload.conflict_metrics``)
read its lists.

Every DAG is a ``DependencyDAG``, whose ``preds`` is a tuple holding each
transaction's predecessors as an ascending tuple, built once and never
changed. The wire codec embeds it and the executor reads it in place, so
neither walks the edge relation or copies it. The public constructor sorts,
drops repeats and checks that every predecessor is below its transaction;
``edges()``, the edge count and the indegrees come from ``preds``.
``build_dag`` wraps the pass's tuples as they are
(``DependencyDAG._from_pass``), ``dag_from_shared`` builds one from a shared
block's declared dependencies, and ``brute_force_dag`` from ``conflicts()``
pair by pair; all three must hold identical edge sets and indegrees for any
block. ``dag_from_shared`` wraps the declared tuples as they are too when the
validator has marked the block (an honest verdict by exact compare with the
pass's tuples), and sends any other block's lists through the constructor.
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
    """One block's per-address pass: the block, predecessor tuples and lists.

    ``preds[j]`` is transaction j's predecessors as an ascending tuple of
    distinct indices below j; ``writers`` and ``accessors`` map each address
    to the ascending indices that wrote it and that read or wrote it.
    """

    block: Block
    preds: list[tuple[int, ...]]
    writers: dict[bytes, list[int]]
    accessors: dict[bytes, list[int]]


def address_pass(block: Block) -> AccessIndex:
    """The one per-address pass: predecessor tuples, writers and accessors.

    The pass keeps, per address, the transactions so far that wrote it and
    the ones that read or wrote it, and returns both lists (ascending) next
    to each transaction's predecessors. A read waits for every prior writer
    and a write for every prior reader or writer, which is exactly
    conflicts(). An address's accessors include its writers, so the writers
    are read only for addresses the transaction reads but does not write,
    and not at all when its read set is its write set object (most ops), which
    also skips the union of the two.
    A transaction is registered only after its predecessors are taken, so it
    is never its own predecessor. Every per-address list is strictly
    ascending, so when all the lists a transaction reads are equal (a voting
    ballot reads two registries, each accessed by every earlier ballot) its
    predecessors are a copy of one of them; otherwise they are the sorted
    union. Either way the tuple does not depend on the order in which the
    sets are iterated. The conflict metrics read the per-address lists; the
    DAG builder and the validator only the tuples.
    """
    writers: dict[bytes, list[int]] = {}
    accessors: dict[bytes, list[int]] = {}
    out: list[tuple[int, ...]] = []
    for j, txn in enumerate(block.transactions):
        lists: list[list[int]] = []
        read_set = txn.read_set
        write_set = txn.write_set
        same = read_set is write_set
        if not same:
            for address in read_set:
                if address not in write_set:
                    prior = writers.get(address)
                    if prior:
                        lists.append(prior)
        for address in write_set:
            prior = accessors.get(address)
            if prior:
                lists.append(prior)
        if not lists:
            out.append(())
        elif lists.count(lists[0]) == len(lists):
            # list == checks the length first, so unequal lists are cheap to reject
            out.append(tuple(lists[0]))
        else:
            out.append(tuple(sorted(set().union(*lists))))
        for address in write_set if same else read_set | write_set:
            prior = accessors.get(address)
            if prior is None:
                accessors[address] = [j]
            else:
                prior.append(j)
        for address in write_set:
            prior = writers.get(address)
            if prior is None:
                writers[address] = [j]
            else:
                prior.append(j)
    return AccessIndex(block, out, writers, accessors)


class DependencyDAG:
    """A DAG kept as predecessor tuples alone.

    The constructor's ``preds[j]`` holds the indices below j that j waits
    for, in any order, and a repeat counts once; one that is negative or
    not below j raises ``ValueError``, so no DAG can make an executor wait
    for a transaction that never commits. The DAG is built once from them
    and never changed: ``self.preds`` is a tuple whose entry j is their
    ascending tuple without repeats. Readers take it in place, never a
    copy, and indegrees, the edge count and ``edges()`` come from it.
    Executors only read the DAG, so one DAG can be executed any number of
    times.

    ``_from_pass`` is the one other constructor: it wraps ``address_pass``
    tuples, or declared lists proven equal to them, without sorting or
    checking them, since the pass emits only ascending, distinct indices
    below each transaction.
    """

    def __init__(self, preds: list) -> None:
        self.txn_count = len(preds)
        self.preds = tuple(tuple(sorted(set(p))) if p else () for p in preds)
        # each tuple is ascending, so its ends are its minimum and maximum
        for j, column in enumerate(self.preds):
            if column and (column[0] < 0 or column[-1] >= j):
                bad = next(i for i in preds[j] if not 0 <= i < j)
                raise ValueError(f"transaction {j} declares invalid dependency {bad}")
        self.edge_count = sum(map(len, self.preds))

    @classmethod
    def _from_pass(cls, preds: list[tuple[int, ...]]) -> DependencyDAG:
        """The DAG of ``address_pass`` tuples (or tuples equal to them), kept as they are."""
        dag = cls.__new__(cls)
        dag.txn_count = len(preds)
        dag.preds = tuple(preds)
        dag.edge_count = sum(map(len, preds))
        return dag

    def edges(self):
        """Every edge (i, j) once, grouped by j; a walk of the kept tuples."""
        for j, column in enumerate(self.preds):
            for i in column:
                yield (i, j)

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges())

    def indegree_snapshot(self) -> list[int]:
        return list(map(len, self.preds))


def build_dag(block: Block, workers: int = 1) -> DependencyDAG:
    """Construct the block's dependency DAG from the one per-address pass.

    ``workers`` is only range-checked (>= 1) and kept because the benchmark
    passes it: the single ``address_pass`` runs on the calling thread, since
    threads cannot overlap pure-Python work under the GIL.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return DependencyDAG._from_pass(address_pass(block).preds)


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

    A block that ``validate_dag`` found honest by exact compare carries the
    private ``_canonical_deps`` mark: its lists are the pass's ascending
    tuples, so they are wrapped in place (``DependencyDAG._from_pass``), with
    no copy, sort or check. Any other block's lists go to ``DependencyDAG``
    as they are, and a repeat counts once. Its range check never fires here:
    ``Transaction`` and ``parse_block`` admit only dependencies below their
    transaction, so no block can carry another.
    """
    if not block.has_shared_dag:
        raise ValueError("block does not carry a shared DAG")
    deps = [txn.declared_dependencies for txn in block.transactions]
    if block._canonical_deps:
        return DependencyDAG._from_pass(deps)
    return DependencyDAG(deps)
