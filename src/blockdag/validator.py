"""Verification of a miner-shared dependency DAG.

The validator never rebuilds the DAG by pairwise scanning, and never fills
a DAG's storage. It checks the block's structure, runs the builder's
per-address pass (``dag.predecessor_sets``) once, and compares every
recomputed predecessor set with the transaction's declared dependencies:

* structure — each dependency list holds distinct indices strictly below
  the transaction's own, and its length equals the shared indegree entry;
* missing edges — a recomputed predecessor that is not declared;
* extra edges — a declared dependency that is not a recomputed predecessor.

Verdicts keep a fixed precedence over the whole block: a structural defect
anywhere is ``MALICIOUS_EXTRA_EDGE``; otherwise a missing edge anywhere is
``MALICIOUS_MISSING_EDGE``; otherwise any other mismatch is
``MALICIOUS_EXTRA_EDGE``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter, eq

from .dag import predecessor_sets
from .model import Address, Block

_DEPENDENCIES = attrgetter("declared_dependencies")


class Verdict(enum.Enum):
    HONEST = "honest"
    MALICIOUS_MISSING_EDGE = "malicious-missing-edge"
    MALICIOUS_EXTRA_EDGE = "malicious-extra-edge"


@dataclass
class AddressEntry:
    read_list: list[int] = field(default_factory=list)
    write_list: list[int] = field(default_factory=list)


class AddressAccessIndex:
    """Per-address read/write lists over a block, sorted by transaction index."""

    def __init__(self) -> None:
        self.entries: dict[Address, AddressEntry] = {}

    @property
    def adds_count(self) -> int:
        return len(self.entries)

    def _entry(self, address: Address) -> AddressEntry:
        entry = self.entries.get(address)
        if entry is None:
            entry = AddressEntry()
            self.entries[address] = entry
        return entry


def build_access_index(block: Block) -> AddressAccessIndex:
    """One pass over the block fills every address's read and write lists.

    Transactions are visited in index order, so every list comes out sorted.
    """
    index = AddressAccessIndex()
    for txn in block.transactions:
        for address in txn.read_set:
            index._entry(address).read_list.append(txn.index)
        for address in txn.write_set:
            index._entry(address).write_list.append(txn.index)
    return index


def validate_dag(
    block: Block,
    index: AddressAccessIndex | None = None,
    workers: int = 1,
) -> Verdict:
    """Judge the DAG a block carries: honest, or malicious and how.

    ``index`` is accepted so callers that already built one can pass it,
    but it is not read: the pass keeps its own per-address lists, which is
    cheaper than looking up prefixes of finished ones. ``workers`` must be
    >= 1 and is otherwise unused; the check runs on the calling thread.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # The honest case is decided by whole-list comparisons that run at C
    # speed and build a set only for transactions that declare dependencies,
    # which keeps validation cheaper than the build's per-edge fill. Only a
    # block that fails them is walked transaction by transaction.
    deps_of = list(map(_DEPENDENCIES, block.transactions))
    if block.shared_indegree is None or None in deps_of:
        raise ValueError("block does not carry a shared DAG")
    indegree = list(block.shared_indegree)
    if list(map(len, deps_of)) != indegree:
        return Verdict.MALICIOUS_EXTRA_EDGE
    computed = predecessor_sets(block)
    if list(map(len, computed)) == indegree and all(
        map(eq, compress(computed, indegree), map(frozenset, compress(deps_of, indegree)))
    ):
        return Verdict.HONEST
    missing = False
    for j, (preds, deps) in enumerate(zip(computed, deps_of)):
        declared = set(deps)
        if len(declared) != len(deps) or (deps and (min(deps) < 0 or max(deps) >= j)):
            return Verdict.MALICIOUS_EXTRA_EDGE
        missing = missing or not preds <= declared
    return Verdict.MALICIOUS_MISSING_EDGE if missing else Verdict.MALICIOUS_EXTRA_EDGE
