"""Verification of a miner-shared dependency DAG.

The validator never rebuilds the DAG by pairwise scanning, and never fills
a DAG's storage. It checks the block's structure, reads the predecessor
tuples of the builder's per-address pass (``dag.address_pass``, run once
per block, by the caller through ``build_access_index`` or here), and
compares every recomputed predecessor tuple with the transaction's declared
dependencies:

* structure — each dependency list holds distinct indices, and its length
  equals the shared indegree entry;
* missing edges — a recomputed predecessor that is not declared;
* extra edges — a declared dependency that is not a recomputed predecessor.

An honest block as the builder shares it declares exactly the pass's
ascending tuples, so its verdict is one list compare. That compare proves
the declared lists canonical, so the validator marks the block (the private
``Block._canonical_deps``) and ``dag.dag_from_shared`` then wraps the lists
instead of sorting them again. An honest block whose lists are permuted
matches once each list is sorted, and is not marked. Any other block is
walked transaction by transaction for the verdicts below.

No dependency is range-checked here. Every one is an ``int`` below its
transaction's index, since ``Transaction`` refuses any other where it is
made and ``parse_block`` refuses one on the wire, so a forward, negative or
non-integer dependency never reaches a verdict.

Verdicts keep a fixed precedence over the whole block: a structural defect
anywhere, a repeated dependency or an indegree entry that is not its list's
length, is ``MALICIOUS_EXTRA_EDGE``; otherwise a missing edge anywhere is
``MALICIOUS_MISSING_EDGE``; otherwise any other mismatch is
``MALICIOUS_EXTRA_EDGE``.
"""

from __future__ import annotations

import enum
from operator import attrgetter

from .dag import AccessIndex, address_pass
from .model import Block

_DEPENDENCIES = attrgetter("declared_dependencies")


class Verdict(enum.Enum):
    HONEST = "honest"
    MALICIOUS_MISSING_EDGE = "malicious-missing-edge"
    MALICIOUS_EXTRA_EDGE = "malicious-extra-edge"


def build_access_index(block: Block) -> AccessIndex:
    """The block's per-address pass, for ``validate_dag`` to read."""
    return address_pass(block)


def validate_dag(
    block: Block,
    index: AccessIndex | None = None,
    workers: int = 1,
) -> Verdict:
    """Judge the DAG a block carries: honest, or malicious and how.

    ``index`` is this block's ``build_access_index`` result: its tuples are
    read and the pass is not run again, and one built from another block
    object raises ``ValueError``. Without an index, the pass runs here.
    ``workers`` is only range-checked (>= 1) and kept because the benchmark
    passes it; the check runs on the calling thread. An honest verdict by
    exact compare marks the block as holding canonical lists
    (``Block._canonical_deps``), which ``dag_from_shared`` reads; no other
    verdict marks it.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if index is not None and index.block is not block:
        raise ValueError("access index was built from another block")
    if not block.has_shared_dag:
        raise ValueError("block does not carry a shared DAG")
    # The honest case is decided by whole-list comparisons at C speed. Only
    # a block that fails them is walked transaction by transaction.
    deps_of = list(map(_DEPENDENCIES, block.transactions))
    indegree = list(block.shared_indegree)
    if list(map(len, deps_of)) != indegree:
        return Verdict.MALICIOUS_EXTRA_EDGE
    computed = (address_pass(block) if index is None else index).preds
    # Equal to the pass's ascending tuples means distinct and of the
    # declared length, which is every structural check left; a declared list
    # that sorts to its tuple is a permutation of it, so honest too.
    if computed == deps_of:
        # Every list is then an ascending tuple in the block's own tuple of
        # transactions, so dag_from_shared may wrap them as they are.
        object.__setattr__(block, "_canonical_deps", True)
        return Verdict.HONEST
    if computed == [tuple(sorted(deps)) for deps in deps_of]:
        return Verdict.HONEST
    missing = False
    for preds, deps in zip(computed, deps_of):
        declared = set(deps)
        if len(declared) != len(deps):
            return Verdict.MALICIOUS_EXTRA_EDGE
        missing = missing or not declared.issuperset(preds)
    return Verdict.MALICIOUS_MISSING_EDGE if missing else Verdict.MALICIOUS_EXTRA_EDGE
