"""Verification of a miner-shared dependency DAG.

The validator never rebuilds the DAG by pairwise scanning, and never fills
a DAG's storage. It checks the block's structure, reads the predecessor
sets of the builder's per-address pass (``dag.address_pass``, run once per
block, by the caller through ``build_access_index`` or here), and compares
every recomputed predecessor set with the transaction's declared
dependencies:

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
from itertools import compress
from operator import attrgetter, eq

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

    ``index`` is this block's ``build_access_index`` result: its sets are
    read and the pass is not run again, and one built from another block
    object raises ``ValueError``. Without an index, the pass runs here.
    ``workers`` is only range-checked (>= 1) and kept because the benchmark
    passes it; the check runs on the calling thread.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if index is not None and index.block is not block:
        raise ValueError("access index was built from another block")
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
    computed = (address_pass(block) if index is None else index).preds
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
