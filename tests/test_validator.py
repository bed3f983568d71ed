import random
import threading
from dataclasses import replace

import pytest

from blockdag.codec import attach_dag
from blockdag.dag import build_dag, dag_from_shared
from blockdag.model import Block
from blockdag.validator import Verdict, build_access_index, validate_dag

from _helpers import (
    add_spurious_edge,
    random_family_block,
    remove_one_edge,
    structural_block,
)


def _shared(block, workers=2):
    return attach_dag(block, build_dag(block, workers=workers))


def test_access_index_records_reader_and_writer():
    block = structural_block([(set(), {b"A"}), ({b"A"}, set())])
    index = build_access_index(block)
    entry = index.entries[b"A"]
    assert entry.write_list == [0]
    assert entry.read_list == [1]


def test_access_index_empty_block():
    index = build_access_index(structural_block([]))
    assert index.adds_count == 0


def test_access_index_read_and_write_by_same_txn():
    block = structural_block([({b"A"}, {b"A"})])
    entry = build_access_index(block).entries[b"A"]
    assert entry.read_list == [0]
    assert entry.write_list == [0]


def test_honest_blocks_verify_clean():
    rng = random.Random(7)
    for _ in range(50):
        shared = _shared(random_family_block(rng))
        for workers in (1, 2, 8):
            assert validate_dag(shared, workers=workers) is Verdict.HONEST


def test_missing_edge_detected():
    rng = random.Random(13)
    checked = 0
    while checked < 40:
        shared = _shared(random_family_block(rng))
        tampered = remove_one_edge(shared, rng)
        if tampered is None:
            continue
        checked += 1
        for workers in (1, 2, 8):
            assert validate_dag(tampered, workers=workers) is Verdict.MALICIOUS_MISSING_EDGE


def test_missing_write_read_edge_detected():
    # the lone WR pair: lower writer, higher reader
    block = structural_block([(set(), {b"X"}), ({b"X"}, set())])
    shared = _shared(block)
    tampered = remove_one_edge(shared, random.Random(1))
    assert tampered is not None
    assert validate_dag(tampered) is Verdict.MALICIOUS_MISSING_EDGE


def test_spurious_edge_detected():
    rng = random.Random(19)
    checked = 0
    while checked < 40:
        shared = _shared(random_family_block(rng))
        tampered = add_spurious_edge(shared, rng)
        if tampered is None:
            continue
        checked += 1
        for workers in (1, 2, 8):
            assert validate_dag(tampered, workers=workers) is Verdict.MALICIOUS_EXTRA_EDGE


def test_pair_sharing_multiple_addresses_counts_once():
    block = structural_block([(set(), {b"a", b"b"}), ({b"a"}, {b"b"})])
    shared = _shared(block)
    assert shared.shared_indegree == (0, 1)
    assert validate_dag(shared, workers=4) is Verdict.HONEST


def test_dependency_not_below_own_index_is_tampering():
    shared = _shared(structural_block([(set(), {b"a"}), ({b"a"}, set())]))
    transactions = list(shared.transactions)
    transactions[1] = replace(transactions[1], declared_dependencies=(1,))
    bad = Block(tuple(transactions), shared.shared_indegree)
    assert validate_dag(bad) is Verdict.MALICIOUS_EXTRA_EDGE


def test_duplicated_dependency_is_tampering():
    shared = _shared(structural_block([(set(), {b"a"}), ({b"a"}, set())]))
    transactions = list(shared.transactions)
    transactions[1] = replace(transactions[1], declared_dependencies=(0, 0))
    indegree = list(shared.shared_indegree)
    indegree[1] = 2
    bad = Block(tuple(transactions), tuple(indegree))
    assert validate_dag(bad) is Verdict.MALICIOUS_EXTRA_EDGE


def test_indegree_incoherent_with_dependencies_is_tampering():
    shared = _shared(structural_block([(set(), {b"a"}), ({b"a"}, set())]))
    indegree = list(shared.shared_indegree)
    indegree[0] = 0
    indegree[1] = 0  # lies about the declared dependency
    bad = Block(shared.transactions, tuple(indegree))
    assert validate_dag(bad) is Verdict.MALICIOUS_EXTRA_EDGE


def test_verdicts_do_not_depend_on_worker_count():
    rng = random.Random(23)
    for _ in range(20):
        shared = _shared(random_family_block(rng))
        cases = [shared]
        removed = remove_one_edge(shared, rng)
        added = add_spurious_edge(shared, rng)
        cases += [c for c in (removed, added) if c is not None]
        for case in cases:
            verdicts = {validate_dag(case, workers=w) for w in (1, 2, 8)}
            assert len(verdicts) == 1


def test_requires_shared_dag_and_valid_workers():
    block = structural_block([(set(), {b"a"})])
    with pytest.raises(ValueError):
        validate_dag(block)
    shared = _shared(block)
    with pytest.raises(ValueError):
        validate_dag(shared, workers=0)


def test_empty_and_single_transaction_blocks_are_honest():
    assert validate_dag(_shared(structural_block([]))) is Verdict.HONEST
    assert validate_dag(_shared(structural_block([({b"a"}, {b"a"})])), workers=8) is Verdict.HONEST


def test_index_argument_is_optional_but_honored():
    block = structural_block([(set(), {b"A"}), ({b"A"}, set())])
    shared = _shared(block)
    index = build_access_index(shared)
    assert validate_dag(shared, index, workers=2) is Verdict.HONEST
    assert validate_dag(shared, None, workers=2) is Verdict.HONEST


def test_access_index_lists_are_strictly_increasing():
    rng = random.Random(29)
    for _ in range(30):
        index = build_access_index(random_family_block(rng))
        for entry in index.entries.values():
            for ordered in (entry.read_list, entry.write_list):
                assert all(a < b for a, b in zip(ordered, ordered[1:]))


def _retamper(shared, deps_by_txn, indegree_by_txn=None):
    """Copy of a shared block with some dependency lists replaced; each
    replaced list's indegree entry follows its length unless overridden."""
    transactions = list(shared.transactions)
    indegree = list(shared.shared_indegree)
    for index, deps in deps_by_txn.items():
        transactions[index] = replace(transactions[index], declared_dependencies=deps)
        indegree[index] = len(deps)
    for index, entry in (indegree_by_txn or {}).items():
        indegree[index] = entry
    return Block(tuple(transactions), tuple(indegree))


# 0 writes a, 1 reads a (edge 0->1); 2 writes b, 3 reads c (no edge 2->3)
_MISSING_FIRST = structural_block(
    [(set(), {b"a"}), ({b"a"}, set()), (set(), {b"b"}), ({b"c"}, set())]
)
# 0 writes b, 1 reads c (no edge 0->1); 2 writes a, 3 reads a (edge 2->3)
_EXTRA_FIRST = structural_block(
    [(set(), {b"b"}), ({b"c"}, set()), (set(), {b"a"}), ({b"a"}, set())]
)


def test_missing_edge_outranks_a_later_extra_edge():
    bad = _retamper(_shared(_MISSING_FIRST), {1: (), 3: (2,)})
    for workers in (1, 8):
        assert validate_dag(bad, workers=workers) is Verdict.MALICIOUS_MISSING_EDGE


def test_missing_edge_outranks_an_earlier_extra_edge():
    bad = _retamper(_shared(_EXTRA_FIRST), {1: (0,), 3: ()})
    for workers in (1, 8):
        assert validate_dag(bad, workers=workers) is Verdict.MALICIOUS_MISSING_EDGE


def test_structural_defect_outranks_a_missing_edge():
    after = _retamper(_shared(_MISSING_FIRST), {1: (), 3: (2, 2)})
    incoherent = _retamper(_shared(_MISSING_FIRST), {1: ()}, {3: 1})
    before = _retamper(_shared(_EXTRA_FIRST), {1: (1,), 3: ()})
    for bad in (after, incoherent, before):
        assert validate_dag(bad, workers=8) is Verdict.MALICIOUS_EXTRA_EDGE


def test_build_validate_and_rebuild_start_no_thread(monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("a thread was started")

    block = random_family_block(random.Random(37), n=40)
    monkeypatch.setattr(threading, "Thread", no_threads)
    for variant in ("matrix", "linked-list"):
        dag = build_dag(block, workers=8, variant=variant)
    shared = attach_dag(block, dag)
    assert validate_dag(shared, workers=8) is Verdict.HONEST
    assert dag_from_shared(shared).edge_set() == dag.edge_set()
