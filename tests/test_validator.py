import random
import threading
from dataclasses import replace

import pytest

import blockdag.validator as validator_mod
from blockdag.codec import attach_dag, parse_block, serialize_block
from blockdag.dag import address_pass, build_dag, dag_from_shared
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
    # refused where the transaction is made, so no block reaches the
    # validator with one; parse_block refuses one on the wire
    shared = _shared(structural_block([(set(), {b"a"}), ({b"a"}, set())]))
    with pytest.raises(ValueError, match="^transaction 1 declares invalid dependency 1$"):
        replace(shared.transactions[1], declared_dependencies=(1,))


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
    before = _retamper(_shared(_EXTRA_FIRST), {1: (0, 0), 3: ()})
    for bad in (after, incoherent, before):
        assert validate_dag(bad, workers=8) is Verdict.MALICIOUS_EXTRA_EDGE


def test_build_validate_and_rebuild_start_no_thread(monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("a thread was started")

    block = random_family_block(random.Random(37), n=40)
    monkeypatch.setattr(threading, "Thread", no_threads)
    dag = build_dag(block, workers=8)
    shared = attach_dag(block, dag)
    assert validate_dag(shared, workers=8) is Verdict.HONEST
    assert dag_from_shared(shared).edge_set() == dag.edge_set()


def _verdict_cases(rng):
    """Honest, dropped-edge, spurious-edge and structurally bad shared blocks."""
    cases = []
    for _ in range(15):
        shared = _shared(random_family_block(rng))
        cases += [shared, remove_one_edge(shared, rng), add_spurious_edge(shared, rng)]
    cases += [
        _retamper(_shared(_MISSING_FIRST), {1: (), 3: (2, 2)}),
        _retamper(_shared(_MISSING_FIRST), {1: ()}, {3: 1}),
        _retamper(_shared(_EXTRA_FIRST), {1: (0, 0), 3: ()}),
        _retamper(_shared(_EXTRA_FIRST), {1: (0, 0)}),
    ]
    return [case for case in cases if case is not None]


def test_index_argument_is_optional_but_honored(monkeypatch):
    cases = _verdict_cases(random.Random(31))
    expected = [validate_dag(case) for case in cases]
    assert set(expected) == set(Verdict)
    indexes = [build_access_index(case) for case in cases]

    def no_pass(block):
        raise AssertionError("the pass ran again")

    monkeypatch.setattr(validator_mod, "address_pass", no_pass)
    for case, index, verdict in zip(cases, indexes, expected):
        assert index.block is case
        for workers in (1, 2):
            assert validate_dag(case, index, workers) is verdict


def test_index_from_another_block_is_refused():
    block = random_family_block(random.Random(43))
    shared = _shared(block)
    reparsed = parse_block(serialize_block(shared))
    assert reparsed == shared
    for other in (block, reparsed, _shared(block)):
        with pytest.raises(ValueError, match="another block"):
            validate_dag(shared, build_access_index(other), workers=2)


def test_build_access_index_then_validate_runs_the_pass_once(monkeypatch):
    calls = []

    def counted(block):
        calls.append(block)
        return address_pass(block)

    monkeypatch.setattr(validator_mod, "address_pass", counted)
    shared = _shared(random_family_block(random.Random(41)))
    assert validate_dag(shared, build_access_index(shared), 2) is Verdict.HONEST
    assert calls == [shared]
    calls.clear()
    assert validate_dag(shared) is Verdict.HONEST
    assert calls == [shared]


def _validate(block, with_index):
    return validate_dag(block, build_access_index(block) if with_index else None)


def _with_deps(shared, deps_of):
    """Copy of a shared block whose dependency lists are ``deps_of(deps)``."""
    transactions = tuple(
        replace(t, declared_dependencies=deps_of(t.declared_dependencies))
        for t in shared.transactions
    )
    return Block(transactions, shared.shared_indegree)


def _dense_shared_blocks(seed, count=15):
    """Honest shared blocks, each with a transaction of two or more dependencies."""
    rng = random.Random(seed)
    blocks = []
    while len(blocks) < count:
        shared = _shared(random_family_block(rng))
        if max(shared.shared_indegree, default=0) >= 2:
            blocks.append(shared)
    return blocks


@pytest.mark.parametrize("with_index", [False, True])
def test_permuted_honest_lists_are_honest(with_index):
    for shared in _dense_shared_blocks(47):
        permuted = _with_deps(shared, lambda deps: tuple(reversed(deps)))
        assert permuted != shared
        assert _validate(permuted, with_index) is Verdict.HONEST
        # honest, but its lists are sorted again for the DAG
        assert dag_from_shared(permuted).preds == build_dag(shared).preds


def _a_duplicate(shared, rng=None):
    """Copy of a shared block whose longest list repeats its first entry in
    place of its last, so its length still matches the indegree."""
    j = max(range(shared.txn_count), key=shared.shared_indegree.__getitem__)
    deps = shared.transactions[j].declared_dependencies
    return _retamper(shared, {j: (deps[0], *deps[:-1])})


@pytest.mark.parametrize("with_index", [False, True])
def test_a_duplicate_of_the_right_length_is_an_extra_edge(with_index):
    for shared in _dense_shared_blocks(53):
        bad = _a_duplicate(shared)
        assert bad.shared_indegree == shared.shared_indegree
        assert _validate(bad, with_index) is Verdict.MALICIOUS_EXTRA_EDGE


@pytest.mark.parametrize("with_index", [False, True])
def test_a_dropped_edge_is_a_missing_edge(with_index):
    rng = random.Random(59)
    for shared in _dense_shared_blocks(59):
        bad = remove_one_edge(shared, rng)
        assert _validate(bad, with_index) is Verdict.MALICIOUS_MISSING_EDGE


@pytest.mark.parametrize("with_index", [False, True])
def test_dependencies_given_as_lists_are_honest(with_index):
    # each transaction stores its lists as tuples, so the copy is the
    # block's tuple twin
    for shared in [_shared(structural_block([])), *_dense_shared_blocks(61)]:
        as_lists = _with_deps(shared, list)
        assert all(type(t.declared_dependencies) is tuple for t in as_lists.transactions)
        assert as_lists == shared and hash(as_lists) == hash(shared)
        assert _validate(as_lists, with_index) is Verdict.HONEST


def test_rebuilt_shared_dag_keeps_the_built_tuples():
    rng = random.Random(67)
    for _ in range(30):
        block = random_family_block(rng)
        built = build_dag(block)
        rebuilt = dag_from_shared(attach_dag(block, built))
        assert rebuilt.preds == built.preds


# name: (copy of an honest shared block, its verdict, whether it is marked)
_MARK_CASES = {
    "exact": (lambda shared, rng: shared, Verdict.HONEST, True),
    "permuted": (
        lambda shared, rng: _with_deps(shared, lambda deps: tuple(reversed(deps))),
        Verdict.HONEST,
        False,
    ),
    # the transactions and the block store their own tuples, so the exact
    # compare marks these too
    "dependencies-as-lists": (lambda shared, rng: _with_deps(shared, list), Verdict.HONEST, True),
    "transactions-as-a-list": (
        lambda shared, rng: Block(list(shared.transactions), shared.shared_indegree),
        Verdict.HONEST,
        True,
    ),
    "missing-edge": (remove_one_edge, Verdict.MALICIOUS_MISSING_EDGE, False),
    "extra-edge": (add_spurious_edge, Verdict.MALICIOUS_EXTRA_EDGE, False),
    "duplicate": (_a_duplicate, Verdict.MALICIOUS_EXTRA_EDGE, False),
}


@pytest.mark.parametrize("with_index", [False, True])
@pytest.mark.parametrize("case", list(_MARK_CASES))
def test_only_an_exact_honest_verdict_marks_the_block(case, with_index):
    make, verdict, marked = _MARK_CASES[case]
    rng = random.Random(71)
    checked = 0
    for shared in _dense_shared_blocks(71, count=6):
        block = make(shared, rng)
        if block is None:
            continue
        checked += 1
        assert block._canonical_deps is False
        assert _validate(block, with_index) is verdict
        assert block._canonical_deps is marked
    assert checked >= 3


def test_a_marked_block_built_from_lists_does_not_share_them():
    # the hazard of wrapping a list-built block's lists: the caller changing
    # its own lists after the verdict
    for shared in _dense_shared_blocks(79, count=4):
        txns, indegree = list(shared.transactions), list(shared.shared_indegree)
        block = Block(txns, indegree)
        assert validate_dag(block) is Verdict.HONEST and block._canonical_deps
        kept = dag_from_shared(block).preds
        txns.reverse()
        txns[0] = replace(txns[0], declared_dependencies=())
        indegree.clear()
        assert block == shared and block.transactions == shared.transactions
        assert dag_from_shared(block).preds == kept == dag_from_shared(shared).preds


def test_a_marked_block_built_from_dependency_lists_does_not_share_them():
    # the same hazard one level down: the caller changing the dependency
    # lists it built the transactions from, after the verdict
    for shared in _dense_shared_blocks(83, count=4):
        lists = [list(t.declared_dependencies) for t in shared.transactions]
        block = Block(
            [replace(t, declared_dependencies=deps) for t, deps in zip(shared.transactions, lists)],
            shared.shared_indegree,
        )
        assert validate_dag(block) is Verdict.HONEST and block._canonical_deps
        kept = dag_from_shared(block).preds
        for deps in lists:
            deps.reverse()
            deps.append(len(lists))
        assert block == shared and hash(block) == hash(shared)
        assert dag_from_shared(block).preds == kept == dag_from_shared(shared).preds


def test_copies_of_a_marked_block_are_unmarked():
    for shared in _dense_shared_blocks(73, count=4):
        assert validate_dag(shared) is Verdict.HONEST
        assert shared._canonical_deps is True
        kept = dag_from_shared(shared).preds
        for copy in (
            Block(shared.transactions, shared.shared_indegree),
            replace(shared),
            replace(shared, shared_indegree=tuple(shared.shared_indegree)),
        ):
            assert copy == shared and hash(copy) == hash(shared) and repr(copy) == repr(shared)
            assert copy._canonical_deps is False
            rebuilt = dag_from_shared(copy).preds
            assert rebuilt == kept
            # the copy's lists went through the sorting constructor
            assert all(p is not deps for p, deps in zip(rebuilt, kept) if p)
