import itertools
import random

import pytest

from blockdag.dag import brute_force_dag, conflicts
from blockdag.model import StateStore, state_digest
from blockdag.scheduler import execute_block_serial
from blockdag.tree import (
    DONE,
    RUNNING,
    UNSCHEDULED,
    TreeRun,
    build_predecessor_tree,
    execute_block_tree,
)

from _helpers import random_family_block, random_structural_block, structural_block


def _grant(run):
    """One grant: the granted index, or None; True must mean one was granted."""
    batch = []
    assert run.grant(batch) == bool(batch) and len(batch) <= 1
    return batch[0] if batch else None


def test_insert_registers_writer():
    tree = build_predecessor_tree(structural_block([(set(), {b"A"})]))
    assert tree.writers == {b"A": [0]}
    assert tree.accessors == {b"A": [0]}
    [(_, listed)] = tree.checks[0]
    assert listed is tree.accessors[b"A"]  # a write checks the accessors


def test_insert_registers_reader_and_writer():
    tree = build_predecessor_tree(structural_block([(set(), {b"A"}), ({b"A"}, set())]))
    assert tree.writers == {b"A": [0]}  # the reader is listed as an accessor only
    assert tree.accessors == {b"A": [0, 1]}
    [(_, listed)] = tree.checks[1]
    assert listed is tree.writers[b"A"]  # a read-only access checks the writers


def test_build_lists_writers_and_accessors_and_one_check_per_access():
    # 0 writes A; 1 reads A; 2 reads A, writes B; 3 reads B, writes A
    block = structural_block(
        [(set(), {b"A"}), ({b"A"}, set()), ({b"A"}, {b"B"}), ({b"B"}, {b"A"})]
    )
    tree = build_predecessor_tree(block)
    writers, accessors = tree.writers, tree.accessors
    assert writers == {b"A": [0, 3], b"B": [2]}
    assert accessors == {b"A": [0, 1, 2, 3], b"B": [2, 3]}
    # a write checks the address's accessors, a read-only access its writers
    expected = [
        [accessors[b"A"]],
        [writers[b"A"]],
        [writers[b"A"], accessors[b"B"]],
        [writers[b"B"], accessors[b"A"]],
    ]
    assert tree.txn_count == len(tree.checks) == len(expected)
    for entry, lists in zip(tree.checks, expected):
        assert sorted(id(listed) for _, listed in entry) == sorted(map(id, lists))
    slot_of = {}
    for entry in tree.checks:
        for slot, listed in entry:
            assert slot_of.setdefault(id(listed), slot) == slot
    assert len(set(slot_of.values())) == len(slot_of)  # one slot per list


@pytest.mark.parametrize("addresses", ((b"a", b"ab", b"abc"), (b"abc", b"ab", b"a")))
def test_addresses_sharing_a_byte_prefix_never_block_each_other(addresses):
    # conflicts() compares whole addresses, so a byte prefix is no overlap
    block = structural_block([(set(), {a}) for a in addresses] + [({b"ab"}, set())])
    txns = block.transactions
    assert not any(conflicts(txns[i], txns[j]) for i in range(3) for j in range(i + 1, 3))
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    assert [_grant(run) for _ in range(3)] == [0, 1, 2]
    assert _grant(run) is None  # 3 reads b"ab", written by running 1
    run.commit(0)
    run.commit(2)
    assert _grant(run) is None
    run.commit(1)
    assert _grant(run) == 3


def test_grants_lowest_unscheduled_when_no_conflicts():
    block = structural_block([(set(), {b"a"}), (set(), {b"b"}), (set(), {b"c"})])
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    assert _grant(run) == 0
    assert run.status[0] == RUNNING
    assert _grant(run) == 1


def test_dependent_waits_for_running_predecessor():
    block = structural_block([(set(), {b"A"}), ({b"A"}, set())])
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    assert _grant(run) == 0
    assert _grant(run) is None
    run.commit(0)
    assert _grant(run) == 1


def test_all_done():
    block = structural_block([(set(), {b"a"})])
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    run.commit(_grant(run))
    assert _grant(run) is None
    assert run.status.count(DONE) == block.txn_count


def test_read_read_sharing_does_not_block():
    block = structural_block([({b"A"}, set()), ({b"A"}, set())])
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    assert _grant(run) == 0
    assert _grant(run) == 1


def test_writer_waits_for_earlier_reader():
    block = structural_block([({b"A"}, set()), (set(), {b"A"})])
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    assert _grant(run) == 0
    assert _grant(run) is None
    run.commit(0)
    assert _grant(run) == 1


def _reference_blocks(rng, count):
    """count family blocks, then count structural ones (empty sets, reads of
    one address next to writes of another), drawn lazily from rng."""
    return itertools.chain(
        (random_family_block(rng) for _ in range(count)),
        (random_structural_block(rng) for _ in range(count)),
    )


def test_predecessor_relation_matches_reference_dag():
    rng = random.Random(17)
    for block in _reference_blocks(rng, 50):
        tree = build_predecessor_tree(block)
        tree_pairs = {
            (i, j)
            for j, entry in enumerate(tree.checks)
            for _, listed in entry
            for i in listed
            if i < j
        }
        assert tree_pairs == brute_force_dag(block).edge_set()


def test_grants_match_the_reference_dag_at_every_step():
    # single-threaded drain with random commit timing: each grant must be the
    # lowest unscheduled index whose brute-force predecessors are all done
    rng = random.Random(41)
    for block in _reference_blocks(rng, 40):
        n = block.txn_count
        preds = [set() for _ in range(n)]
        for i, j in brute_force_dag(block).edges():
            preds[j].add(i)
        tree = build_predecessor_tree(block)
        run = TreeRun(tree)
        running = []
        while (done_count := run.status.count(DONE)) < n:
            if running and (rng.random() < 0.5 or len(running) == n - done_count):
                run.commit(running.pop(rng.randrange(len(running))))
                continue
            done = [s == DONE for s in run.status]
            expected = next(
                (
                    i
                    for i in range(n)
                    if run.status[i] == UNSCHEDULED and all(done[p] for p in preds[i])
                ),
                None,
            )
            granted = _grant(run)
            assert granted == expected
            if granted is None:
                assert running  # something must be left to finish
                run.commit(running.pop(rng.randrange(len(running))))
            else:
                running.append(granted)


def test_tree_execution_matches_serial_digest():
    rng = random.Random(29)
    for _ in range(20):
        block = random_family_block(rng)
        serial_store = StateStore()
        execute_block_serial(block, serial_store)
        workers = rng.choice((1, 2, 4))
        tree = build_predecessor_tree(block)
        store = StateStore()
        report = execute_block_tree(block, tree, store, workers=workers)
        assert state_digest(store) == state_digest(serial_store)
        assert sorted(report.schedule) == list(range(block.txn_count))


def test_tree_is_reusable_across_runs():
    block = structural_block([(set(), {b"A"}), ({b"A"}, set()), (set(), {b"B"})])
    tree = build_predecessor_tree(block)
    grants = []
    for _ in range(2):
        run = TreeRun(tree)
        order = []
        while run.status.count(DONE) < block.txn_count:
            nxt = _grant(run)
            if nxt is None:
                # single-threaded drain: finish the oldest running txn
                running = [i for i, s in enumerate(run.status) if s == RUNNING]
                run.commit(running[0])
                continue
            order.append(nxt)
            run.commit(nxt)
        grants.append(order)
    assert grants[0] == grants[1]


def test_commit_requires_running():
    block = structural_block([(set(), {b"a"})])
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    with pytest.raises(ValueError):
        run.commit(0)
    assert DONE != RUNNING


def test_tree_executor_validates_arguments():
    block = structural_block([(set(), {b"a"})])
    tree = build_predecessor_tree(block)
    with pytest.raises(ValueError):
        execute_block_tree(block, tree, StateStore(), workers=0)
    other = structural_block([(set(), {b"a"}), (set(), {b"b"})])
    with pytest.raises(ValueError):
        execute_block_tree(other, tree, StateStore(), workers=1)
