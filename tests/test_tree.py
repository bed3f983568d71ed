import random

import pytest

from blockdag.dag import brute_force_dag
from blockdag.model import StateStore, state_digest
from blockdag.scheduler import execute_block_serial
from blockdag.tree import (
    DONE,
    RUNNING,
    PredecessorTree,
    TreeRun,
    build_predecessor_tree,
    execute_block_tree,
    tree_insert,
    tree_next_txn,
    tree_predecessors,
)

from _helpers import random_family_block, structural_block, structural_txn


def test_insert_registers_writer():
    tree = PredecessorTree()
    tree_insert(tree, structural_txn(0, set(), {b"A"}))
    node = tree.node(b"A")
    assert node.write_list == [0]
    assert node.read_list == []


def test_insert_registers_reader_and_writer():
    tree = PredecessorTree()
    tree_insert(tree, structural_txn(0, set(), {b"A"}))
    tree_insert(tree, structural_txn(1, {b"A"}, set()))
    node = tree.node(b"A")
    assert node.write_list == [0]
    assert node.read_list == [1]


def test_shared_prefix_addresses_share_interior_path():
    tree = PredecessorTree()
    tree_insert(tree, structural_txn(0, set(), {b"ab"}))
    tree_insert(tree, structural_txn(1, set(), {b"ac"}))
    leaf_ab = tree.node(b"ab")
    leaf_ac = tree.node(b"ac")
    assert leaf_ab is not leaf_ac
    interior = tree.node(b"a")
    assert interior is not None
    assert set(interior.children) == {ord("b"), ord("c")}


def test_insert_requires_index_order():
    tree = PredecessorTree()
    with pytest.raises(ValueError):
        tree_insert(tree, structural_txn(3, set(), {b"A"}))


def test_grants_lowest_unscheduled_when_no_conflicts():
    block = structural_block([(set(), {b"a"}), (set(), {b"b"}), (set(), {b"c"})])
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    assert tree_next_txn(tree, run) == 0
    assert run.status[0] == RUNNING
    assert tree_next_txn(tree, run) == 1


def test_dependent_waits_for_running_predecessor():
    block = structural_block([(set(), {b"A"}), ({b"A"}, set())])
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    assert tree_next_txn(tree, run) == 0
    assert tree_next_txn(tree, run) is None
    run.mark_done(0)
    assert tree_next_txn(tree, run) == 1


def test_all_done():
    block = structural_block([(set(), {b"a"})])
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    run_idx = tree_next_txn(tree, run)
    run.mark_done(run_idx)
    assert tree_next_txn(tree, run) is None
    assert run.done_count == block.txn_count


def test_read_read_sharing_does_not_block():
    block = structural_block([({b"A"}, set()), ({b"A"}, set())])
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    assert tree_next_txn(tree, run) == 0
    assert tree_next_txn(tree, run) == 1


def test_writer_waits_for_earlier_reader():
    block = structural_block([({b"A"}, set()), (set(), {b"A"})])
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    assert tree_next_txn(tree, run) == 0
    assert tree_next_txn(tree, run) is None
    run.mark_done(0)
    assert tree_next_txn(tree, run) == 1


def test_predecessor_relation_matches_reference_dag():
    rng = random.Random(17)
    for _ in range(50):
        block = random_family_block(rng)
        tree = build_predecessor_tree(block)
        tree_pairs = {
            (i, j)
            for j in range(block.txn_count)
            for i in tree_predecessors(tree, j)
        }
        assert tree_pairs == brute_force_dag(block).edge_set()


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
        while run.done_count < block.txn_count:
            nxt = tree_next_txn(tree, run)
            if nxt is None:
                # single-threaded drain: finish the oldest running txn
                running = [i for i, s in enumerate(run.status) if s == RUNNING]
                run.mark_done(running[0])
                continue
            order.append(nxt)
            run.mark_done(nxt)
        grants.append(order)
    assert grants[0] == grants[1]


def test_mark_done_requires_running():
    block = structural_block([(set(), {b"a"})])
    tree = build_predecessor_tree(block)
    run = TreeRun(tree)
    with pytest.raises(ValueError):
        run.mark_done(0)
    assert DONE != RUNNING


def test_tree_executor_validates_arguments():
    block = structural_block([(set(), {b"a"})])
    tree = build_predecessor_tree(block)
    with pytest.raises(ValueError):
        execute_block_tree(block, tree, StateStore(), workers=0)
    other = structural_block([(set(), {b"a"}), (set(), {b"b"})])
    with pytest.raises(ValueError):
        execute_block_tree(other, tree, StateStore(), workers=1)
