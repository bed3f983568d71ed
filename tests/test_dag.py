import random

import pytest

from blockdag.codec import attach_dag
from blockdag.dag import (
    MatrixDAG,
    brute_force_dag,
    build_dag,
    conflicts,
    dag_from_shared,
)

from _helpers import (
    is_acyclic,
    random_family_block,
    random_structural_block,
    structural_block,
    structural_txn,
)

WORKER_COUNTS = (1, 2, 4, 8)


def test_conflicts_read_read_is_not_a_conflict():
    a = structural_txn(0, {b"x"}, set())
    b = structural_txn(1, {b"x"}, set())
    assert not conflicts(a, b)


def test_conflicts_write_write():
    a = structural_txn(0, set(), {b"x"})
    b = structural_txn(1, set(), {b"x"})
    assert conflicts(a, b)


def test_conflicts_read_write_and_write_read():
    lo_reads = structural_txn(0, {b"x"}, set())
    hi_writes = structural_txn(1, set(), {b"x"})
    assert conflicts(lo_reads, hi_writes)
    lo_writes = structural_txn(0, set(), {b"x"})
    hi_reads = structural_txn(1, {b"x"}, set())
    assert conflicts(lo_writes, hi_reads)


def test_conflicts_disjoint_sets():
    a = structural_txn(0, {b"x"}, set())
    b = structural_txn(1, set(), {b"y"})
    assert not conflicts(a, b)


def test_conflicts_requires_index_order():
    a = structural_txn(0, {b"x"}, set())
    b = structural_txn(1, set(), {b"x"})
    with pytest.raises(AssertionError):
        conflicts(b, a)


def test_three_txn_example():
    # writer of A, reader of A, writer of B: one edge, indegrees 0/1/0
    block = structural_block([(set(), {b"A"}), ({b"A"}, set()), (set(), {b"B"})])
    for variant in ("matrix", "linked-list"):
        dag = build_dag(block, workers=2, variant=variant)
        assert dag.edge_set() == {(0, 1)}
        assert dag.indegree_snapshot() == [0, 1, 0]


def test_disjoint_block_has_no_edges():
    block = structural_block([({b"r%d" % i}, {b"w%d" % i}) for i in range(20)])
    dag = build_dag(block, workers=4)
    assert dag.edge_count == 0
    assert dag.indegree_snapshot() == [0] * 20


def test_first_wave_and_fanout_shape():
    # Six transactions where the first three are independent sources and the
    # first one feeds the last two, mirroring the worked block diagram.
    block = structural_block(
        [
            (set(), {b"A"}),          # source
            (set(), {b"B"}),          # source
            (set(), {b"C"}),          # source
            ({b"B"}, set()),          # waits on writer of B
            ({b"A"}, set()),          # waits on writer of A
            ({b"A"}, {b"C"}),         # waits on writers of A and C
        ]
    )
    dag = build_dag(block, workers=3)
    snapshot = dag.indegree_snapshot()
    assert snapshot[0] == snapshot[1] == snapshot[2] == 0
    assert dag.has_edge(0, 4) and dag.has_edge(0, 5)
    assert snapshot[3] > 0 and snapshot[4] > 0 and snapshot[5] > 0


def test_empty_block_and_single_txn():
    empty = structural_block([])
    assert build_dag(empty, workers=2).edge_count == 0
    assert brute_force_dag(empty).edge_count == 0
    single = structural_block([({b"a"}, {b"a"})])
    dag = build_dag(single, workers=2)
    assert dag.edge_count == 0
    assert dag.indegree_snapshot() == [0]


def test_build_matches_brute_force_over_random_blocks():
    rng = random.Random(11)
    for trial in range(40):
        block = (
            random_structural_block(rng, max_n=40)
            if trial % 2
            else random_family_block(rng)
        )
        expected = brute_force_dag(block)
        for workers in WORKER_COUNTS:
            for variant in ("matrix", "linked-list"):
                dag = build_dag(block, workers=workers, variant=variant)
                assert dag.edge_set() == expected.edge_set()
                assert dag.indegree_snapshot() == expected.indegree_snapshot()


def test_matrix_bytes_identical_across_worker_counts():
    rng = random.Random(23)
    for _ in range(200):
        block = random_structural_block(rng, max_n=64)
        reference = build_dag(block, workers=1).matrix_bytes()
        for workers in (2, 4, 8):
            assert build_dag(block, workers=workers).matrix_bytes() == reference


def test_variants_agree():
    rng = random.Random(31)
    for _ in range(25):
        block = random_structural_block(rng, max_n=48)
        matrix = build_dag(block, workers=3, variant="matrix")
        linked = build_dag(block, workers=3, variant="linked-list")
        assert matrix.edge_set() == linked.edge_set()
        assert matrix.indegree_snapshot() == linked.indegree_snapshot()


def test_dags_are_acyclic():
    rng = random.Random(47)
    for _ in range(50):
        block = random_structural_block(rng, max_n=48)
        dag = build_dag(block, workers=2)
        assert is_acyclic(dag.txn_count, dag.edges())


def test_indegree_sums_to_edge_count():
    rng = random.Random(59)
    for _ in range(30):
        block = random_structural_block(rng, max_n=48)
        dag = build_dag(block, workers=4)
        assert sum(dag.indegree_snapshot()) == dag.edge_count
        preds = dag.predecessor_lists()
        assert [len(p) for p in preds] == dag.indegree_snapshot()


def _edge_walk_predecessors(dag):
    preds = [[] for _ in range(dag.txn_count)]
    for i, j in dag.edges():
        preds[j].append(i)
    return [tuple(sorted(p)) for p in preds]


def test_kept_predecessor_tuples_match_the_edge_walk():
    rng = random.Random(61)
    for _ in range(30):
        block = random_structural_block(rng, max_n=40)
        dags = [build_dag(block, variant=variant) for variant in ("matrix", "linked-list")]
        dags.append(brute_force_dag(block))  # built edge by edge with add_edge
        dags.append(dag_from_shared(attach_dag(block, dags[0])))
        for dag in dags:
            preds = dag.predecessor_lists()
            assert preds == _edge_walk_predecessors(dag)
            assert all(type(p) is tuple for p in preds)
            assert [len(p) for p in preds] == dag.indegree_snapshot()


def test_add_edge_keeps_predecessors_ascending_in_any_order():
    for variant in ("matrix", "linked-list"):
        dag = build_dag(structural_block([(set(), set())] * 5), variant=variant)
        for i, j in [(3, 4), (0, 4), (2, 4), (0, 4), (1, 4), (0, 2)]:
            dag.add_edge(i, j)
        assert dag.predecessor_lists() == [(), (), (0,), (), (0, 1, 2, 3)]
        assert dag.predecessor_lists() == _edge_walk_predecessors(dag)
        assert dag.indegree_snapshot() == [0, 0, 1, 0, 4]


def test_successor_lists_are_sorted_and_deduplicated():
    block = structural_block(
        [
            (set(), {b"a", b"b"}),
            ({b"a"}, {b"b"}),  # shares two addresses with txn 0: one edge
            ({b"a"}, set()),
        ]
    )
    for variant in ("matrix", "linked-list"):
        dag = build_dag(block, workers=2, variant=variant)
        assert dag.successors(0) == [1, 2]
        assert dag.indegree_snapshot() == [0, 1, 1]


def test_add_edge_rejects_bad_pairs():
    dag = MatrixDAG(3)
    with pytest.raises(ValueError):
        dag.add_edge(2, 1)
    with pytest.raises(ValueError):
        dag.add_edge(1, 3)
    assert dag.add_edge(0, 1)
    assert not dag.add_edge(0, 1)  # idempotent: one edge, one indegree
    assert dag.indegree_snapshot() == [0, 1, 0]


def test_build_dag_input_validation():
    block = structural_block([({b"a"}, set())])
    with pytest.raises(ValueError):
        build_dag(block, workers=0)
    with pytest.raises(ValueError):
        build_dag(block, workers=1, variant="adjacency")


def test_dag_from_shared_round_trips_edges():
    rng = random.Random(71)
    for _ in range(20):
        block = random_family_block(rng)
        dag = build_dag(block, workers=2)
        shared = attach_dag(block, dag)
        rebuilt = dag_from_shared(shared)
        assert rebuilt.edge_set() == dag.edge_set()
        assert rebuilt.indegree_snapshot() == dag.indegree_snapshot()


def test_dag_from_shared_requires_shared_dag():
    block = structural_block([({b"a"}, set())])
    with pytest.raises(ValueError):
        dag_from_shared(block)
