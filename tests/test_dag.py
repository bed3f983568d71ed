import os
import random
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import blockdag
from blockdag.codec import attach_dag, parse_block, serialize_block
from blockdag.dag import (
    DependencyDAG,
    address_pass,
    brute_force_dag,
    build_dag,
    conflicts,
    dag_from_shared,
)
from blockdag.families import apply_transaction, block_from_ops, wallet_deposit
from blockdag.model import Block, StateStore, state_digest
from blockdag.scheduler import execute_block_parallel, execute_block_serial
from blockdag.validator import Verdict, validate_dag
from blockdag.workload import WorkloadSpec, generate_block

from _helpers import (
    ALL_FAMILIES,
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
    dag = build_dag(block, workers=2)
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
    assert {(0, 4), (0, 5)} <= dag.edge_set()
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
            dag = build_dag(block, workers=workers)
            assert dag.edge_set() == expected.edge_set()
            assert dag.indegree_snapshot() == expected.indegree_snapshot()


def _pass_reading_every_writer(block):
    """The address pass without the skip: a read takes every prior writer,
    also of an address the transaction writes."""
    writers, accessors, out = {}, {}, []
    for j, txn in enumerate(block.transactions):
        preds = set()
        for address in txn.read_set:
            preds.update(writers.get(address, ()))
        for address in txn.write_set:
            preds.update(accessors.get(address, ()))
        out.append(preds)
        for address in txn.read_set | txn.write_set:
            accessors.setdefault(address, []).append(j)
        for address in txn.write_set:
            writers.setdefault(address, []).append(j)
    return out, writers, accessors


def test_address_pass_equals_the_pass_that_reads_every_writer():
    rng = random.Random(29)
    blocks = [
        structural_block([]),
        structural_block(
            [({b"a"}, set()), ({b"a"}, {b"a"}), ({b"a"}, set()), (set(), {b"a"}), ({b"a", b"b"}, {b"b"})]
        ),
        *(random_family_block(rng) for _ in range(30)),
        *(random_structural_block(rng, max_n=40) for _ in range(20)),
        *(
            generate_block(WorkloadSpec(family="insurance", txns_per_block=60, dependency_pct=pct, rng_seed=pct))
            for pct in (20, 60, 100)
        ),
    ]
    read_only = 0
    for block in blocks:
        sets, writers, accessors = _pass_reading_every_writer(block)
        ascending = [tuple(sorted(s)) for s in sets]
        assert address_pass(block) == (block, ascending, writers, accessors)
        assert build_dag(block).edge_set() == brute_force_dag(block).edge_set()
        read_only += sum(1 for t in block.transactions if t.read_set and not t.write_set)
    assert read_only > 0


def test_address_pass_tuples_are_ascending_below_their_transaction():
    rng = random.Random(71)
    blocks = [
        *(random_family_block(rng) for _ in range(30)),
        *(random_structural_block(rng, max_n=48) for _ in range(30)),
    ]
    for block in blocks:
        preds = address_pass(block).preds
        assert tuple(preds) == brute_force_dag(block).preds
        for j, column in enumerate(preds):
            assert type(column) is tuple
            assert all(a < b for a, b in zip(column, column[1:]))
            assert all(0 <= i < j for i in column)


def _fillers(start, stop):
    return [(set(), {b"filler%d" % k}) for k in range(start, stop)]


@pytest.mark.parametrize(
    "specs, expected",
    [
        # every transaction writes a and b, so each reads two equal lists
        ([(set(), {b"a", b"b"})] * 4, [(), (0,), (0, 1), (0, 1, 2)]),
        # 9 reads a (written by 5) and b (written by 8): two unequal lists,
        # and a set of {5, 8} iterates 8 first
        (
            [*_fillers(0, 5), (set(), {b"a"}), *_fillers(6, 8), (set(), {b"b"}), ({b"a", b"b"}, set())],
            [()] * 9 + [(5, 8)],
        ),
        # r is only ever read, so reading it waits for nothing
        (
            [({b"r"}, set()), ({b"r"}, set()), ({b"r"}, {b"w"}), ({b"r"}, {b"w"})],
            [(), (), (), (2,)],
        ),
    ],
    ids=["equal-lists", "unequal-lists", "read-only-address"],
)
def test_address_pass_tuples_of_hand_built_blocks(specs, expected):
    block = structural_block(specs)
    assert address_pass(block).preds == expected
    assert brute_force_dag(block).preds == tuple(expected)


def test_address_pass_skips_the_writers_of_an_address_it_also_writes(monkeypatch):
    # a cost check: a transaction that reads and writes A takes A's
    # accessors alone, which already hold its writers; reading the writers
    # too would give two unequal lists and one sorted union
    import blockdag.dag as dag_mod

    unions = []

    def counted(*args, **kwargs):
        unions.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(dag_mod, "sorted", counted, raising=False)
    block = structural_block([({b"A"}, {b"A"}), ({b"A"}, set()), ({b"A"}, {b"A"})])
    assert address_pass(block).preds == [(), (0,), (0, 1)]
    assert unions == []


def _traced_pass(block):
    """``address_pass`` run under ``sys.settrace`` and ``sys.setprofile``:
    the lines it runs, and how many ``get`` calls it makes on the accessors
    and on the writers it returns. No clock is read, so the counts do not
    depend on the host."""
    code = address_pass.__code__
    lines = 0
    gets = []

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    def profiler(frame, event, arg):
        if event == "c_call" and frame.f_code is code and arg.__name__ == "get":
            gets.append(arg.__self__)

    trace, profile = sys.gettrace(), sys.getprofile()
    sys.settrace(tracer)
    sys.setprofile(profiler)
    try:
        index = address_pass(block)
    finally:
        sys.setprofile(profile)
        sys.settrace(trace)
    accessor_gets = sum(1 for found in gets if found is index.accessors)
    writer_gets = sum(1 for found in gets if found is index.writers)
    return lines, accessor_gets, writer_gets


@pytest.mark.parametrize("family", ["intkey", "wallet"])
def test_a_one_address_transaction_takes_one_accessors_lookup(family):
    # every op left in these blocks reads and writes one address through
    # one set object; its path costs 12 lines and one accessors lookup at a
    # new address, and 14 lines, that lookup and one writers lookup at a
    # seen one, and the pass around them 5 lines
    spec = WorkloadSpec(family=family, txns_per_block=200, dependency_pct=40, rng_seed=3)
    ops = [t.payload for t in generate_block(spec).transactions if t.payload.opcode != "transfer"]
    block = block_from_ops(ops)
    txns = block.transactions
    assert all(t.read_set is t.write_set and len(t.write_set) == 1 for t in txns)
    new = len({t.write_set for t in txns})
    seen = len(txns) - new
    assert new > 1 and seen > 1
    assert _traced_pass(block) == (5 + 12 * new + 14 * seen, len(txns), seen)


def test_address_pass_tuples_do_not_depend_on_the_hash_seed():
    # Address sets of bytes iterate in an order that follows the hash seed.
    script = (
        "from blockdag.dag import address_pass\n"
        "from blockdag.workload import WorkloadSpec, generate_block\n"
        "spec = WorkloadSpec(family='mixed', txns_per_block=120, dependency_pct=60, rng_seed=5)\n"
        "print(address_pass(generate_block(spec)).preds)\n"
    )
    src = str(Path(blockdag.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
    spec = WorkloadSpec(family="mixed", txns_per_block=120, dependency_pct=60, rng_seed=5)
    assert outputs[0] == f"{address_pass(generate_block(spec)).preds}\n"


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
        assert [len(p) for p in dag.preds] == dag.indegree_snapshot()


def test_kept_predecessor_tuples_match_the_edge_walk():
    rng = random.Random(61)
    for _ in range(30):
        block = random_structural_block(rng, max_n=40)
        txns = block.transactions
        expected = [
            tuple(i for i in range(j) if conflicts(txns[i], txn)) for j, txn in enumerate(txns)
        ]
        built = build_dag(block)
        for dag in (built, brute_force_dag(block), dag_from_shared(attach_dag(block, built))):
            preds = dag.preds
            assert preds == tuple(expected)
            walked = [[] for _ in txns]
            for i, j in dag.edges():
                walked[j].append(i)
            assert preds == tuple(map(tuple, walked))
            assert type(preds) is tuple and all(type(p) is tuple for p in preds)
            assert [len(p) for p in preds] == dag.indegree_snapshot()


@pytest.mark.parametrize("cls", [DependencyDAG])
@pytest.mark.parametrize("preds", [[(), (1,)], [(1,)], [(), (-1,)]])
def test_constructor_rejects_a_predecessor_not_below_its_transaction(cls, preds):
    with pytest.raises(ValueError, match="declares invalid dependency"):
        cls(preds)


def test_constructor_keeps_a_repeated_predecessor_once():
    # three deposits into one account: 1 waits for 0, and 2 for 0 and 1
    block = block_from_ops([wallet_deposit("a", 1)] * 3)
    dag = DependencyDAG([(), (0, 0), (1, 0, 1)])
    assert dag.edge_count == 3
    assert dag.preds == ((), (0,), (0, 1))
    assert dag.indegree_snapshot() == [0, 1, 2]
    assert list(dag.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert validate_dag(attach_dag(block, dag)) is Verdict.HONEST


def test_edges_walk_the_tuples_without_edge_queries():
    rng = random.Random(67)
    for trial in range(20):
        block = (
            random_structural_block(rng, max_n=40)
            if trial % 2
            else random_family_block(rng)
        )
        oracle = brute_force_dag(block)
        shared = dag_from_shared(attach_dag(block, oracle))
        assert type(shared) is DependencyDAG
        edges = list(shared.edges())
        assert len(edges) == shared.edge_count
        assert set(edges) == oracle.edge_set()


def test_successor_lists_are_sorted_and_deduplicated():
    block = structural_block(
        [
            (set(), {b"a", b"b"}),
            ({b"a"}, {b"b"}),  # shares two addresses with txn 0: one edge
            ({b"a"}, set()),
        ]
    )
    dag = build_dag(block, workers=2)
    assert [j for i, j in dag.edges() if i == 0] == [1, 2]
    assert dag.indegree_snapshot() == [0, 1, 1]


def test_build_dag_input_validation():
    block = structural_block([({b"a"}, set())])
    with pytest.raises(ValueError):
        build_dag(block, workers=0)


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


def test_dag_from_shared_deduplicates_and_sorts_declared_lists():
    # six transactions, so the longest padded list's length is an indegree
    # below the transaction count
    block = attach_dag(
        structural_block([(set(), set())] * 6), DependencyDAG([()] * 6)
    )
    declared = [(), (0, 0), (1, 0, 1), (2, 0, 2, 1, 0), (), ()]
    shared = Block(
        tuple(
            replace(txn, declared_dependencies=deps)
            for txn, deps in zip(block.transactions, declared)
        ),
        tuple(len(deps) for deps in declared),
    )
    dag = dag_from_shared(shared)
    assert dag.preds == ((), (0,), (0, 1), (0, 1, 2), (), ())
    assert dag.indegree_snapshot() == [0, 1, 2, 3, 0, 0]
    assert dag.edge_count == 6
    assert dag.edge_set() == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)}
    # a malicious verdict leaves the lists to be sorted and deduplicated again
    assert validate_dag(shared) is Verdict.MALICIOUS_EXTRA_EDGE
    assert dag_from_shared(shared).preds == dag.preds


def test_dag_from_shared_rejects_dependency_not_below_index():
    # the transaction refuses such a list where it is made, so no shared
    # block carries one to dag_from_shared or the validator; the
    # DependencyDAG constructor's own check is pinned above
    block = structural_block([(set(), set())] * 3)
    for deps, bad in [((0, 2), 2), ((1, 3, 0), 3), ((-1, 0), -1)]:
        with pytest.raises(ValueError, match=f"^transaction 2 declares invalid dependency {bad}$"):
            replace(block.transactions[2], declared_dependencies=deps)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_a_marked_parsed_block_runs_its_declared_tuples(family):
    spec = WorkloadSpec(family=family, txns_per_block=120, dependency_pct=30, rng_seed=5)
    block = generate_block(spec)
    shared = parse_block(serialize_block(block, build_dag(block)))
    assert validate_dag(shared) is Verdict.HONEST
    assert shared._canonical_deps is True
    dag = dag_from_shared(shared)
    # the declared tuples themselves, with no copy
    assert all(p is txn.declared_dependencies for p, txn in zip(dag.preds, shared.transactions))
    assert dag.edge_set() == brute_force_dag(shared).edge_set()
    assert dag.indegree_snapshot() == list(shared.shared_indegree)
    serial = StateStore()
    execute_block_serial(shared, serial)
    for workers in (1, 2, 4):
        store = StateStore()
        execute_block_parallel(shared, dag, store, workers)
        assert state_digest(store) == state_digest(serial)


def test_shared_extra_edge_is_honoured_by_the_executor():
    # independent deposits, but the shared DAG makes 3 wait for 0
    block = block_from_ops([wallet_deposit(f"acct{i}", i + 1) for i in range(4)])
    honest = attach_dag(block, build_dag(block))
    assert build_dag(block).edge_count == 0
    txns = list(honest.transactions)
    txns[3] = replace(txns[3], declared_dependencies=(0,))
    shared = Block(tuple(txns), (0, 0, 0, 1))
    assert validate_dag(shared) is Verdict.MALICIOUS_EXTRA_EDGE

    def slow_first(txn, store):
        if txn.index == 0:
            # give the other worker time to run everything it may
            threading.Event().wait(0.05)
        return apply_transaction(txn, store)

    report = execute_block_parallel(
        shared, dag_from_shared(shared), StateStore(), 2, processor=slow_first
    )
    assert report.schedule.index(0) < report.schedule.index(3)


def test_validate_path_fills_no_dag_storage():
    rng = random.Random(79)
    blocks = [random_family_block(rng, n=60) for _ in range(6)]
    wires = [serialize_block(block, build_dag(block)) for block in blocks]
    for block, wire in zip(blocks, wires):
        shared = parse_block(wire)
        assert validate_dag(shared) is Verdict.HONEST
        store, serial_store = StateStore(), StateStore()
        execute_block_parallel(shared, dag_from_shared(shared), store, 2)
        execute_block_serial(block, serial_store)
        assert state_digest(store) == state_digest(serial_store)
