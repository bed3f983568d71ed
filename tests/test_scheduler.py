import collections
import hashlib
import heapq
import random
import sys
import threading
import time
import types

import pytest

from blockdag import scheduler
from blockdag.codec import attach_dag
from blockdag.dag import (
    DependencyDAG,
    address_pass,
    brute_force_dag,
    build_dag,
    dag_from_shared,
)
from blockdag.families import (
    apply_transaction,
    block_from_ops,
    wallet_create,
    wallet_deposit,
    wallet_withdraw,
)
from blockdag.model import StateStore, state_digest
from blockdag.scheduler import (
    ParallelExecutionError,
    ReadyQueue,
    execute_block_parallel,
    execute_block_serial,
)
from blockdag.tree import TreeRun, build_predecessor_tree, execute_block_tree
from blockdag.workload import WorkloadSpec, generate_block

from _helpers import (
    assert_exactly_once,
    assert_topological,
    random_family_block,
    random_structural_block,
    structural_block,
)


def _chain_block(n):
    # txn i writes x_i and reads x_{i-1}: exactly the consecutive edges
    specs = [(set(), {b"x0"})]
    for i in range(1, n):
        specs.append(({b"x%d" % (i - 1)}, {b"x%d" % i}))
    return structural_block(specs)


def _single(dag):
    """A ready queue whose every grant is one transaction: with at least as
    many workers as transactions, ceil(ready / workers) is 1."""
    return ReadyQueue(dag, workers=max(1, dag.txn_count))


def _grant(queue):
    batch = []
    queue.grant(batch)
    assert len(batch) <= 1
    return batch[0] if batch else None


def test_grant_takes_lowest_ready_first():
    block = structural_block(
        [(set(), {b"A"}), ({b"A"}, set()), (set(), {b"B"}), (set(), {b"C"})]
    )
    queue = _single(build_dag(block))
    assert _grant(queue) == 0
    # 1 waits for 0, so the next grant skips to 2
    assert _grant(queue) == 2
    queue.commit(0)
    # 1 is released after 3 became ready, and still goes first
    assert [_grant(queue) for _ in range(3)] == [1, 3, None]


class _IndegreeQueue:
    """Reference model of the ready queue: successor lists from the edge
    walk, one indegree count per transaction, a heap of ready indices, and
    the batch rule spelt out over them."""

    def __init__(self, dag):
        self.successors = [[] for _ in range(dag.txn_count)]
        for i, j in dag.edges():
            self.successors[i].append(j)
        self.preds = dag.preds
        self.indegree = dag.indegree_snapshot()
        self.committed = set()
        self.ready = [i for i, d in enumerate(self.indegree) if d == 0]

    def waited_on(self, index):
        """Whether a transaction that is not ready waits on ``index``: it is
        that transaction's highest uncommitted predecessor."""
        return any(
            self.indegree[j]
            and max(p for p in self.preds[j] if p not in self.committed) == index
            for j in self.successors[index]
        )

    def grant(self, workers):
        size = -(-len(self.ready) // workers)
        batch = []
        while self.ready and len(batch) < size:
            batch.append(heapq.heappop(self.ready))
            if self.waited_on(batch[-1]):
                break
        return batch

    def commit(self, index):
        self.committed.add(index)
        for j in self.successors[index]:
            self.indegree[j] -= 1
            if not self.indegree[j]:
                heapq.heappush(self.ready, j)


def _dags_for(block, rng):
    """Built, brute-force and shared DAGs of the block, and two with extra edges."""
    built = build_dag(block)
    shared = dag_from_shared(attach_dag(block, built))
    n = block.txn_count
    extended = []
    for _ in range(2):
        preds = [set(p) for p in address_pass(block).preds]
        for _ in range(rng.randrange(0, 2 * n + 1) if n > 1 else 0):
            i = rng.randrange(0, n - 1)
            preds[rng.randrange(i + 1, n)].add(i)
        extended.append(DependencyDAG(preds))
    return [built, brute_force_dag(block), shared, *extended]


def test_ready_queue_grants_match_indegree_model_under_random_interleavings():
    rng = random.Random(19)
    steps = 0
    for trial in range(40):
        block = (
            random_structural_block(rng, max_n=48)
            if trial % 2
            else random_family_block(rng, n=rng.randrange(2, 120))
        )
        for dag in _dags_for(block, rng):
            n = dag.txn_count
            workers = rng.choice((1, 2, 3, 8, max(1, n)))
            queue, model = ReadyQueue(dag, workers), _IndegreeQueue(dag)
            edges = dag.edge_set()
            running: list[int] = []
            committed = 0
            while committed < n:
                if running and rng.random() < 0.5:
                    index = running.pop(rng.randrange(len(running)))
                    queue.commit(index)
                    model.commit(index)
                    committed += 1
                else:
                    ready = len(model.ready)
                    batch: list[int] = []
                    more = queue.grant(batch)
                    assert batch == sorted(batch)
                    assert len(batch) <= -(-ready // workers)
                    assert not any(model.waited_on(i) for i in batch[:-1])
                    assert not any((i, j) in edges for i in batch for j in batch)
                    assert batch == model.grant(workers)
                    if batch:
                        assert more == bool(model.ready)
                    else:
                        assert running, "nothing ready and nothing running"
                    running.extend(batch)
                steps += 1
            batch = []
            queue.grant(batch)
            assert batch == [] and model.grant(workers) == []
    assert steps > 5000


def _batches(queue):
    """Grant and commit batch after batch until the queue is empty."""
    batches = []
    while True:
        batch: list[int] = []
        queue.grant(batch)
        if not batch:
            return batches
        batches.append(batch)
        for index in batch:
            queue.commit(index)


def test_batch_sizes_follow_guided_self_scheduling():
    dag = build_dag(structural_block([(set(), {b"k%d" % i}) for i in range(40)]))
    for workers, sizes in ((1, [40]), (2, [20, 10, 5, 3, 1, 1]), (40, [1] * 40)):
        queue = ReadyQueue(dag, workers)
        granted = []
        while True:
            batch: list[int] = []
            queue.grant(batch)
            if not batch:
                break
            granted.append(batch)
        assert [len(batch) for batch in granted] == sizes
        assert [i for batch in granted for i in batch] == list(range(40))


def test_batch_ends_at_the_first_waited_on_transaction():
    # 0 and 3 are chain heads that 6 and 7 wait on; the rest are independent
    block = structural_block(
        [(set(), {b"A"}), (set(), {b"B"}), (set(), {b"C"}), (set(), {b"D"}),
         (set(), {b"E"}), (set(), {b"F"}), ({b"A"}, set()), ({b"D"}, set())]
    )
    queue = ReadyQueue(build_dag(block), workers=1)
    assert _batches(queue) == [[0], [1, 2, 3], [4, 5, 6, 7]]


def test_a_chain_is_granted_one_transaction_at_a_time():
    block = _chain_block(30)
    for workers in (1, 2, 4):
        assert _batches(ReadyQueue(build_dag(block), workers)) == [[i] for i in range(30)]


def test_a_queue_from_start_holds_what_the_committed_prefix_released():
    """``ReadyQueue(dag, workers, start)`` treats every index below start as
    committed: exactly the transactions whose predecessors are all below
    start are ready, every other one waits on its highest predecessor, and
    draining it in any interleaving of grants and commits gives an
    exactly-once, topological order of the rest."""
    rng = random.Random(179)
    blocks = [random_structural_block(rng, max_n=30) for _ in range(15)]
    blocks += [random_family_block(rng, n=40) for _ in range(10)]
    for block in blocks:
        dag = build_dag(block)
        preds, n = dag.preds, dag.txn_count
        for start in range(n + 1):
            queue = ReadyQueue(dag, rng.randint(1, 4), start)
            assert queue.ready == [j for j in range(start, n) if all(p < start for p in preds[j])]
            waits_on = {j: index for index, waiting in queue.waiters.items() for j in waiting}
            assert sum(map(len, queue.waiters.values())) == len(waits_on)
            assert waits_on == {j: preds[j][-1] for j in range(start, n) if preds[j] and preds[j][-1] >= start}
            order, running = list(range(start)), []
            while True:
                if running and (rng.random() < 0.5 or not queue.ready):
                    index = running.pop(rng.randrange(len(running)))
                    order.append(index)
                    queue.commit(index)
                    continue
                batch: list[int] = []
                queue.grant(batch)
                if not batch:
                    break
                running += batch
            assert running == []
            assert_exactly_once(order, n)
            assert_topological(order, dag.edges())


def _waves(queue):
    """Grant until nothing is ready, commit that wave, repeat."""
    waves = []
    while True:
        wave = []
        while (index := _grant(queue)) is not None:
            wave.append(index)
        if not wave:
            return waves
        waves.append(wave)
        for index in reversed(wave):
            queue.commit(index)


def _levels(n, edges):
    level = [0] * n
    for i, j in sorted(edges, key=lambda e: e[1]):
        level[j] = max(level[j], level[i] + 1)
    waves = [[] for _ in range(max(level, default=-1) + 1)]
    for index, depth in enumerate(level):
        waves[depth].append(index)
    return waves


def test_ready_queue_grants_match_both_variants():
    """The built DAG and its shared copy grant the oracle's levels as waves."""
    rng = random.Random(17)
    for _ in range(20):
        block = random_family_block(rng)
        expected = _levels(block.txn_count, brute_force_dag(block).edges())
        built = build_dag(block)
        for dag in (built, dag_from_shared(attach_dag(block, built))):
            assert _waves(_single(dag)) == expected


def test_grant_returns_none_until_commit():
    block = structural_block([(set(), {b"A"}), ({b"A"}, set())])
    queue = _single(build_dag(block))
    assert _grant(queue) == 0
    # granted but uncommitted predecessor: successor stays unavailable
    assert _grant(queue) is None
    queue.commit(0)
    assert _grant(queue) == 1


def test_grant_returns_none_after_every_commit():
    block = structural_block([(set(), {b"A"}), (set(), {b"B"})])
    queue = _single(build_dag(block))
    for _ in range(2):
        queue.commit(_grant(queue))
    assert _grant(queue) is None


def test_commit_releases_each_successor_once():
    block = structural_block(
        [
            (set(), {b"A"}),
            (set(), {b"B"}),
            (set(), {b"C"}),
            ({b"B"}, set()),
            ({b"A"}, set()),
            ({b"A"}, {b"C"}),
        ]
    )
    dag = build_dag(block)
    before = (dag.indegree_snapshot(), dag.preds)
    queue = _single(dag)
    assert _grant(queue) == 0
    queue.commit(0)
    # 4 had no other predecessor and is queued behind the initial ready set;
    # 5 still waits for 2, and 3 for 1
    assert [_grant(queue) for _ in range(4)] == [1, 2, 4, None]
    queue.commit(2)
    assert [_grant(queue) for _ in range(2)] == [5, None]
    queue.commit(1)
    assert [_grant(queue) for _ in range(2)] == [3, None]
    for index in (3, 4, 5):
        queue.commit(index)
    assert _grant(queue) is None
    assert (dag.indegree_snapshot(), dag.preds) == before


def test_commit_without_successors_touches_nothing_else():
    block = structural_block([(set(), {b"A"}), (set(), {b"B"}), ({b"A"}, set())])
    queue = _single(build_dag(block))
    assert [_grant(queue) for _ in range(3)] == [0, 1, None]
    # nothing waits on 1, so its commit releases nothing
    queue.commit(1)
    assert _grant(queue) is None
    queue.commit(0)
    assert [_grant(queue) for _ in range(2)] == [2, None]


class _Counted(tuple):
    """A predecessor tuple that counts the reads of its entries."""

    reads = 0

    def __getitem__(self, k):
        type(self).reads += 1
        return super().__getitem__(k)


def test_commit_reads_each_predecessor_a_bounded_number_of_times(monkeypatch):
    # m roots and one sink that waits on all of them; committing the roots
    # highest first makes the sink wait again m - 1 times while low stays 0,
    # so only upper[j] keeps each walk from starting over at the top
    m = 60
    monkeypatch.setattr(_Counted, "reads", 0)
    queue = _single(DependencyDAG._from_pass([()] * m + [_Counted(range(m))]))
    assert [_grant(queue) for _ in range(m + 1)] == list(range(m)) + [None]
    for index in reversed(range(m)):
        queue.commit(index)
    assert _grant(queue) == m
    assert _Counted.reads <= 4 * m
    # committed lowest first, the roots carry low up to the sink's last
    # predecessor, so the walk at that commit stops at low at once
    queue = _single(DependencyDAG._from_pass([()] * m + [_Counted(range(m))]))
    assert [_grant(queue) for _ in range(m + 1)] == list(range(m)) + [None]
    for index in range(m - 1):
        queue.commit(index)
    monkeypatch.setattr(_Counted, "reads", 0)
    queue.commit(m - 1)
    assert _grant(queue) == m
    assert _Counted.reads <= 2


def test_chain_schedules_in_order_for_any_worker_count():
    block = _chain_block(12)
    for workers in (1, 2, 4, 8):
        dag = build_dag(block, workers=2)
        store = StateStore()
        report = execute_block_parallel(
            block, dag, store, workers, processor=lambda t, s: True
        )
        assert report.schedule == list(range(12))


def test_one_worker_runs_every_block_in_index_order():
    # index order is a topological order of every DAG, and with one worker
    # the queue already hands it out: each batch is the next run of indices
    rng = random.Random(23)
    for trial in range(400):
        block = random_structural_block(rng) if trial % 2 else random_family_block(rng)
        dag = build_dag(block)
        in_order = list(range(block.txn_count))
        batches = _batches(ReadyQueue(dag, 1))
        assert [i for batch in batches for i in batch] == in_order
        report = execute_block_parallel(
            block, dag, StateStore(), 1, processor=lambda t, s: True
        )
        assert report.schedule == in_order


def test_independent_txns_any_order_same_digest():
    block = block_from_ops(
        [wallet_deposit(f"acct{i}", 10 * (i + 1)) for i in range(16)]
    )
    serial_store = StateStore()
    execute_block_serial(block, serial_store)
    for _ in range(3):
        dag = build_dag(block, workers=2)
        store = StateStore()
        report = execute_block_parallel(block, dag, store, workers=4)
        assert_exactly_once(report.schedule, block.txn_count)
        assert state_digest(store) == state_digest(serial_store)


def test_serial_wallet_arithmetic():
    block = block_from_ops(
        [wallet_create("a"), wallet_deposit("a", 100), wallet_withdraw("a", 30)]
    )
    store = StateStore()
    report = execute_block_serial(block, store)
    assert store.get(b"wallet/a") == 70
    assert report.txn_successes == 3
    assert report.schedule == [0, 1, 2]


def test_empty_block_leaves_store_untouched():
    block = structural_block([])
    store = StateStore({b"k": 1})
    before = state_digest(store)
    execute_block_serial(block, store)
    assert state_digest(store) == before
    parallel = execute_block_parallel(block, build_dag(block), store, workers=3)
    assert state_digest(store) == before
    assert parallel.schedule == []


def test_parallel_matches_serial_across_random_blocks():
    rng = random.Random(97)
    for _ in range(30):
        block = random_family_block(rng)
        serial_store = StateStore()
        execute_block_serial(block, serial_store)
        workers = rng.choice((1, 2, 4, 8))
        dag = build_dag(block, workers=2)
        store = StateStore()
        report = execute_block_parallel(block, dag, store, workers=workers)
        assert state_digest(store) == state_digest(serial_store)
        assert_exactly_once(report.schedule, block.txn_count)
        assert report.txn_successes + report.txn_failures == block.txn_count
        fresh = build_dag(block, workers=1)
        assert_topological(report.schedule, fresh.edges())


def test_logical_failures_release_successors():
    # withdraw from an empty account fails; its dependent still runs
    block = block_from_ops(
        [wallet_withdraw("a", 5), wallet_deposit("a", 7), wallet_deposit("b", 1)]
    )
    dag = build_dag(block)
    store = StateStore()
    report = execute_block_parallel(block, dag, store, workers=2)
    assert report.txn_failures == 1
    assert report.txn_successes == 2
    assert store.get(b"wallet/a") == 7


def test_worker_crash_surfaces_with_partial_report():
    block = block_from_ops([wallet_deposit(f"a{i}", 1) for i in range(8)])

    def flaky(txn, store):
        if txn.index == 5:
            raise RuntimeError("processor blew up")
        return True

    dag = build_dag(block)
    with pytest.raises(ParallelExecutionError) as excinfo:
        execute_block_parallel(block, dag, StateStore(), workers=2, processor=flaky)
    partial = excinfo.value.report
    assert 5 not in partial.schedule
    assert len(partial.schedule) < block.txn_count


def test_execution_terminates_within_generous_timeout():
    rng = random.Random(131)
    block = random_family_block(rng, n=300)
    dag = build_dag(block, workers=2)
    result = {}

    def run():
        store = StateStore()
        result["report"] = execute_block_parallel(block, dag, store, workers=4)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive(), "parallel execution did not terminate"
    assert_exactly_once(result["report"].schedule, block.txn_count)


def test_same_block_twice_same_digest():
    rng = random.Random(139)
    block = random_family_block(rng)
    digests = set()
    for _ in range(2):
        store = StateStore()
        execute_block_serial(block, store)
        digests.add(state_digest(store))
    assert len(digests) == 1


def test_parallel_rejects_bad_arguments():
    block = structural_block([(set(), {b"a"})])
    dag = build_dag(block)
    with pytest.raises(ValueError):
        execute_block_parallel(block, dag, StateStore(), workers=0)
    other = structural_block([(set(), {b"a"}), (set(), {b"b"})])
    with pytest.raises(ValueError):
        execute_block_parallel(other, dag, StateStore(), workers=1)
    # a chain skips the queue's loop, but not the checks
    chain = _voting_block(20)
    calls = []

    def counting(txn, store):
        calls.append(txn.index)
        return apply_transaction(txn, store)

    store = StateStore()
    for kwargs, message in (
        ({"workers": 0}, "workers must be >= 1"),
        ({"workers": 2, "sim_work_us": -1}, "sim_work_us must be >= 0"),
    ):
        with pytest.raises(ValueError, match=message):
            execute_block_parallel(chain, build_dag(chain), store, processor=counting, **kwargs)
    assert calls == []
    assert len(store) == 0


def _within(seconds, fn):
    """Run fn on a daemon thread; fail the test if it has not returned in time."""
    result = {}

    def target():
        try:
            result["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - handed back to the test
            result["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive(), "execution did not terminate"
    return result


def _voting_block(n):
    # every voting transaction writes the whole registry, so the DAG is a chain
    return generate_block(WorkloadSpec(family="voting", txns_per_block=n, rng_seed=5))


def _independent_then_voting(n):
    """A deposit that conflicts with nothing, then a voting chain of n - 1:
    two transactions are ready at the start, so the DAG is not a chain and
    the block goes through the queue."""
    voting = _voting_block(n - 1)
    return block_from_ops([wallet_deposit("solo", 1)] + [t.payload for t in voting.transactions])


def _run_dag(block, store, workers, **kwargs):
    return execute_block_parallel(block, build_dag(block), store, workers, **kwargs)


def _run_tree(block, store, workers, **kwargs):
    return execute_block_tree(block, build_predecessor_tree(block), store, workers, **kwargs)


EXECUTORS = pytest.mark.parametrize("execute", [_run_dag, _run_tree], ids=["dag", "tree"])


def _run_serial(block, store, workers, **kwargs):
    return execute_block_serial(block, store, **kwargs)


ALL_EXECUTORS = pytest.mark.parametrize(
    "execute", [_run_serial, _run_dag, _run_tree], ids=["serial", "dag", "tree"]
)


def _wallet_block(n):
    return generate_block(WorkloadSpec(family="wallet", txns_per_block=n, rng_seed=3))


@ALL_EXECUTORS
def test_executors_do_not_hash_the_store(execute, monkeypatch):
    block = _wallet_block(60)

    def no_sha256(*args, **kwargs):
        raise AssertionError("an executor hashed the store")

    monkeypatch.setattr(hashlib, "sha256", no_sha256)
    report = execute(block, StateStore(), 2)
    assert sorted(report.schedule) == list(range(block.txn_count))


@ALL_EXECUTORS
def test_negative_sim_work_is_rejected_before_anything_runs(execute):
    block = _wallet_block(20)
    calls = []

    def counting(txn, store):
        calls.append(txn.index)
        return apply_transaction(txn, store)

    store = StateStore()
    with pytest.raises(ValueError, match="sim_work_us must be >= 0"):
        execute(block, store, 2, processor=counting, sim_work_us=-5)
    assert calls == []
    assert len(store) == 0


def test_same_dag_executes_twice_with_same_digest():
    rng = random.Random(149)
    block = random_family_block(rng, n=120)
    dag = build_dag(block)
    indegree = dag.indegree_snapshot()
    serial_store = StateStore()
    execute_block_serial(block, serial_store)

    def run_once():
        store = StateStore()
        execute_block_parallel(block, dag, store, workers=3)
        return state_digest(store)

    result = _within(30, lambda: [run_once() for _ in range(2)])
    assert result["value"] == [state_digest(serial_store)] * 2
    assert dag.indegree_snapshot() == indegree


def _prefix_then_chain(width, length):
    """Deposits to ``width`` distinct accounts, then ``length`` deposits to one
    account: helpers start for the independent prefix, and find nothing to
    run once only the chain is left."""
    return block_from_ops(
        [wallet_deposit(f"p{i}", 1) for i in range(width)]
        + [wallet_deposit("chain", i + 1) for i in range(length)]
    )


class _LoopSpy:
    """Replaces the scheduler's helper start and its threading module: records
    every helper the loop starts and, by ``threading.get_ident()``, every
    thread that runs as a helper, waits on the loop's condition or notifies
    all of its waiters, and can make the ``fail_start_at``-th start raise as
    a thread limit would."""

    def __init__(self, monkeypatch, fail_start_at=None):
        self.attempts: list = []
        self.started: list = []  # one entry per helper whose start succeeded
        self.helpers: set[int] = set()  # idents of threads that ran as helpers
        self.returned: set[int] = set()  # idents of helpers whose loop returned
        self.waited: set[int] = set()
        spy = self
        start = scheduler._start_thread

        def spy_start(target):
            spy.attempts.append(target)
            if len(spy.attempts) == fail_start_at:
                raise RuntimeError("can't start new thread")

            def traced():
                spy.helpers.add(threading.get_ident())
                target()

            start(traced)
            spy.started.append(target)

        class Condition(threading.Condition):
            def wait(self, timeout=None):
                spy.waited.add(threading.get_ident())
                return super().wait(timeout)

            def notify_all(self):
                # A helper's loop ends in notify_all, whether it returns or
                # fails, and the lock is held, so the run sees this record.
                ident = threading.get_ident()
                if ident in spy.helpers:
                    spy.returned.add(ident)
                super().notify_all()

        fake = types.ModuleType("threading")
        fake.__dict__.update(vars(threading))
        fake.Condition = Condition
        monkeypatch.setattr(scheduler, "threading", fake)
        monkeypatch.setattr(scheduler, "_start_thread", spy_start)

    def helpers_stopped(self):
        """Every started helper ran and its loop returned before the run did."""
        return len(self.started) == len(self.helpers) and self.returned == self.helpers

    def reset(self):
        """Forget every record, before the next run."""
        for records in (self.attempts, self.started, self.helpers, self.returned, self.waited):
            records.clear()


def _arrives_at(spy, k, processor=apply_transaction):
    """``processor``, except that at transaction ``k`` it first waits until a
    helper waits on the loop's condition, if one was started: a helper that
    has arrived. Under a long switch interval a helper first runs when the
    calling thread blocks, so the in-order head hands over right after k."""

    def arriving(txn, store):
        if txn.index == k and spy.started:
            deadline = time.monotonic() + 10
            while not spy.waited & spy.helpers:
                assert time.monotonic() < deadline, "no helper arrived"
                time.sleep(0.001)
        return processor(txn, store)

    return arriving


def _record_queue_starts(monkeypatch):
    """Replace the scheduler's ReadyQueue with a subclass; returns the list
    of the ``start`` of every queue built through it."""
    starts = []

    class Recorded(ReadyQueue):
        def __init__(self, dag, workers, start=0):
            starts.append(start)
            super().__init__(dag, workers, start)

    monkeypatch.setattr(scheduler, "ReadyQueue", Recorded)
    return starts


def _count_failed_grants(monkeypatch):
    """Wrap the grant step of both executors' run objects; returns the list
    of failed grants and the list of every grant's batch, so a test can tell
    that the wrapped step ran at all."""
    failed, calls = [], []
    for cls in (ReadyQueue, TreeRun):

        def counted(run, batch, grant=cls.grant):
            more = grant(run, batch)
            calls.append(list(batch))
            if not batch:
                failed.append(None)
            return more

        monkeypatch.setattr(cls, "grant", counted)
    return failed, calls


@EXECUTORS
def test_crash_while_workers_wait_is_typed_with_partial_report(execute, monkeypatch):
    spy = _LoopSpy(monkeypatch)
    block = _prefix_then_chain(3, 10)

    def crash_in_chain(txn, store):
        if txn.index == 5:
            # give the helpers time to block on the empty queue
            time.sleep(0.05)
            raise RuntimeError("processor blew up")
        return True

    result = _within(10, lambda: execute(block, StateStore(), 4, processor=crash_in_chain))
    error = result["error"]
    assert isinstance(error, ParallelExecutionError)
    assert "processor blew up" in str(error)
    assert isinstance(error.__cause__, RuntimeError)
    assert sorted(error.report.schedule) == [0, 1, 2, 3, 4]
    assert [i for i in error.report.schedule if i >= 3] == [3, 4]
    assert spy.waited & spy.helpers, "no helper waited"
    assert spy.helpers_stopped()


@EXECUTORS
def test_idle_workers_do_not_poll(execute, monkeypatch):
    spy = _LoopSpy(monkeypatch)
    block = _prefix_then_chain(3, 40)
    serial_store = StateStore()
    execute_block_serial(block, serial_store)

    def no_sleep(seconds):
        raise AssertionError(f"idle worker slept {seconds} s")

    def slow_chain_head(txn, store):
        if txn.index == 3:
            # the helpers run out of work meanwhile and find nothing runnable
            threading.Event().wait(0.05)
        return apply_transaction(txn, store)

    monkeypatch.setattr(scheduler.time, "sleep", no_sleep)
    store = StateStore()
    report = execute(block, store, 4, processor=slow_chain_head, sim_work_us=0)
    assert state_digest(store) == state_digest(serial_store)
    assert [i for i in report.schedule if i >= 3] == list(range(3, block.txn_count))
    assert spy.waited & spy.helpers, "no helper waited"


@pytest.mark.parametrize("sim", [0, 50])
@pytest.mark.parametrize("workers", [2, 4, 8])
def test_a_chain_block_runs_in_index_order_without_the_queue(workers, sim, monkeypatch):
    spy = _LoopSpy(monkeypatch)
    _, calls = _count_failed_grants(monkeypatch)
    block = _voting_block(40)
    serial_store, store = StateStore(), StateStore()
    execute_block_serial(block, serial_store)
    report = _run_dag(block, store, workers, sim_work_us=sim)
    assert report.schedule == list(range(block.txn_count))
    assert report.txn_successes + report.txn_failures == block.txn_count
    assert state_digest(store) == state_digest(serial_store)
    assert calls == []
    assert spy.attempts == []


@pytest.mark.parametrize(
    "specs, chain",
    [
        ([], True),
        ([(set(), {b"a"})], True),
        ([(set(), {b"a"}), ({b"a"}, {b"b"}), ({b"b"}, set())], True),
        ([(set(), {b"a"}), (set(), {b"b"})], False),
        # every transaction after the first has a predecessor, but 2 lacks 1
        ([(set(), {b"a"}), ({b"a"}, set()), ({b"a"}, set())], False),
        ([(set(), {b"a"}), ({b"a"}, {b"b"}), ({b"b"}, set()), (set(), {b"c"})], False),
    ],
    ids=["empty", "one", "chain", "independent", "fork", "chain-then-independent"],
)
def test_only_a_chain_skips_the_queue(specs, chain, monkeypatch):
    """Only a chain starts no helper; every other block starts one, and once
    it arrives (here during transaction 0) the rest goes through the queue."""
    spy = _LoopSpy(monkeypatch)
    _, calls = _count_failed_grants(monkeypatch)
    block = structural_block(specs)
    report = _run_dag(block, StateStore(), 2, processor=_arrives_at(spy, 0))
    assert_exactly_once(report.schedule, block.txn_count)
    assert (calls == []) == chain
    assert (spy.attempts == []) == chain
    assert spy.helpers_stopped()


@pytest.mark.usefixtures("long_switch_interval")
def test_dag_executor_runs_a_chain_alone_without_failed_grants(monkeypatch):
    """A chain behind one independent transaction, with the helper arriving
    during transaction 0: the queue starts at 1 and runs the chain one grant
    per transaction, and its tail wakes and starts nobody, so the helper
    waits from its arrival to the end of the run and grants nothing."""
    spy = _LoopSpy(monkeypatch)
    failed, calls = _count_failed_grants(monkeypatch)
    starts = _record_queue_starts(monkeypatch)
    block = _independent_then_voting(40)
    serial_store, store = StateStore(), StateStore()
    execute_block_serial(block, serial_store)
    report = _run_dag(block, store, 4, processor=_arrives_at(spy, 0), sim_work_us=50)
    assert report.schedule == list(range(block.txn_count))
    assert state_digest(store) == state_digest(serial_store)
    assert starts == [1]
    assert [batch for batch in calls if batch] == [[i] for i in range(1, block.txn_count)]
    assert failed == []
    assert len(spy.started) == 1
    assert spy.helpers_stopped()


@pytest.mark.parametrize("k", [0, 5, 17, 39])
def test_a_crash_mid_chain_is_typed_with_the_prefix_that_ran(k):
    block = _voting_block(40)
    outcomes = {}

    def crashing(txn, store):
        if txn.index == k:
            raise RuntimeError("processor blew up")
        outcomes[txn.index] = apply_transaction(txn, store)
        return outcomes[txn.index]

    with pytest.raises(ParallelExecutionError) as excinfo:
        _run_dag(block, StateStore(), 4, processor=crashing)
    error = excinfo.value
    assert isinstance(error.__cause__, RuntimeError)
    assert "processor blew up" in str(error)
    assert error.report.schedule == list(range(k))
    assert error.report.txn_failures == sum(not outcomes[i] for i in range(k))
    assert error.report.txn_successes == k - error.report.txn_failures
    # the serial baseline runs the same loop and lets the error through as it is
    with pytest.raises(RuntimeError, match="processor blew up") as excinfo:
        execute_block_serial(block, StateStore(), processor=crashing)
    assert type(excinfo.value) is RuntimeError


@pytest.mark.parametrize("kind", [KeyboardInterrupt, SystemExit])
def test_an_interrupt_on_the_chain_path_propagates_unchanged(kind, monkeypatch):
    spy = _LoopSpy(monkeypatch)
    block = _voting_block(40)
    interrupt = kind()
    ran = []

    def interrupted(txn, store):
        if txn.index == 10:
            raise interrupt
        ran.append(txn.index)
        return apply_transaction(txn, store)

    with pytest.raises(kind) as excinfo:
        _run_dag(block, StateStore(), 4, processor=interrupted, sim_work_us=50)
    assert excinfo.value is interrupt
    assert ran == list(range(10))
    assert spy.attempts == []


@ALL_EXECUTORS
def test_one_worker_starts_no_thread(execute, monkeypatch):
    spy = _LoopSpy(monkeypatch)
    block = _wallet_block(60)
    for sim in (0, 20):
        report = execute(block, StateStore(), 1, sim_work_us=sim)
        assert_exactly_once(report.schedule, block.txn_count)
    assert spy.attempts == []


@EXECUTORS
def test_wide_block_starts_every_helper_and_overlaps_processors(execute, monkeypatch):
    spy = _LoopSpy(monkeypatch)
    block = _wallet_block(120)
    guard = threading.Lock()
    active = peak = 0

    def overlapping(txn, store):
        nonlocal active, peak
        with guard:
            active += 1
            peak = max(peak, active)
        time.sleep(0.001)
        with guard:
            active -= 1
        return apply_transaction(txn, store)

    serial_store, store = StateStore(), StateStore()
    execute_block_serial(block, serial_store)
    report = execute(block, store, 4, processor=overlapping, sim_work_us=50)
    assert state_digest(store) == state_digest(serial_store)
    assert_exactly_once(report.schedule, block.txn_count)
    assert len(spy.started) == 3
    assert peak >= 2
    assert spy.helpers_stopped()


@pytest.fixture
def long_switch_interval():
    """A helper first runs when the calling thread blocks, which a processor
    that never sleeps does only to wait for the helpers at the end of the
    run: the calling thread runs the whole block in index order, and after
    a handover every batch."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.usefixtures("long_switch_interval")
def test_crash_mid_batch_commits_the_prefix_that_ran(monkeypatch):
    spy = _LoopSpy(monkeypatch)
    rng = random.Random(157)
    checked = firsts = 0
    for _ in range(30):
        block = random_family_block(rng, n=rng.randrange(20, 120))
        dag = build_dag(block)
        # the helper arrives during transaction 0 and waits; the calling
        # thread runs the two-worker queue's batches from 1 on, in order
        batches = _batches(ReadyQueue(dag, 2, 1))
        wide = [k for k, batch in enumerate(batches) if len(batch) > 1]
        if not wide:
            continue
        k = rng.choice(wide)
        # position 0 of a batch: nothing of that batch ran
        pos = rng.randrange(len(batches[k]))
        firsts += not pos
        crash_at = batches[k][pos]
        outcomes = {}

        def crashing(txn, store):
            if txn.index == crash_at:
                raise RuntimeError("processor blew up")
            outcomes[txn.index] = apply_transaction(txn, store)
            return outcomes[txn.index]

        spy.reset()
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_block_parallel(
                block, dag, StateStore(), 2, processor=_arrives_at(spy, 0, crashing)
            )
        report = excinfo.value.report
        expected = [0] + [i for batch in batches[:k] for i in batch] + batches[k][:pos]
        assert report.schedule == expected
        assert len(set(report.schedule)) == len(report.schedule)
        position = {index: p for p, index in enumerate(report.schedule)}
        for i, j in dag.edges():
            if j in position:
                assert i in position and position[i] < position[j]
        assert report.txn_failures == sum(not outcomes[i] for i in report.schedule)
        assert spy.helpers_stopped()
        checked += 1
    assert checked >= 10 and firsts >= 2


def _wide_blocks(rng, count, n):
    """``count`` random family blocks of ``n`` transactions that are not one chain."""
    blocks = []
    while len(blocks) < count:
        block = random_family_block(rng, n=n)
        if not scheduler._is_chain(build_dag(block).preds):
            blocks.append(block)
    return blocks


@pytest.mark.usefixtures("long_switch_interval")
@pytest.mark.parametrize("workers", [2, 4])
def test_a_helper_arriving_during_k_takes_over_after_k(workers, monkeypatch):
    spy = _LoopSpy(monkeypatch)
    starts = _record_queue_starts(monkeypatch)
    for block in _wide_blocks(random.Random(167 + workers), 3, 24):
        dag = build_dag(block)
        n = block.txn_count
        serial_store = StateStore()
        execute_block_serial(block, serial_store)
        for k in range(n):
            spy.reset()
            starts.clear()
            store = StateStore()
            report = _run_dag(block, store, workers, processor=_arrives_at(spy, k))
            assert report.schedule[: k + 1] == list(range(k + 1))
            assert_exactly_once(report.schedule, n)
            assert_topological(report.schedule, dag.edges())
            assert state_digest(store) == state_digest(serial_store)
            # the queue starts where the head stopped; after the last
            # transaction there is nothing left to hand over
            assert starts == ([k + 1] if k + 1 < n else [])
            assert spy.helpers_stopped()


@pytest.mark.usefixtures("long_switch_interval")
@pytest.mark.parametrize("workers", [2, 4])
def test_a_crash_in_the_in_order_head_is_typed_with_the_prefix_below_it(workers, monkeypatch):
    spy = _LoopSpy(monkeypatch)
    starts = _record_queue_starts(monkeypatch)
    (block,) = _wide_blocks(random.Random(173 + workers), 1, 30)
    for k in range(block.txn_count):
        outcomes = {}
        interrupt = KeyboardInterrupt()

        def crashing(txn, store, error=None):
            if txn.index == k:
                raise error or RuntimeError("processor blew up")
            outcomes[txn.index] = apply_transaction(txn, store)
            return outcomes[txn.index]

        spy.reset()
        with pytest.raises(ParallelExecutionError) as excinfo:
            _run_dag(block, StateStore(), workers, processor=crashing)
        error = excinfo.value
        assert isinstance(error.__cause__, RuntimeError)
        assert error.report.schedule == list(range(k))
        assert error.report.txn_failures == sum(not outcomes[i] for i in range(k))
        assert len(spy.started) == 1 and spy.helpers_stopped()

        spy.reset()
        with pytest.raises(KeyboardInterrupt) as excinfo:
            _run_dag(
                block, StateStore(), workers,
                processor=lambda txn, store: crashing(txn, store, interrupt),
            )
        assert excinfo.value is interrupt
        assert len(spy.started) == 1 and spy.helpers_stopped()
    assert starts == []


@pytest.mark.usefixtures("long_switch_interval")
@pytest.mark.parametrize("workers", [2, 4])
def test_a_wide_block_at_sim_zero_builds_no_queue_and_starts_one_helper(workers, monkeypatch):
    """At sim 0 the helper first runs when the calling thread waits for it
    at the end, so the run costs serial plus one helper start and join: no
    queue is built and nothing is granted."""
    spy = _LoopSpy(monkeypatch)
    starts = _record_queue_starts(monkeypatch)
    _, calls = _count_failed_grants(monkeypatch)
    block = generate_block(
        WorkloadSpec(family="wallet", txns_per_block=1000, dependency_pct=20, rng_seed=1)
    )
    report = _run_dag(block, StateStore(), workers)
    assert report.schedule == list(range(block.txn_count))
    assert starts == []
    assert calls == []
    assert len(spy.attempts) == len(spy.started) == 1
    assert spy.helpers_stopped()


@EXECUTORS
@pytest.mark.usefixtures("long_switch_interval")
def test_a_raising_sleep_reports_exactly_the_transactions_that_ran(execute, monkeypatch):
    # two independent transactions, then a chain of two; the DAG executor
    # runs the first block on two workers, in the in-order head, since the
    # fake sleep never blocks, and the chain in index order with no helper
    workers = 2 if execute is _run_dag else 1
    for specs in (
        [(set(), {b"a"}), (set(), {b"b"})],
        [(set(), {b"a"}), ({b"a"}, set())],
    ):
        block = structural_block(specs)
        completed = []
        sleeps = []

        def failing(txn, store):
            completed.append(txn.index)
            return False

        def sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) == 2:
                raise RuntimeError("sleep interrupted")

        fake = types.SimpleNamespace(sleep=sleep)
        monkeypatch.setattr(scheduler, "time", fake)
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute(block, StateStore(), workers, processor=failing, sim_work_us=10)
        report = excinfo.value.report
        assert report.schedule == completed
        assert report.txn_successes + report.txn_failures == len(report.schedule)
        assert report.txn_successes >= 0 and report.txn_failures >= 0


@pytest.mark.parametrize("sim", [0, 30])
@pytest.mark.parametrize(
    "execute, make, workers",
    [
        (_run_serial, _wallet_block, 1),
        (_run_dag, _voting_block, 2),
        (_run_dag, _wallet_block, 1),
        (_run_dag, _wallet_block, 2),
        (_run_dag, _wallet_block, 4),
        (_run_tree, _wallet_block, 2),
    ],
    ids=["serial", "chain", "wide-1", "wide-2", "wide-4", "tree-2"],
)
def test_simulated_work_sleeps_once_before_each_processor_call(
    execute, make, workers, sim, monkeypatch
):
    block = make(60)
    events = []  # (thread, event), appended as they happen
    real_sleep = time.sleep

    def sleep(seconds):
        events.append((threading.get_ident(), ("sleep", seconds)))
        real_sleep(seconds)

    def recording(txn, store):
        events.append((threading.get_ident(), ("call", txn.index)))
        return apply_transaction(txn, store)

    fake = types.SimpleNamespace(sleep=sleep)
    monkeypatch.setattr(scheduler, "time", fake)
    report = execute(block, StateStore(), workers, processor=recording, sim_work_us=sim)
    assert_exactly_once(report.schedule, block.txn_count)
    by_thread = collections.defaultdict(list)
    for thread, event in events:
        by_thread[thread].append(event)
    slept = ("sleep", sim / 1e6)
    calls = 0
    for thread_events in by_thread.values():
        ran = [event for event in thread_events if event[0] == "call"]
        # on its thread, each call directly follows exactly one sleep, and
        # at sim 0 nothing sleeps
        assert thread_events == ([e for call in ran for e in (slept, call)] if sim else ran)
        calls += len(ran)
    # so there are as many sleeps as transactions
    assert calls == block.txn_count


@EXECUTORS
def test_calling_thread_keeps_a_wide_block_at_sim_zero(execute):
    """A helper cannot overlap anything at sim 0, so starting one must not
    hand it the run: with a long switch interval the calling thread runs at
    least half the transactions."""
    block = generate_block(
        WorkloadSpec(family="wallet", txns_per_block=1000, dependency_pct=20, rng_seed=1)
    )
    ran = collections.Counter()

    def counting(txn, store):
        ran[threading.get_ident()] += 1
        return apply_transaction(txn, store)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        report = execute(block, StateStore(), 2, processor=counting)
    finally:
        sys.setswitchinterval(interval)
    assert_exactly_once(report.schedule, block.txn_count)
    assert ran[threading.get_ident()] >= block.txn_count / 2


def test_helper_start_returns_before_the_helper_runs():
    """Starting a helper does not hand it the interpreter: with a long switch
    interval the new thread has not run when ``_start_thread`` returns. A
    start that waits for the thread would let it run while the loop's lock
    is held."""
    ran = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        scheduler._start_thread(ran.set)
        ran_before_return = ran.is_set()
    finally:
        sys.setswitchinterval(interval)
    assert ran.wait(10)
    assert not ran_before_return


@EXECUTORS
@pytest.mark.parametrize("make", ["voting", "wallet", "prefix-chain"])
def test_failed_grants_do_not_exceed_commits(execute, make, monkeypatch):
    failed, calls = _count_failed_grants(monkeypatch)
    block = {
        "voting": lambda: _independent_then_voting(60),
        "wallet": lambda: generate_block(
            WorkloadSpec(family="wallet", txns_per_block=200, dependency_pct=20, rng_seed=4)
        ),
        "prefix-chain": lambda: _prefix_then_chain(8, 40),
    }[make]()
    report = execute(block, StateStore(), 4, sim_work_us=50)
    assert_exactly_once(report.schedule, block.txn_count)
    assert len(calls) > len(failed)
    assert len(failed) <= block.txn_count


@EXECUTORS
@pytest.mark.parametrize("kind", [KeyboardInterrupt, SystemExit])
def test_interrupt_on_the_calling_thread_propagates_unchanged(execute, kind, monkeypatch):
    spy = _LoopSpy(monkeypatch)
    block = _wallet_block(120)
    interrupt = kind()
    caller = []

    def interrupted(txn, store):
        if threading.get_ident() == caller[0] and len(spy.started) == 3:
            raise interrupt
        time.sleep(0.001)
        return apply_transaction(txn, store)

    def run():
        caller.append(threading.get_ident())
        return execute(block, StateStore(), 4, processor=interrupted)

    result = _within(10, run)
    assert result.get("error") is interrupt
    assert len(spy.started) == 3
    assert spy.helpers_stopped()


@EXECUTORS
@pytest.mark.parametrize("fail_start_at", [1, 2, 3])
def test_helper_start_failure_is_typed_with_partial_report(execute, fail_start_at, monkeypatch):
    spy = _LoopSpy(monkeypatch, fail_start_at=fail_start_at)
    block = _wallet_block(60)

    def slow(txn, store):
        time.sleep(0.001)
        return apply_transaction(txn, store)

    result = _within(10, lambda: execute(block, StateStore(), 4, processor=slow))
    error = result["error"]
    assert isinstance(error, ParallelExecutionError)
    assert isinstance(error.__cause__, RuntimeError)
    assert "can't start new thread" in str(error.__cause__)
    schedule = error.report.schedule
    assert len(set(schedule)) == len(schedule) < block.txn_count
    assert len(spy.started) == fail_start_at - 1
    assert spy.helpers_stopped()


@EXECUTORS
def test_run_waits_for_a_helper_that_stops_after_the_join_began(execute, monkeypatch):
    """Each release of the loop's lock by a helper is followed by a pause, so
    the helper counts itself stopped after the calling thread has begun to
    wait for it: the stop's notification must wake the calling thread."""
    spy = _LoopSpy(monkeypatch)
    caller = []

    class PausingLock:
        def __init__(self):
            self._lock = threading.Lock()

        def acquire(self, blocking=True, timeout=-1):
            return self._lock.acquire(blocking, timeout)

        def release(self):
            self._lock.release()
            if threading.get_ident() != caller[0]:
                time.sleep(0.005)

        def __enter__(self):
            return self.acquire()

        def __exit__(self, *exc_info):
            self.release()

    monkeypatch.setattr(scheduler.threading, "Lock", PausingLock)
    block = generate_block(
        WorkloadSpec(family="wallet", txns_per_block=40, dependency_pct=0, rng_seed=3)
    )
    serial_store, store = StateStore(), StateStore()
    execute_block_serial(block, serial_store)

    def run():
        caller.append(threading.get_ident())
        return execute(block, store, 2, sim_work_us=500)

    result = _within(10, run)
    assert_exactly_once(result["value"].schedule, block.txn_count)
    assert state_digest(store) == state_digest(serial_store)
    assert len(spy.started) == 1
    assert spy.helpers_stopped()


@EXECUTORS
def test_many_workers_with_short_switch_interval_keep_every_guarantee(execute):
    rng = random.Random(151)
    blocks = [random_family_block(rng, n=150) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for block in blocks:
            serial_store, store = StateStore(), StateStore()
            execute_block_serial(block, serial_store)
            result = _within(60, lambda: execute(block, store, 8))
            report = result["value"]
            assert state_digest(store) == state_digest(serial_store)
            assert_exactly_once(report.schedule, block.txn_count)
            assert_topological(report.schedule, build_dag(block).edges())
    finally:
        sys.setswitchinterval(interval)
