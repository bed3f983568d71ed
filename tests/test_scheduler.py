import hashlib
import heapq
import random
import sys
import threading
import time
import types

import pytest

from blockdag import scheduler
from blockdag import tree as tree_module
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
from blockdag.tree import build_predecessor_tree, execute_block_tree
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


def test_grant_takes_lowest_ready_first():
    block = structural_block(
        [(set(), {b"A"}), ({b"A"}, set()), (set(), {b"B"}), (set(), {b"C"})]
    )
    queue = ReadyQueue(build_dag(block))
    assert queue.grant() == 0
    # 1 waits for 0, so the next grant skips to 2
    assert queue.grant() == 2
    queue.commit(0)
    # 1 is released after 3 became ready, and still goes first
    assert [queue.grant() for _ in range(3)] == [1, 3, None]


class _IndegreeQueue:
    """Reference model of the ready queue: successor lists from the edge
    walk, one indegree count per transaction, a heap of ready indices."""

    def __init__(self, dag):
        self.successors = [[] for _ in range(dag.txn_count)]
        for i, j in dag.edges():
            self.successors[i].append(j)
        self.indegree = dag.indegree_snapshot()
        self.ready = [i for i, d in enumerate(self.indegree) if d == 0]

    def grant(self):
        return heapq.heappop(self.ready) if self.ready else None

    def commit(self, index):
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
        preds = address_pass(block).preds
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
            queue, model = ReadyQueue(dag), _IndegreeQueue(dag)
            running: list[int] = []
            committed = 0
            while committed < dag.txn_count:
                if running and rng.random() < 0.5:
                    index = running.pop(rng.randrange(len(running)))
                    queue.commit(index)
                    model.commit(index)
                    committed += 1
                else:
                    granted = queue.grant()
                    assert granted == model.grant()
                    assert queue.more() == bool(model.ready)
                    if granted is None:
                        assert running, "nothing ready and nothing running"
                    else:
                        running.append(granted)
                steps += 1
            assert queue.grant() is None and model.grant() is None
    assert steps > 5000


def _waves(queue):
    """Grant until nothing is ready, commit that wave, repeat."""
    waves = []
    while True:
        wave = []
        while (index := queue.grant()) is not None:
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
            assert _waves(ReadyQueue(dag)) == expected


def test_grant_returns_none_until_commit():
    block = structural_block([(set(), {b"A"}), ({b"A"}, set())])
    queue = ReadyQueue(build_dag(block))
    assert queue.grant() == 0
    # granted but uncommitted predecessor: successor stays unavailable
    assert queue.grant() is None
    queue.commit(0)
    assert queue.grant() == 1


def test_grant_returns_none_after_every_commit():
    block = structural_block([(set(), {b"A"}), (set(), {b"B"})])
    queue = ReadyQueue(build_dag(block))
    for _ in range(2):
        queue.commit(queue.grant())
    assert queue.grant() is None


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
    before = (dag.indegree_snapshot(), dag.predecessor_lists())
    queue = ReadyQueue(dag)
    assert queue.grant() == 0
    queue.commit(0)
    # 4 had no other predecessor and is queued behind the initial ready set;
    # 5 still waits for 2, and 3 for 1
    assert [queue.grant() for _ in range(4)] == [1, 2, 4, None]
    queue.commit(2)
    assert [queue.grant() for _ in range(2)] == [5, None]
    queue.commit(1)
    assert [queue.grant() for _ in range(2)] == [3, None]
    for index in (3, 4, 5):
        queue.commit(index)
    assert queue.grant() is None
    assert (dag.indegree_snapshot(), dag.predecessor_lists()) == before


def test_commit_without_successors_touches_nothing_else():
    block = structural_block([(set(), {b"A"}), (set(), {b"B"}), ({b"A"}, set())])
    queue = ReadyQueue(build_dag(block))
    assert [queue.grant() for _ in range(3)] == [0, 1, None]
    # nothing waits on 1, so its commit releases nothing
    queue.commit(1)
    assert queue.grant() is None
    queue.commit(0)
    assert [queue.grant() for _ in range(2)] == [2, None]


def test_chain_schedules_in_order_for_any_worker_count():
    block = _chain_block(12)
    for workers in (1, 2, 4, 8):
        dag = build_dag(block, workers=2)
        store = StateStore()
        report = execute_block_parallel(
            block, dag, store, workers, processor=lambda t, s: True
        )
        assert report.schedule == list(range(12))


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
    """Replaces the scheduler's threading module: records every helper the
    loop starts and every thread that waits on its condition, and can make
    the ``fail_start_at``-th start raise as a thread limit would."""

    def __init__(self, monkeypatch, fail_start_at=None):
        self.attempts: list[threading.Thread] = []
        self.started: list[threading.Thread] = []
        self.waited: set[threading.Thread] = set()
        spy = self

        class Thread(threading.Thread):
            def start(self):
                spy.attempts.append(self)
                if len(spy.attempts) == fail_start_at:
                    raise RuntimeError("can't start new thread")
                super().start()
                spy.started.append(self)

        class Condition(threading.Condition):
            def wait(self, timeout=None):
                spy.waited.add(threading.current_thread())
                return super().wait(timeout)

        fake = types.ModuleType("threading")
        fake.__dict__.update(vars(threading))
        fake.Thread, fake.Condition = Thread, Condition
        monkeypatch.setattr(scheduler, "threading", fake)

    def helpers_stopped(self):
        return not any(t.is_alive() for t in self.started)


def _count_failed_grants(monkeypatch):
    """Wrap both executors' grant steps; returns the list of failed grants."""
    failed = []
    ready_grant, tree_grant = ReadyQueue.grant, tree_module.tree_next_txn

    def counted(grant):
        def wrapper(*args):
            index = grant(*args)
            if index is None:
                failed.append(index)
            return index

        return wrapper

    monkeypatch.setattr(ReadyQueue, "grant", counted(ready_grant))
    monkeypatch.setattr(tree_module, "tree_next_txn", counted(tree_grant))
    return failed


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
    assert spy.waited & set(spy.started), "no helper waited"
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
    assert spy.waited & set(spy.started), "no helper waited"


def test_dag_executor_runs_a_chain_alone_without_failed_grants(monkeypatch):
    spy = _LoopSpy(monkeypatch)
    failed = _count_failed_grants(monkeypatch)
    block = _voting_block(40)
    serial_store, store = StateStore(), StateStore()
    execute_block_serial(block, serial_store)
    report = _run_dag(block, store, 4, sim_work_us=50)
    assert report.schedule == list(range(block.txn_count))
    assert state_digest(store) == state_digest(serial_store)
    assert failed == []
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


@EXECUTORS
@pytest.mark.parametrize("make", ["voting", "wallet", "prefix-chain"])
def test_failed_grants_do_not_exceed_commits(execute, make, monkeypatch):
    failed = _count_failed_grants(monkeypatch)
    block = {
        "voting": lambda: _voting_block(60),
        "wallet": lambda: generate_block(
            WorkloadSpec(family="wallet", txns_per_block=200, dependency_pct=20, rng_seed=4)
        ),
        "prefix-chain": lambda: _prefix_then_chain(8, 40),
    }[make]()
    report = execute(block, StateStore(), 4, sim_work_us=50)
    assert_exactly_once(report.schedule, block.txn_count)
    assert len(failed) <= block.txn_count


@EXECUTORS
@pytest.mark.parametrize("kind", [KeyboardInterrupt, SystemExit])
def test_interrupt_on_the_calling_thread_propagates_unchanged(execute, kind, monkeypatch):
    spy = _LoopSpy(monkeypatch)
    block = _wallet_block(120)
    interrupt = kind()
    caller = []

    def interrupted(txn, store):
        if threading.current_thread() is caller[0] and len(spy.started) == 3:
            raise interrupt
        time.sleep(0.001)
        return apply_transaction(txn, store)

    def run():
        caller.append(threading.current_thread())
        return execute(block, StateStore(), 4, processor=interrupted)

    result = _within(10, run)
    assert result.get("error") is interrupt
    assert len(spy.started) == 3
    assert spy.helpers_stopped()


@EXECUTORS
@pytest.mark.parametrize("fail_start_at", [1, 2])
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
