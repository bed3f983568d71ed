"""Block execution: one blocking worker loop plus the serial baseline.

``run_scheduled`` runs a block on the calling thread, which is worker 0, and
on at most ``workers - 1`` helper threads that it starts only when there is
work for them. All workers share one lock and condition variable. Under it
a worker asks a *grant* step for a runnable transaction; after running the
processor it re-takes the lock, appends the transaction to the schedule and
calls a *commit* step that releases what waited on it. Appending before the
lock is released is what makes the recorded schedule a topological order:
nothing that depends on a transaction can be granted until that transaction
is already in the schedule.

Workers wake and start only for work that is there. After a successful
grant, the grant step may say whether another grant would succeed now;
only then, or when it cannot tell, is a waiting worker woken or, with none
waiting, a helper started (outside the lock). A failed grant stays failed
until the next commit, so after one no worker grants again before a
commit; it waits on the condition instead, never on a timer, until woken
for work, by the end of the run, or by a crash. A chain therefore runs on
the calling thread alone, with no failed grant and no helper.

The DAG executor's grant pops a heap of ready transactions and its commit
re-checks only the transactions that waited on the committed one, each
against its own predecessor tuple (``ReadyQueue``); the heap says in O(1)
whether work is left. The predecessor-tree baseline (``blockdag.tree``)
plugs its per-address grant check into the same loop and cannot tell.
"""

from __future__ import annotations

import bisect
import heapq
import threading
import time

from . import families
from .dag import DependencyDAG
from .model import Block, ExecutionReport, StateStore


class ParallelExecutionError(RuntimeError):
    """A worker died mid-run; carries whatever was committed before the abort."""

    def __init__(self, message: str, report: ExecutionReport) -> None:
        super().__init__(message)
        self.report = report


def _report(schedule: list[int], failures: int, wall: float) -> ExecutionReport:
    return ExecutionReport(
        schedule=schedule,
        wall_time=wall,
        txn_successes=len(schedule) - failures,
        txn_failures=failures,
    )


def run_scheduled(
    block: Block,
    store: StateStore,
    workers: int,
    grant,
    commit,
    processor=None,
    sim_work_us: int = 0,
    more=None,
) -> ExecutionReport:
    """Execute every transaction of the block once on up to ``workers`` threads.

    ``grant()`` returns the index of a transaction that may run now, marking
    it taken, or None when there is none; ``commit(i)`` records that i has
    finished; ``more()``, when given, says after a successful grant whether
    another grant would succeed now, and without it the loop assumes one
    might. All three are only ever called under the loop's one lock. Raises
    ParallelExecutionError, carrying the partial report, when a processor,
    a step or a helper's start raises. A ``KeyboardInterrupt`` or
    ``SystemExit`` on the calling thread propagates unchanged once the
    helpers have stopped.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if sim_work_us < 0:
        raise ValueError("sim_work_us must be >= 0")
    processor = processor or families.apply_transaction
    sim_work_s = sim_work_us / 1e6
    txns = block.transactions
    n = len(txns)
    lock = threading.Lock()
    cond = threading.Condition(lock)
    schedule: list[int] = []
    failures = 0
    errors: list[BaseException] = []
    helpers: list[threading.Thread] = []
    spawned = 0  # helpers reserved under the lock; at most workers - 1
    waiting = 0
    stale = False  # a grant failed and nothing has committed since

    def work() -> None:
        nonlocal failures, spawned, waiting, stale
        index = None
        ok = True
        while True:
            spawn = 0
            with lock:
                if index is not None:
                    schedule.append(index)
                    if not ok:
                        failures += 1
                    commit(index)
                    stale = False
                while True:
                    if errors or len(schedule) == n:
                        cond.notify_all()
                        return
                    if not stale:
                        index = grant()
                        if index is not None:
                            break
                        stale = True
                    waiting += 1
                    cond.wait()
                    waiting -= 1
                # Hand on only work that is there: a woken waiter that also
                # finds more passes the wake-up on in turn.
                if more is None or more():
                    if waiting:
                        cond.notify()
                    elif spawned < workers - 1:
                        spawned += 1
                        spawn = spawned
            if spawn:
                # Started outside the lock, and listed only once started:
                # every listed helper was started by the calling thread or
                # by a helper listed before it, so joining in list order
                # joins them all.
                thread = threading.Thread(target=helper, name=f"exec-{spawn}")
                thread.start()
                helpers.append(thread)
            ok = processor(txns[index], store)
            if sim_work_s:
                time.sleep(sim_work_s)

    def fail(exc: BaseException) -> None:
        with lock:
            errors.append(exc)
            cond.notify_all()

    def helper() -> None:
        try:
            work()
        except BaseException as exc:  # noqa: BLE001 - surfaced as run failure
            fail(exc)

    def join_helpers() -> None:
        for thread in helpers:
            thread.join()

    started = time.perf_counter()
    try:
        work()
        join_helpers()
    except BaseException as exc:
        fail(exc)
        join_helpers()
        if not isinstance(exc, Exception):
            raise
    wall = time.perf_counter() - started
    report = _report(schedule, failures, wall)
    if errors:
        raise ParallelExecutionError(
            f"worker failed after {len(schedule)} of {n} commits: {errors[0]!r}",
            report,
        ) from errors[0]
    return report


class ReadyQueue:
    """Per-run DAG scheduling state: the grant and commit steps of the loop.

    It reads the DAG's kept predecessor tuples and keeps no successor lists
    or indegree copy, so the run never changes the DAG and one DAG can be
    executed any number of times. A transaction waits on one uncommitted
    predecessor at a time, its highest first. When that one commits, the
    rest are checked downwards from it, but only down to ``low``: every
    index below ``low`` has committed, and bisect skips them. ``upper[j]``
    is the position in j's tuple of the predecessor j waits on, and only
    falls, so no predecessor is checked twice for the same transaction. A
    chain therefore costs one bisect per commit, and nothing more than one
    check per edge is ever spent.

    A transaction enters the heap at the commit of its last predecessor,
    and the lowest ready index is granted first, as the tree baseline does:
    in arrival order, a transaction on a long dependency chain would wait
    behind every independent one that became ready before it.
    """

    def __init__(self, dag: DependencyDAG) -> None:
        self.preds = preds = dag.predecessor_lists()
        self.done = bytearray(dag.txn_count)
        self.low = 0
        self.upper = [len(p) - 1 for p in preds]
        # index -> the transactions waiting for it to commit
        self.waiters: dict[int, list[int]] = {}
        ready = []
        for j, p in enumerate(preds):
            if p:
                self.waiters.setdefault(p[-1], []).append(j)
            else:
                ready.append(j)
        self.ready = ready  # ascending, so already a heap

    def grant(self) -> int | None:
        """The lowest-index ready transaction, or None when none is ready."""
        return heapq.heappop(self.ready) if self.ready else None

    def more(self) -> bool:
        """Whether a grant would succeed now."""
        return bool(self.ready)

    def commit(self, index: int) -> None:
        """Mark a transaction finished and release what it was last to block."""
        done = self.done
        done[index] = 1
        if index == self.low:
            low = index + 1
            while low < len(done) and done[low]:
                low += 1
            self.low = low
        waiting = self.waiters.pop(index, None)
        if not waiting:
            return
        preds, upper, waiters, low = self.preds, self.upper, self.waiters, self.low
        for j in waiting:
            p = preds[j]
            k = upper[j]
            floor = bisect.bisect_left(p, low, 0, k)
            k -= 1
            while k >= floor and done[p[k]]:
                k -= 1
            if k < floor:
                heapq.heappush(self.ready, j)
            else:
                upper[j] = k
                waiters.setdefault(p[k], []).append(j)


def execute_block_parallel(
    block: Block,
    dag: DependencyDAG,
    store: StateStore,
    workers: int,
    processor=None,
    sim_work_us: int = 0,
) -> ExecutionReport:
    """Execute every transaction exactly once, conflict-free, in parallel.

    The DAG is only read, so it can be executed again.
    """
    if dag.txn_count != block.txn_count:
        raise ValueError("DAG does not match block")
    queue = ReadyQueue(dag)
    return run_scheduled(
        block, store, workers, queue.grant, queue.commit, processor, sim_work_us, queue.more
    )


def execute_block_serial(
    block: Block,
    store: StateStore,
    processor=None,
    sim_work_us: int = 0,
) -> ExecutionReport:
    """Execute transactions in index order; the reference history."""
    if sim_work_us < 0:
        raise ValueError("sim_work_us must be >= 0")
    processor = processor or families.apply_transaction
    sim_work_s = sim_work_us / 1e6
    schedule: list[int] = []
    failures = 0
    started = time.perf_counter()
    for txn in block.transactions:
        if not processor(txn, store):
            failures += 1
        if sim_work_s:
            time.sleep(sim_work_s)
        schedule.append(txn.index)
    wall = time.perf_counter() - started
    return _report(schedule, failures, wall)
