"""Block execution: one blocking worker loop plus the serial baseline.

``run_scheduled`` runs a block on a pool of threads that share one
condition variable. Under it a worker asks a *grant* step for a runnable
transaction and waits on the condition while there is none; after running
the processor it re-takes the condition, appends the result to the commit
log and calls a *commit* step that releases what waited on the transaction.
Appending before the lock is released is what makes the recorded schedule a
topological order: nothing that depends on a transaction can be granted
until that transaction is already in the log. A waiting worker is woken,
never by a timer, when another worker's grant succeeds (there may be more
work), when the last transaction commits, or when a worker crashes.

The DAG executor's grant pops a heap of ready transactions and its commit
re-checks only the transactions that waited on the committed one, each
against its own predecessor tuple (``ReadyQueue``); the predecessor-tree
baseline (``blockdag.tree``) plugs its per-address grant check into the
same loop.
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


def _report_from_log(log: list, wall: float) -> ExecutionReport:
    return ExecutionReport(
        schedule=[i for i, _ in log],
        wall_time=wall,
        txn_successes=sum(1 for _, ok in log if ok),
        txn_failures=sum(1 for _, ok in log if not ok),
    )


def run_scheduled(
    block: Block,
    store: StateStore,
    workers: int,
    grant,
    commit,
    processor=None,
    sim_work_us: int = 0,
) -> ExecutionReport:
    """Execute every transaction of the block once on ``workers`` threads.

    ``grant()`` returns the index of a transaction that may run now, marking
    it taken, or None when there is none; ``commit(i)`` records that i has
    finished. Both are only ever called under the loop's one lock. Raises
    ParallelExecutionError, carrying the partial report, when a processor or
    either step raises.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if sim_work_us < 0:
        raise ValueError("sim_work_us must be >= 0")
    processor = processor or families.apply_transaction
    sim_work_s = sim_work_us / 1e6
    txns = block.transactions
    n = len(txns)
    cond = threading.Condition(threading.Lock())
    log: list[tuple[int, bool]] = []
    errors: list[BaseException] = []
    waiting = 0

    def worker() -> None:
        nonlocal waiting
        index = None
        ok = False
        try:
            while True:
                with cond:
                    if index is not None:
                        log.append((index, ok))
                        commit(index)
                    while True:
                        if errors or len(log) == n:
                            cond.notify_all()
                            return
                        index = grant()
                        if index is not None:
                            break
                        waiting += 1
                        cond.wait()
                        waiting -= 1
                    # A failed grant would fail for a woken worker too, so
                    # only a successful one wakes the next waiter; that one
                    # passes the wake-up on if it finds work as well.
                    if waiting:
                        cond.notify()
                ok = processor(txns[index], store)
                if sim_work_s:
                    time.sleep(sim_work_s)
        except BaseException as exc:  # noqa: BLE001 - surfaced as run failure
            with cond:
                errors.append(exc)
                cond.notify_all()

    started = time.perf_counter()
    threads = [threading.Thread(target=worker, name=f"exec-{w}") for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    report = _report_from_log(log, wall)
    if errors:
        raise ParallelExecutionError(
            f"worker failed after {len(log)} of {n} commits: {errors[0]!r}",
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
        block, store, workers, queue.grant, queue.commit, processor, sim_work_us
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
    log: list[tuple[int, bool]] = []
    started = time.perf_counter()
    for txn in block.transactions:
        ok = processor(txn, store)
        if sim_work_s:
            time.sleep(sim_work_s)
        log.append((txn.index, ok))
    wall = time.perf_counter() - started
    return _report_from_log(log, wall)
