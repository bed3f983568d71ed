"""Block execution: one blocking worker loop plus the serial baseline.

``run_scheduled`` runs a block on the calling thread, which is worker 0, and
on at most ``workers - 1`` helper threads. It takes a *run* object: the
predecessor-tree baseline hands it a ``blockdag.tree.TreeRun``, and the DAG
executor a way to build a ``ReadyQueue`` once a helper has arrived (the
in-order head, below). All workers share one lock and condition
variable. Each time a worker takes the lock it commits the batch it ran
last and asks the run's ``grant(batch)`` for the next batch. Committing
appends each transaction to the schedule and calls the run's ``commit(i)``,
which releases what waited on it.
Appending before the lock is released is what makes the recorded schedule a
topological order: nothing that depends on a transaction can be granted
until that transaction is already in the schedule. A batch holds only
transactions that were ready together, and ready transactions never
conflict, so it may run in any order. A crash mid-batch commits exactly the
prefix of the batch that ran before the run fails.

Every executor checks its options once, in ``_checked_processor``, which
returns the processor each transaction runs. With ``sim_work_us > 0`` that
processor sleeps ``sim_work_us / 1e6`` seconds, the transaction's simulated
work, and then calls the real one, so the sleep runs once per transaction
on every path, before the processor, and a sleep that raises is a processor
that raises. The loops only run transactions, and they time nothing: an
executor returns the commit order and the failure count, and a caller that
wants a run's wall time takes it around the executor call, which then
includes the executor's checks and the queue or tree run it builds.

Past the head's one helper (below), workers wake and start only for work
that is there. A successful grant says whether another grant would succeed
now; only then, or when it cannot tell, is a waiting worker woken or, with
none waiting, a helper started. A failed grant stays failed until the next
commit, so after one no worker grants again before a commit; it waits on
the condition instead, never on a timer, until woken for work, by the end
of the run, or by a crash. A chain that follows other work therefore runs
one transaction at a time and wakes no one.

A DAG run on two or more workers, of a block that is not one chain, starts
with an in-order head, after Cilk-5's work-first principle (Frigo,
Leiserson & Randall, PLDI 1998): scheduling costs fall where a second
worker takes work, not on the work itself. The calling thread starts one
helper and then runs the block in index order, with no queue, no lock and
no commit step, checking once per transaction whether the helper has
arrived. Index order is always a valid schedule, since each predecessor is
below its transaction. A helper that first gets the interpreter takes the
lock, finds nothing to grant (the loop's ``stale`` flag starts set) and
waits on the condition, counted in ``waiting``: that count is the arrival
flag. The calling thread finishes its current transaction, then, under the
lock, hands over: it builds ``ReadyQueue(dag, workers, start)``, every
index below ``start`` already committed, clears ``stale``, and the loop
runs from there. The head reads ``waiting`` without the lock. That is safe:
a stale read costs one more transaction in index order, and a helper that
has arrived does nothing but wait until the handover. A helper that first
runs after the last transaction finds the run over and stops, so no queue
is built. At sim 0 a helper gets the interpreter only when the calling
thread blocks, which it does only to wait for the helper at the end: the
run costs serial plus one helper start and join. With simulated work the
helper arrives during the first sleep, and the loop overlaps the rest of
the sleeps. A processor ``Exception`` in the head raises
ParallelExecutionError with the prefix that ran; interrupts propagate
unchanged.

A one-worker run and a DAG that is one chain (every transaction j >= 1 has
j - 1 as the last entry of its ascending predecessor tuple, which
``execute_block_parallel`` checks in one walk that stops at the first
transaction that fails it) have only index order to run. They skip the
loop altogether: ``_run_in_order``, the serial baseline's loop, runs them
with no lock, condition or helper, whose set-up alone would cost a short
chain about a tenth of its run. A processor ``Exception`` there raises
ParallelExecutionError with the prefix that ran, as in the head. The tree
baseline runs the loop from its first transaction at every worker count:
its per-address bookkeeping is its cost on purpose.

A helper is started, then counted, under the loop's lock, so a start that
raises counts nothing. A helper counts itself stopped under the same lock
once its loop has returned or failed, and notifies the condition; the run
returns only when every counted helper has counted itself stopped. The
start does not hand the new thread the interpreter.
``threading.Thread.start`` blocks the calling thread until the new thread
runs, which then keeps the interpreter lock, so at sim 0 a helper that
cannot overlap anything would run almost the whole block while the calling
thread waits. ``_start_thread`` uses ``_thread.start_new_thread`` instead:
a helper first runs when the calling thread blocks (a sleep in the
processor, a wait on the condition) or the switch interval passes. Helpers
are therefore threads that ``threading`` does not track. A processor that
calls ``threading.current_thread()`` on a helper leaves a ``_DummyThread``
entry in ``threading.enumerate()`` after the helper exits; entries are
keyed by thread id, so a later helper reuses one rather than piling up
more.

The DAG executor's grant (``ReadyQueue.grant``) follows guided
self-scheduling: ceil(ready / workers) of the lowest ready transactions, so
a wide block still spreads over every worker and each batch shrinks as the
ready set does. The batch ends early at the first transaction that another
one waits on, so a chain inside a wider DAG goes one transaction at a time
and a transaction that others wait on runs last in its batch; a whole-block
chain, a one-worker run and a head that reaches the end never build the
queue. Its commit re-checks only the transactions that waited on the
committed one, each against its own predecessor tuple in the DAG's
``preds``, read in place; the heap says in O(1) whether work is left. The predecessor-tree baseline's grant
(``blockdag.tree.TreeRun.grant``) is its per-address check, grants batches
of one and cannot tell.
"""

from __future__ import annotations

import _thread
import heapq
import threading
import time
from functools import partial
from itertools import islice
from operator import length_hint

from . import families
from .dag import DependencyDAG
from .model import Block, ExecutionReport, StateStore


class ParallelExecutionError(RuntimeError):
    """A worker died mid-run; carries whatever was committed before the abort.

    The message counts the commits in ``report`` and names ``cause``."""

    def __init__(self, report: ExecutionReport, txn_count: int, cause: BaseException) -> None:
        super().__init__(
            f"worker failed after {len(report.schedule)} of {txn_count} commits: {cause!r}"
        )
        self.report = report


def _start_thread(target) -> None:
    """Start ``target()`` on a new thread without waiting for it to run."""
    _thread.start_new_thread(target, ())


def _checked_processor(processor, sim_work_us: int, workers: int = 1):
    """Check an executor's options and return the processor each
    transaction runs: ``processor``, by default
    ``families.apply_transaction``, after a sleep of ``sim_work_us / 1e6``
    seconds when ``sim_work_us > 0``. Raises ``ValueError`` when ``workers``
    or ``sim_work_us`` is out of range, in that order."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if sim_work_us < 0:
        raise ValueError("sim_work_us must be >= 0")
    processor = processor or families.apply_transaction
    if not sim_work_us:
        return processor
    sleep, seconds = time.sleep, sim_work_us / 1e6

    def simulated(txn, store):
        sleep(seconds)
        return processor(txn, store)

    return simulated


def run_scheduled(
    block: Block, store: StateStore, workers: int, run, processor
) -> ExecutionReport:
    """Execute every transaction of the block once on up to ``workers`` threads.

    The executors check the options first: ``processor`` is what
    ``_checked_processor`` returned, simulated work included. ``run`` is
    the per-run scheduling state, a ``TreeRun``, which the loop uses from
    the first transaction; or a function ``run(start)`` that builds it
    once the transactions below ``start`` have committed, as the DAG
    executor passes for a ``ReadyQueue``. With a function, the calling
    thread first runs the in-order head (see the module docstring) and
    calls it at the handover, if the head stops before the block ends.
    ``run.grant(batch)`` appends to the empty list ``batch`` the indices of
    transactions that may run now, in any order, marking them taken, or
    leaves it empty when there is none; after a successful grant it returns
    whether another grant would succeed now, or True when it cannot tell.
    ``run.commit(i)`` records that i has finished. Both are only ever
    called under the loop's one lock. Raises ParallelExecutionError,
    carrying the partial report, when a processor, a step or a helper's
    start raises; a crash mid-batch commits the transactions of the batch
    that ran before it, and a crash in the head the transactions below it.
    A ``KeyboardInterrupt`` or ``SystemExit`` on the calling thread
    propagates unchanged once the helpers have stopped.
    """
    if callable(run):
        make_run, grant, commit = run, None, None
    else:
        make_run, grant, commit = None, run.grant, run.commit
    txns = block.transactions
    n = len(txns)
    lock = threading.Lock()
    cond = threading.Condition(lock)
    schedule: list[int] = []
    failures = 0
    errors: list[BaseException] = []
    spawned = 0  # helpers started; at most workers - 1
    stopped = 0  # helpers whose loop has returned or failed
    waiting = 0  # workers waiting on the condition; in the head, the arrival flag
    # a grant failed and nothing has committed since; in the head there is
    # no run to grant from until the handover
    stale = make_run is not None

    def commit_batch(batch: list[int], bad: int) -> None:
        """Under the lock: schedule and commit what ran, count its failures."""
        nonlocal failures
        for index in batch:
            schedule.append(index)
            commit(index)
        failures += bad

    def work() -> None:
        nonlocal spawned, waiting, stale
        batch: list[int] = []  # granted, then run, then committed; reused
        bad = 0  # processor failures in the batch
        while True:
            with lock:
                if batch:
                    commit_batch(batch, bad)
                    batch.clear()
                    stale = False
                while True:
                    if errors or len(schedule) == n:
                        cond.notify_all()
                        return
                    if not stale:
                        more = grant(batch)
                        if batch:
                            break
                        stale = True
                    waiting += 1
                    cond.wait()
                    waiting -= 1
                # Hand on only work that is there: a woken waiter that also
                # finds more passes the wake-up on in turn.
                if more:
                    if waiting:
                        cond.notify()
                    elif spawned < workers - 1:
                        _start_thread(helper)
                        spawned += 1
            bad = 0
            it = iter(batch)
            try:
                for index in it:
                    if not processor(txns[index], store):
                        bad += 1
            except BaseException:
                # Commit what ran before the transaction that raised: the
                # iterator still holds the ones after it.
                del batch[len(batch) - length_hint(it) - 1:]
                with lock:
                    commit_batch(batch, bad)
                raise

    def fail(exc: BaseException) -> None:
        with lock:
            errors.append(exc)
            cond.notify_all()

    def helper() -> None:
        nonlocal stopped
        try:
            work()
        except BaseException as exc:  # noqa: BLE001 - surfaced as run failure
            fail(exc)
        with lock:
            stopped += 1
            cond.notify_all()

    def join_helpers() -> None:
        with lock:
            while stopped < spawned:
                cond.wait()

    try:
        if make_run:
            bad = 0
            try:
                if workers > 1:
                    with lock:
                        _start_thread(helper)
                        spawned += 1
                for txn in txns:
                    # No lock: a stale read of the flag costs one more
                    # transaction in index order, and until the handover a
                    # helper only waits, reading the schedule only for its
                    # length, to see whether the run is over.
                    if waiting:
                        break
                    if not processor(txn, store):
                        bad += 1
                    schedule.append(txn.index)
            finally:
                failures += bad
            start = len(schedule)
            if start < n:
                with lock:
                    run = make_run(start)
                    grant, commit = run.grant, run.commit
                    stale = False
        work()
        join_helpers()
    except BaseException as exc:
        fail(exc)
        join_helpers()
        if not isinstance(exc, Exception):
            raise
    report = ExecutionReport(schedule=schedule, txn_failures=failures)
    if errors:
        raise ParallelExecutionError(report, n, errors[0]) from errors[0]
    return report


class ReadyQueue:
    """Per-run DAG scheduling state: the grant and commit steps of the loop.

    It reads the DAG's ``preds`` in place and keeps no successor lists,
    indegree copy or copy of the tuples, so the run never changes the DAG
    and one DAG can be executed any number of times. A transaction waits on
    one uncommitted predecessor at a time, its highest first. When that one
    commits, the rest are checked downwards from it, and the walk stops at
    ``low``: every index below ``low`` has committed. ``upper[j]`` is the
    position in j's tuple of the predecessor j waits on, and only falls, so
    no predecessor is checked twice for the same transaction, and nothing
    more than one check per edge is ever spent.

    The queue starts where the in-order head stopped: every index below
    ``start`` has committed, so ``low`` starts there and no predecessor
    below it is ever checked. A transaction from ``start`` on is ready
    when all its predecessors are below ``start``, and otherwise waits on
    its highest one. ``execute_block_parallel`` builds the queue only at
    the handover, once a helper has arrived; a one-worker run, a block
    whose whole DAG is one chain, and a head that runs to the end never
    build it.

    A transaction enters the heap at the commit of its last predecessor,
    and the lowest ready indices are granted first, as the tree baseline
    does: in arrival order, a transaction on a long dependency chain would
    wait behind every independent one that became ready before it.
    ``workers`` is the number of workers that share the queue; a grant
    hands each of them about an equal share of what is ready.
    """

    def __init__(self, dag: DependencyDAG, workers: int, start: int = 0) -> None:
        self.workers = workers
        self.preds = preds = dag.preds
        n = dag.txn_count
        self.done = done = bytearray(n)
        done[:start] = b"\x01" * start
        self.low = start
        self.upper = [len(p) - 1 for p in preds]
        # index -> the transactions waiting for it to commit
        self.waiters: dict[int, list[int]] = {}
        ready = []
        for j, p in enumerate(islice(preds, start, None), start):
            if p and p[-1] >= start:
                self.waiters.setdefault(p[-1], []).append(j)
            else:
                ready.append(j)
        self.ready = ready  # ascending, so already a heap

    def grant(self, batch: list[int]) -> bool:
        """Append the next batch to the empty list ``batch`` and return
        whether another grant would succeed now.

        The batch is ceil(ready / workers) of the lowest ready transactions
        and ends early at the first one that another transaction waits on;
        one ready transaction is a batch of one. It stays empty when none
        is ready.
        """
        ready = self.ready
        if not ready:
            return False
        # size <= len(ready), so the heap cannot run dry before size does
        size = (len(ready) - 1) // self.workers + 1
        waiters = self.waiters
        while True:
            index = heapq.heappop(ready)
            batch.append(index)
            size -= 1
            if not size or index in waiters:
                return bool(ready)

    def commit(self, index: int) -> None:
        """Mark a transaction finished and release what it was last to block.

        Each transaction that waited on it walks down its own predecessor
        tuple to the next one not yet done, and waits on that; a walk that
        reaches ``low`` finds none left, and the transaction is ready.
        """
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
            k = upper[j] - 1
            while k >= 0 and p[k] >= low:
                if not done[p[k]]:
                    upper[j] = k
                    waiters.setdefault(p[k], []).append(j)
                    break
                k -= 1
            else:
                heapq.heappush(self.ready, j)


def _is_chain(preds: tuple[tuple[int, ...], ...]) -> bool:
    """Whether every transaction after the first waits on the one just
    before it: ``j - 1`` ends ``preds[j]``. Such a DAG has one valid order."""
    for j in range(1, len(preds)):
        p = preds[j]
        if not p or p[-1] != j - 1:
            return False
    return True


def execute_block_parallel(
    block: Block,
    dag: DependencyDAG,
    store: StateStore,
    workers: int,
    processor=None,
    sim_work_us: int = 0,
) -> ExecutionReport:
    """Execute every transaction exactly once, conflict-free, in parallel.

    With one worker, or a DAG that is a chain (each transaction after the
    first has the one before it as a predecessor), index order is the only
    schedule, so the block runs that way on the calling thread, with no
    queue and no helper. Any other run starts one helper and runs the
    block in index order until the helper arrives; then a ``ReadyQueue``
    built from that index on schedules the rest on up to ``workers``
    threads. A processor ``Exception`` raises ParallelExecutionError
    carrying what committed before it. Each transaction's simulated work
    (``sim_work_us``) sleeps before its processor call. The DAG is only
    read, so it can be executed again.
    """
    if dag.txn_count != block.txn_count:
        raise ValueError("DAG does not match block")
    processor = _checked_processor(processor, sim_work_us, workers)
    if workers == 1 or _is_chain(dag.preds):
        report = ExecutionReport()
        try:
            _run_in_order(block, store, processor, report)
        except Exception as exc:
            raise ParallelExecutionError(report, block.txn_count, exc) from exc
        return report
    return run_scheduled(block, store, workers, partial(ReadyQueue, dag, workers), processor)


def execute_block_serial(
    block: Block,
    store: StateStore,
    processor=None,
    sim_work_us: int = 0,
) -> ExecutionReport:
    """Execute transactions in index order; the reference history. Each
    transaction's simulated work (``sim_work_us``) sleeps before its
    processor call."""
    report = ExecutionReport()
    _run_in_order(block, store, _checked_processor(processor, sim_work_us), report)
    return report


def _run_in_order(block: Block, store: StateStore, processor, report: ExecutionReport) -> None:
    """Run every transaction on the calling thread in index order, filling
    the empty ``report``; if the processor raises, ``report`` holds the
    prefix that ran before it."""
    schedule = report.schedule
    # a local count, written back once: about 30% of wallet transactions
    # fail, and an attribute add per failure is a measurable share at sim 0
    failures = 0
    try:
        for txn in block.transactions:
            if not processor(txn, store):
                failures += 1
            schedule.append(txn.index)
    finally:
        report.txn_failures = failures
