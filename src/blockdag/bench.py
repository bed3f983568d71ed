"""Experiment harness: run the execution strategies over a workload axis.

One plan varies exactly one parameter (number of blocks, transactions per
block, dependency percentage, or — as a local extension — worker count)
while everything else stays fixed, and emits one CSV row per
(axis value, strategy); the ``adj-dag`` and ``ll-dag`` rows share one
measurement. Wall time for data-structure construction is kept
separate from execution wall time, and every block of every run is checked
against the serial-execution digest: divergence aborts the experiment.

Every timing is taken here, around the call: ``ds_build_ms`` around each
build (none for serial, so its rows read 0.000) and ``mean_ms`` around
each executor call, so it includes the executor's own set-up (option
checks, the chain check, the ``ReadyQueue`` or ``TreeRun`` it builds).
TPS here is aggregate: total transactions executed in a row divided by the
row's total execution wall time.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass

from .codec import attach_dag
from .dag import DependencyDAG, address_pass, build_dag, dag_from_shared
from .model import Block, StateStore, state_digest
from .scheduler import execute_block_parallel, execute_block_serial
from .tree import build_predecessor_tree, execute_block_tree
from .validator import Verdict, validate_dag
from .workload import ConflictMetrics, WorkloadSpec, _metrics_from_pass, generate_blocks

STRATEGIES = ("serial", "tree", "adj-dag", "ll-dag", "smart-validate")
AXES = ("num_blocks", "txns_per_block", "dependency_pct", "workers")
CSV_HEADER = "axis,value,strategy,mean_ms,tps,cp1,cp2,cp3,ds_build_ms,verdict"
# Strategy names that build and run the same DAG, so one measurement fills both rows.
_SAME_DAG = ("adj-dag", "ll-dag")


class OracleDivergenceError(RuntimeError):
    """A strategy produced a different final state than serial execution."""


@dataclass(frozen=True)
class ExperimentPlan:
    axis: str
    values: tuple[int, ...]
    family: str = "mixed"
    txns_per_block: int = 200
    num_blocks: int = 5
    dependency_pct: int = 20
    strategies: tuple[str, ...] = STRATEGIES
    repetitions: int = 5
    workers: int = 2
    rng_seed: int = 0
    sim_work_us: int = 0

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}, expected one of {AXES}")
        if not self.values:
            raise ValueError("plan needs at least one axis value")
        if not self.strategies:
            raise ValueError("plan needs at least one strategy")
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.sim_work_us < 0:
            raise ValueError("sim_work_us must be >= 0")
        for value in self.values:
            _, workers = _spec_for_value(self, value)
            if workers < 1:
                raise ValueError("workers must be >= 1")


def _spec_for_value(plan: ExperimentPlan, value: int) -> tuple[WorkloadSpec, int]:
    fields = {
        "family": plan.family,
        "txns_per_block": plan.txns_per_block,
        "num_blocks": plan.num_blocks,
        "dependency_pct": plan.dependency_pct,
        "rng_seed": plan.rng_seed,
    }
    workers = plan.workers
    if plan.axis == "workers":
        workers = value
    else:
        fields[plan.axis] = value
    return WorkloadSpec(**fields), workers


def _check_digest(strategy: str, block_seq: int, digest: bytes, reference: bytes) -> None:
    if digest != reference:
        raise OracleDivergenceError(
            f"strategy {strategy!r} diverged from serial on block {block_seq}"
        )


def _run_rep(strategy, blocks, shared_blocks, references, workers, sim_work_us):
    """One repetition over all blocks: (exec_seconds, build_seconds, verdicts).

    Each phase is timed around its calls: the build (nothing for serial)
    and then the executor call, which includes the executor's own checks
    and the queue or tree run it builds.
    """
    exec_wall = build_wall = 0.0
    verdicts: list[Verdict] = []
    for seq, block in enumerate(blocks):
        store = StateStore()
        if strategy == "serial":
            execute, args = execute_block_serial, (block, store)
        elif strategy == "tree":
            t0 = time.perf_counter()
            tree = build_predecessor_tree(block)
            build_wall += time.perf_counter() - t0
            execute, args = execute_block_tree, (block, tree, store, workers)
        elif strategy in _SAME_DAG:
            t0 = time.perf_counter()
            dag = build_dag(block, workers=workers)
            build_wall += time.perf_counter() - t0
            execute, args = execute_block_parallel, (block, dag, store, workers)
        else:  # smart-validate; ExperimentPlan admits no other strategy
            shared = shared_blocks[seq]
            t0 = time.perf_counter()
            verdict = validate_dag(shared)
            run_dag = dag_from_shared(shared)
            build_wall += time.perf_counter() - t0
            verdicts.append(verdict)
            execute, args = execute_block_parallel, (shared, run_dag, store, workers)
        t0 = time.perf_counter()
        execute(*args, sim_work_us=sim_work_us)
        exec_wall += time.perf_counter() - t0
        _check_digest(strategy, seq, state_digest(store), references[seq])
    return exec_wall, build_wall, verdicts


def _prepare_block(block: Block, share: bool) -> tuple[bytes, ConflictMetrics, Block | None]:
    """A block's serial reference digest, its conflict metrics and, when
    ``share`` is set, the block carrying its DAG for smart-validate.

    One per-address pass feeds both the metrics and the shared DAG. Its
    tuples are locals, so none outlives the block it was made for.
    """
    store = StateStore()
    execute_block_serial(block, store)
    index = address_pass(block)
    metrics = _metrics_from_pass(index)
    shared = attach_dag(block, DependencyDAG._from_pass(index.preds)) if share else None
    return state_digest(store), metrics, shared


def run_experiment(plan: ExperimentPlan) -> list[dict]:
    """Execute the plan and return one row dict per (axis value, strategy)."""
    rows: list[dict] = []
    for value in plan.values:
        spec, workers = _spec_for_value(plan, value)
        blocks = generate_blocks(spec)
        share = "smart-validate" in plan.strategies
        references, metrics, shared_blocks = zip(
            *(_prepare_block(block, share) for block in blocks)
        )
        cp1 = statistics.fmean(m.cp1 for m in metrics)
        cp2 = statistics.fmean(m.cp2 for m in metrics)
        cp3 = statistics.fmean(m.cp3 for m in metrics)
        total_txns = spec.txns_per_block * spec.num_blocks
        measured: dict[str, list[tuple]] = {}
        for strategy in plan.strategies:
            row = {
                "axis": plan.axis,
                "value": value,
                "strategy": strategy,
                "cp1": f"{cp1:.4f}",
                "cp2": f"{cp2:.4f}",
                "cp3": f"{cp3:.2f}",
            }
            key = "dag" if strategy in _SAME_DAG else strategy
            try:
                if key not in measured:
                    measured[key] = list(zip(*(
                        _run_rep(strategy, blocks, shared_blocks, references, workers, plan.sim_work_us)
                        for _ in range(plan.repetitions)
                    )))
                exec_walls, build_walls, rep_verdicts = measured[key]
            except OracleDivergenceError:
                raise
            except Exception as exc:  # noqa: BLE001 - recorded per-row, run continues
                print(
                    f"{plan.axis}={value} strategy {strategy} failed: {type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
                row.update({"mean_ms": "", "tps": "", "ds_build_ms": "", "verdict": "error"})
                rows.append(row)
                continue
            row["mean_ms"] = f"{statistics.fmean(exec_walls) * 1000:.3f}"
            row["tps"] = f"{(total_txns * plan.repetitions) / sum(exec_walls):.1f}"
            row["ds_build_ms"] = f"{statistics.fmean(build_walls) * 1000:.3f}"
            if strategy == "smart-validate":
                bad = [v for vs in rep_verdicts for v in vs if v is not Verdict.HONEST]
                row["verdict"] = (bad[0] if bad else Verdict.HONEST).value
            else:
                row["verdict"] = "-"
            rows.append(row)
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"
