"""Concurrent block-transaction execution engine.

Builds a dependency DAG from declared read/write sets, schedules
conflict-free parallel execution, verifies miner-shared DAGs against
tampering, and benchmarks the strategies against serial and
predecessor-tree baselines.
"""

from .model import (
    ABSENT,
    Address,
    Block,
    ExecutionReport,
    StateStore,
    Transaction,
    state_digest,
)
from .dag import (
    AccessIndex,
    DependencyDAG,
    brute_force_dag,
    build_dag,
    conflicts,
    dag_from_shared,
)
from .scheduler import (
    ParallelExecutionError,
    ReadyQueue,
    execute_block_parallel,
    execute_block_serial,
)
from .tree import (
    PredecessorTree,
    TreeRun,
    build_predecessor_tree,
    execute_block_tree,
    tree_insert,
    tree_next_txn,
    tree_predecessors,
)
from .validator import Verdict, build_access_index, validate_dag
from .workload import ConflictMetrics, WorkloadSpec, conflict_metrics, generate_block, generate_blocks
from .codec import (
    BlockCodecError,
    BlockTooLargeError,
    ChecksumMismatchError,
    MalformedBlockError,
    TruncatedBlockError,
    attach_dag,
    parse_block,
    serialize_block,
)

__all__ = [
    "ABSENT",
    "AccessIndex",
    "Address",
    "Block",
    "BlockCodecError",
    "BlockTooLargeError",
    "ChecksumMismatchError",
    "ConflictMetrics",
    "DependencyDAG",
    "ExecutionReport",
    "MalformedBlockError",
    "ParallelExecutionError",
    "PredecessorTree",
    "ReadyQueue",
    "StateStore",
    "Transaction",
    "TreeRun",
    "TruncatedBlockError",
    "Verdict",
    "WorkloadSpec",
    "attach_dag",
    "brute_force_dag",
    "build_access_index",
    "build_dag",
    "build_predecessor_tree",
    "conflict_metrics",
    "conflicts",
    "dag_from_shared",
    "execute_block_parallel",
    "execute_block_serial",
    "execute_block_tree",
    "generate_block",
    "generate_blocks",
    "parse_block",
    "serialize_block",
    "state_digest",
    "tree_insert",
    "tree_next_txn",
    "tree_predecessors",
    "validate_dag",
]
