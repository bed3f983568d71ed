"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
suite progresses. Wall-clock budgets are reported, and hardware-dependent
timing comparisons warn instead of failing.
"""

import random
import statistics
import time
import warnings

import pytest

from blockdag.codec import attach_dag, parse_block, serialize_block, BlockCodecError
from blockdag.dag import brute_force_dag, build_dag
from blockdag.model import StateStore, state_digest
from blockdag.scheduler import execute_block_parallel, execute_block_serial
from blockdag.tree import build_predecessor_tree, execute_block_tree, tree_predecessors
from blockdag.validator import Verdict, validate_dag
from blockdag.workload import WorkloadSpec, conflict_metrics, generate_block

from _helpers import (
    add_spurious_edge,
    random_structural_block,
    remove_one_edge,
)

FAMILIES = ("wallet", "intkey", "voting", "insurance", "mixed")
BLOCK_SIZES = (10, 50, 200, 1000)
DEPENDENCY_LEVELS = (0, 20, 60, 100)
WORKER_COUNTS = (1, 2, 4, 8)
PARALLEL_STRATEGIES = ("adj-dag", "ll-dag", "tree")


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


def _soft_report(name: str, ok: bool, detail: str = "") -> None:
    if ok:
        print(f"[acceptance] {name}: PASS ({detail})")
    else:
        print(f"[acceptance] {name}: WARN soft-fail ({detail})")
        warnings.warn(f"{name} soft-failed on this hardware: {detail}")


def _serializability_cases(total: int = 500):
    combos = [
        (family, n, pct, workers)
        for family in FAMILIES
        for n in BLOCK_SIZES
        for pct in DEPENDENCY_LEVELS
        for workers in WORKER_COUNTS
    ]
    small = [c for c in combos if c[1] <= 50]
    cases = list(combos)
    k = 0
    while len(cases) < total:
        cases.append(small[k % len(small)])
        k += 1
    return cases


def test_serializability_and_topological_validity():
    """Parallel strategies reproduce the serial digest on 500 seeded blocks,
    and every recorded schedule respects every DAG edge."""
    started = time.perf_counter()
    cases = _serializability_cases()
    topo_checks = 0
    for i, (family, n, pct, workers) in enumerate(cases):
        spec = WorkloadSpec(
            family=family, txns_per_block=n, dependency_pct=pct, rng_seed=10_000 + i
        )
        block = generate_block(spec)
        serial_store = StateStore()
        execute_block_serial(block, serial_store)
        strategy = PARALLEL_STRATEGIES[i % 3]
        store = StateStore()
        if strategy == "tree":
            tree = build_predecessor_tree(block)
            report = execute_block_tree(block, tree, store, workers=workers)
            edges = (
                (p, j)
                for j in range(block.txn_count)
                for p in tree_predecessors(tree, j)
            )
        else:
            dag = build_dag(block, workers=workers)
            report = execute_block_parallel(block, dag, store, workers=workers)
            edges = dag.edges()
        context = f"case {i}: {strategy} {family} n={n} pct={pct} w={workers}"
        assert state_digest(store) == state_digest(serial_store), context
        assert sorted(report.schedule) == list(range(n)), context
        assert report.txn_successes + report.txn_failures == n, context
        position = {idx: pos for pos, idx in enumerate(report.schedule)}
        for a, b in edges:
            assert position[a] < position[b], f"{context}: edge ({a},{b}) out of order"
            topo_checks += 1
    elapsed = time.perf_counter() - started
    _report(
        "serializability (parallel digest == serial digest)",
        True,
        f"500 blocks, {elapsed:.1f}s",
    )
    _report(
        "schedule topological validity",
        True,
        f"{topo_checks} edge orderings verified",
    )
    if elapsed > 120:
        warnings.warn(f"serializability suite took {elapsed:.1f}s, budget is 120s")


def test_dag_builder_matches_brute_force_oracle():
    """The DAG builder, at 1/2/4/8 workers, equals the pairwise oracle."""
    started = time.perf_counter()
    rng = random.Random(77)
    for trial in range(300):
        if trial % 2:
            block = random_structural_block(rng, max_n=128)
        else:
            family = FAMILIES[trial % len(FAMILIES)]
            block = generate_block(
                WorkloadSpec(
                    family=family,
                    txns_per_block=rng.randrange(2, 129),
                    dependency_pct=DEPENDENCY_LEVELS[trial % 4],
                    rng_seed=20_000 + trial,
                )
            )
        oracle = brute_force_dag(block)
        expected_edges = oracle.edge_set()
        expected_indeg = oracle.indegree_snapshot()
        for workers in WORKER_COUNTS:
            dag = build_dag(block, workers=workers)
            assert dag.edge_set() == expected_edges, (trial, workers)
            assert dag.indegree_snapshot() == expected_indeg, (trial, workers)
    elapsed = time.perf_counter() - started
    _report(
        "DAG construction equals brute-force oracle",
        True,
        f"300 blocks x 4 builder configs, {elapsed:.1f}s",
    )


def test_validator_adversarial_suite():
    """Honest DAGs verify clean; single-edge tampering is always caught,
    with the same verdict at 1, 2, and 8 workers."""
    started = time.perf_counter()
    rng = random.Random(99)
    validator_workers = (1, 2, 8)
    honest_ok = 0
    removals = detections_missing = 0
    additions = detections_extra = 0
    for i in range(200):
        family = FAMILIES[i % len(FAMILIES)]
        block = generate_block(
            WorkloadSpec(
                family=family,
                txns_per_block=rng.randrange(20, 61),
                dependency_pct=DEPENDENCY_LEVELS[i % 4],
                rng_seed=30_000 + i,
            )
        )
        shared = attach_dag(block, build_dag(block, workers=2))
        verdicts = {validate_dag(shared, workers=w) for w in validator_workers}
        assert verdicts == {Verdict.HONEST}, f"block {i} ({family})"
        honest_ok += 1
        dropped = remove_one_edge(shared, rng)
        if dropped is not None:
            removals += 1
            verdicts = {validate_dag(dropped, workers=w) for w in validator_workers}
            assert verdicts == {Verdict.MALICIOUS_MISSING_EDGE}, f"block {i} removal"
            detections_missing += 1
        padded = add_spurious_edge(shared, rng)
        if padded is not None:
            additions += 1
            verdicts = {validate_dag(padded, workers=w) for w in validator_workers}
            assert verdicts == {Verdict.MALICIOUS_EXTRA_EDGE}, f"block {i} addition"
            detections_extra += 1
    assert honest_ok == 200
    assert removals >= 150 and detections_missing == removals
    assert additions >= 100 and detections_extra == additions
    elapsed = time.perf_counter() - started
    _report(
        "validator adversarial suite",
        True,
        f"200/200 honest, {detections_missing}/{removals} missing-edge, "
        f"{detections_extra}/{additions} extra-edge, {elapsed:.1f}s",
    )
    if elapsed > 60:
        warnings.warn(f"validator suite took {elapsed:.1f}s, budget is 60s")


def test_parallel_speedup_with_simulated_work():
    """With 100us of simulated work per transaction, DAG execution at four
    workers beats serial by the required margin (execution wall time; data
    structure construction is accounted separately)."""
    spec = WorkloadSpec(family="wallet", txns_per_block=1000, dependency_pct=20, rng_seed=424242)
    block = generate_block(spec)
    serial_walls = []
    parallel_walls = []
    for _ in range(5):
        serial_walls.append(
            execute_block_serial(block, StateStore(), sim_work_us=100).wall_time
        )
        dag = build_dag(block, workers=4)
        parallel_walls.append(
            execute_block_parallel(
                block, dag, StateStore(), workers=4, sim_work_us=100
            ).wall_time
        )
    serial_mean = statistics.fmean(serial_walls)
    parallel_mean = statistics.fmean(parallel_walls)
    ratio = parallel_mean / serial_mean
    _report(
        "parallel speedup with simulated work",
        ratio <= 0.8,
        f"parallel/serial = {ratio:.2f} "
        f"({parallel_mean * 1000:.1f}ms vs {serial_mean * 1000:.1f}ms), threshold 0.80",
    )


def test_validation_cheaper_than_construction():
    """Verifying a shared DAG should not cost more than building one; this is
    hardware-sensitive, so a miss is reported as a warning, not a failure."""
    build_times = []
    validate_times = []
    for family in ("wallet", "mixed"):
        for n in (200, 400):
            for pct in (0, 50, 100):
                spec = WorkloadSpec(
                    family=family, txns_per_block=n, dependency_pct=pct, rng_seed=50_000 + n + pct
                )
                block = generate_block(spec)
                shared = attach_dag(block, build_dag(block, workers=2))
                for _ in range(5):
                    t0 = time.perf_counter()
                    build_dag(block, workers=2)
                    build_times.append(time.perf_counter() - t0)
                    t0 = time.perf_counter()
                    verdict = validate_dag(shared, None, workers=2)
                    validate_times.append(time.perf_counter() - t0)
                    assert verdict is Verdict.HONEST
    mean_build = statistics.fmean(build_times)
    mean_validate = statistics.fmean(validate_times)
    median_build = statistics.median(build_times)
    median_validate = statistics.median(validate_times)
    ok = mean_validate <= 2 * mean_build and median_validate < median_build
    _soft_report(
        "validation cheaper than construction",
        ok,
        f"mean validate {mean_validate * 1000:.2f}ms vs mean build {mean_build * 1000:.2f}ms (2x slack), "
        f"median {median_validate * 1000:.2f}ms vs {median_build * 1000:.2f}ms",
    )


def test_voting_blocks_are_fully_serialized():
    """Coarse voting access sets force one connected component, always."""
    for n in (2, 3, 17, 64, 200):
        for pct in (0, 100):
            block = generate_block(
                WorkloadSpec(family="voting", txns_per_block=n, dependency_pct=pct, rng_seed=n * 7 + pct)
            )
            metrics = conflict_metrics(block)
            assert metrics.cp3 == 1, f"voting n={n} pct={pct} split into {metrics.cp3} components"
            if n <= 64:
                dag = brute_force_dag(block)
                assert dag.edge_count == n * (n - 1) // 2, "voting DAG is not complete"
    _report("voting pathology (single component, pairwise edges)", True, "n in {2,3,17,64,200}")


def test_codec_round_trip_and_corruption_fuzz():
    """100 blocks round-trip bit-exactly; 100 single-byte corruptions all
    surface as parse errors."""
    rng = random.Random(123)
    corruptions = 0
    for i in range(100):
        block = generate_block(
            WorkloadSpec(
                family=FAMILIES[i % len(FAMILIES)],
                txns_per_block=rng.randrange(1, 65),
                dependency_pct=DEPENDENCY_LEVELS[i % 4],
                rng_seed=60_000 + i,
            )
        )
        if i % 2:
            block = attach_dag(block, build_dag(block))
        data = serialize_block(block)
        parsed = parse_block(data)
        assert parsed == block, f"block {i} round trip"
        assert serialize_block(parsed) == data, f"block {i} bit-exactness"
        corrupted = bytearray(data)
        corrupted[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        with pytest.raises(BlockCodecError):
            parse_block(bytes(corrupted))
        corruptions += 1
    _report(
        "codec round-trip and corruption fuzz",
        corruptions == 100,
        "100 round trips bit-exact, 100/100 corruptions rejected",
    )
