#!/usr/bin/env python3
"""Block-pipeline benchmark for blockdag.

Run from the repository root:

    python3 perfbench/run.py --workload wallet-sparse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The first form measures one workload and prints, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a separate traced run. The second form runs every
workload untraced, each in its own process, and prints every end-to-end
metric by name with its unit.

The loop is closed, with one client: a block goes through all four paths
before the next block starts, the way a node handles one block at a time.

* produce: build_dag, execute_block_parallel, state_digest, attach_dag and
  serialize_block;
* validate: parse_block on the producer's bytes, build_access_index and
  validate_dag, dag_from_shared, execute_block_parallel, state_digest;
* tree: build_predecessor_tree, execute_block_tree, state_digest;
* serial: execute_block_serial, state_digest.

Between blocks, ``blockdag.bench.run_experiment`` (the CLI's engine) runs a
small fixed plan over the workload's first blocks, for a fixed share of the
timed window. Every executor uses two workers, never ``os.cpu_count()``.

End-to-end timings are processor seconds (all threads of the process),
scaled to a nominal machine speed: the host's speed drifts as its other
tenants come and go, so a fixed pass of interpreter work that does not use
``blockdag`` runs between timed operations to measure it (see
``calibrate.py``). Wall-time medians are printed and kept next to them, and
the traced run reports each path's wall time.

Every path of every block is checked: the produce, validate and tree
digests must equal the serial reference digest computed at set-up, and the
validator must answer ``honest``. After the timed window, copies of a few
blocks with one edge dropped or one non-conflicting edge added must get the
matching malicious verdict. A mismatch or an exception is one failed
operation; its cause is printed to standard error and kept in the result
file under ``.bench_out/``.

The benchmark imports ``blockdag`` only from ``src/`` next to this
directory, and exits with status 2 without a result when it is not there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from calibrate import NOMINAL_S, Speed, now, scaled, since
from spans import NullTracer, Tracer, layer_medians, path_shares

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKERS = 2  # fixed, so no run has more executor threads than a 2-CPU machine
BLOCKS_PER_RUN = 8  # distinct blocks generated at set-up, cycled by the timed loop
SETUP_REPS = 9  # setup_s is the median of this many set-ups, spread over the window
EXPERIMENT_BLOCKS = 2  # blocks in each run_experiment plan
EXPERIMENT_SHARE = 0.25  # share of the timed window given to run_experiment
ADVERSARIAL_BLOCKS = 2  # blocks per run that get a tampered-DAG verdict check
EXTRA_EDGE_TRIES = 500  # random pairs tried when looking for a non-conflicting pair
PATHS = ("produce", "validate", "tree", "serial")
# The tail percentile is fixed, not derived from each run's sample count, so
# it names the same statistic on every commit. p75 is the highest that leaves
# at least ten samples beyond it on every workload in a 36-second window on a
# 2-CPU machine (voting-dense times about 60 blocks).
TAIL_PCT = 75


@dataclass(frozen=True)
class Workload:
    family: str
    txns: int
    dependency_pct: int
    sim_work_us: int


# Shares below are from traced runs (seed 1, 40 s, 2 CPUs, Python 3.11).
WORKLOADS = {
    # About 420 edges, critical path 7-9. The O(n^2) dag.build is ~80% of
    # produce; validation, codec and scheduling each take a few ms.
    "wallet-sparse": Workload("wallet", 1000, 20, 0),
    # Every pair conflicts: 19,900 edges, critical path 200. validate_dag is
    # ~70% of validate and dag_from_shared ~17%.
    "voting-dense": Workload("voting", 200, 20, 0),
    # The only setting where executor threads overlap: simulated work
    # sleeps and releases the interpreter lock. Its voting slice gives
    # ~5,050 edges and a critical path of 100.
    "mixed-sim100": Workload("mixed", 400, 20, 100),
}

# Timings are processor time at the calibration's nominal speed.
END_TO_END_UNITS = {
    "produce_txn_per_cpu_s": "1/s",
    "validate_txn_per_cpu_s": "1/s",
    "produce_cpu_ms_p50": "ms",
    "produce_cpu_ms_tail": "ms",
    "validate_cpu_ms_p50": "ms",
    "validate_cpu_ms_tail": "ms",
    "tree_cpu_ms_p50": "ms",
    "serial_cpu_ms_p50": "ms",
    "experiment_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "dag.build_ms": "ms",
    "dag.from_shared_ms": "ms",
    "validator.index_ms": "ms",
    "validator.validate_ms": "ms",
    "codec.parse_ms": "ms",
    "codec.attach_ms": "ms",
    "codec.serialize_ms": "ms",
    "scheduler.exec_ms": "ms",
    "scheduler.serial_ms": "ms",
    "tree.build_ms": "ms",
    "tree.exec_ms": "ms",
    "families.apply_ms": "ms",
    "model.digest_ms": "ms",
    "workload.conflict_metrics_ms": "ms",
    "workload.generate_ms": "ms",
    "dag.edges": "count",
    "dag.critical_path": "count",
    "dag.ideal_speedup": "x",
    "codec.block_bytes": "bytes",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    # Wall time of each path, unscaled: where threads overlap (mixed-sim100)
    # this, not processor time, shows how well the scheduler overlaps them.
    "path.produce_ms": "ms",
    "path.validate_ms": "ms",
    "path.tree_ms": "ms",
    "path.serial_ms": "ms",
}


class SourcesMissing(Exception):
    pass


def import_blockdag():
    """Import blockdag afresh from ``src/``, dropping any copy already loaded."""
    if not (SRC / "blockdag" / "__init__.py").is_file():
        raise SourcesMissing(f"no blockdag sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "blockdag" or m.startswith("blockdag.")]:
        del sys.modules[name]
    bd = importlib.import_module("blockdag")
    importlib.import_module("blockdag.bench")
    if SRC not in Path(bd.__file__).resolve().parents:
        raise SourcesMissing(f"blockdag was imported from {bd.__file__}, not from {SRC}")
    return bd


class Run:
    """One benchmark run: the imported program, its blocks and the operation ledger."""

    def __init__(self, workload: Workload, seed: int, tr) -> None:
        self.wl = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[dict] = []
        self.setup_times: list[float] = []  # scaled by the calibration pass
        self.setup_wall: list[float] = []
        self.speed = Speed()
        self.bd, self.blocks, self.refs = self.set_up(tr)

    def fail(self, op: str, block, cause: str) -> None:
        self.failures.append({"op": op, "block": block, "cause": cause})
        print(f"FAILED {op} block={block}: {cause}", file=sys.stderr)

    # -- set-up ---------------------------------------------------------------

    def set_up(self, tr):
        """Import blockdag, generate the blocks and their serial reference digests.

        Appends the seconds taken, wall and scaled, to ``setup_wall`` and
        ``setup_times``. Later calls only time a set-up: the run keeps using
        the program and blocks of the first.
        """
        start = now()
        bd = import_blockdag()
        wl = self.wl
        spec = bd.WorkloadSpec(
            family=wl.family,
            txns_per_block=wl.txns,
            num_blocks=BLOCKS_PER_RUN,
            dependency_pct=wl.dependency_pct,
            rng_seed=self.seed,
        )
        blocks = []
        for seq in range(BLOCKS_PER_RUN):
            with tr.span("workload.generate", f"g{seq}"):
                blocks.append(bd.generate_block(spec, seq))
        refs = []
        for block in blocks:
            store = bd.StateStore()
            bd.execute_block_serial(block, store)
            refs.append(bd.state_digest(store))
        took = since(start)
        self.setup_wall.append(took[0])
        self.setup_times.append(scaled(took, self.speed.factor()))
        return bd, blocks, refs

    # -- the four paths -------------------------------------------------------

    def produce(self, block, tr, bid):
        bd, sim = self.bd, self.wl.sim_work_us
        with tr.span("path.produce", bid) as path:
            with tr.span("dag.build", bid, path.id):
                dag = bd.build_dag(block, workers=WORKERS)
            store = bd.StateStore()
            with tr.span("scheduler.exec", bid, path.id) as ex:
                processor = tr.processor(bd.families.apply_transaction, ex.id, bid)
                bd.execute_block_parallel(
                    block, dag, store, WORKERS, processor=processor, sim_work_us=sim
                )
            with tr.span("model.digest", bid, path.id):
                digest = bd.state_digest(store)
            with tr.span("codec.attach", bid, path.id):
                shared = bd.attach_dag(block, dag)
            with tr.span("codec.serialize", bid, path.id):
                data = bd.serialize_block(shared)
        return digest, data

    def validate(self, data, tr, bid):
        bd, sim = self.bd, self.wl.sim_work_us
        with tr.span("path.validate", bid) as path:
            with tr.span("codec.parse", bid, path.id):
                shared = bd.parse_block(data)
            with tr.span("validator.index", bid, path.id):
                index = bd.build_access_index(shared)
            with tr.span("validator.validate", bid, path.id):
                verdict = bd.validate_dag(shared, index, WORKERS)
            with tr.span("dag.from_shared", bid, path.id):
                dag = bd.dag_from_shared(shared)
            store = bd.StateStore()
            with tr.span("scheduler.exec", bid, path.id) as ex:
                processor = tr.processor(bd.families.apply_transaction, ex.id, bid)
                bd.execute_block_parallel(
                    shared, dag, store, WORKERS, processor=processor, sim_work_us=sim
                )
            with tr.span("model.digest", bid, path.id):
                digest = bd.state_digest(store)
        return digest, verdict

    def tree(self, block, tr, bid):
        bd, sim = self.bd, self.wl.sim_work_us
        with tr.span("path.tree", bid) as path:
            with tr.span("tree.build", bid, path.id):
                tree = bd.build_predecessor_tree(block)
            store = bd.StateStore()
            with tr.span("tree.exec", bid, path.id) as ex:
                processor = tr.processor(bd.families.apply_transaction, ex.id, bid)
                bd.execute_block_tree(
                    block, tree, store, WORKERS, processor=processor, sim_work_us=sim
                )
            with tr.span("model.digest", bid, path.id):
                return bd.state_digest(store)

    def serial(self, block, tr, bid):
        bd, sim = self.bd, self.wl.sim_work_us
        with tr.span("path.serial", bid) as path:
            store = bd.StateStore()
            with tr.span("scheduler.serial", bid, path.id) as ex:
                processor = tr.processor(bd.families.apply_transaction, ex.id, bid)
                bd.execute_block_serial(block, store, processor=processor, sim_work_us=sim)
            with tr.span("model.digest", bid, path.id):
                return bd.state_digest(store)

    def process_block(self, seq: int, tr, bid) -> dict[str, tuple[float, float]]:
        """All four paths on one block; (wall, processor) seconds of each path that checked out."""
        block, ref = self.blocks[seq], self.refs[seq]
        seconds: dict[str, tuple[float, float]] = {}

        def timed(op, fn, *args):
            self.attempted += 1
            start = now()
            try:
                result = fn(*args)
            except Exception as exc:  # noqa: BLE001 - a failed operation; the cause is kept
                self.fail(op, bid, f"{type(exc).__name__}: {exc}")
                return None
            seconds[op] = since(start)
            return result

        def check(op, problem):
            if problem:
                del seconds[op]
                self.fail(op, bid, problem)

        produced = timed("produce", self.produce, block, tr, bid)
        if produced is not None:
            check("produce", produced[0] != ref and "digest differs from serial")
            validated = timed("validate", self.validate, produced[1], tr, bid)
            if validated is not None:
                digest, verdict = validated
                check(
                    "validate",
                    (verdict is not self.bd.Verdict.HONEST and f"verdict {verdict.value}")
                    or (digest != ref and "digest differs from serial"),
                )
        else:
            self.attempted += 1
            self.fail("validate", bid, "no producer bytes to validate")
        digest = timed("tree", self.tree, block, tr, bid)
        if digest is not None:
            check("tree", digest != ref and "digest differs from serial")
        digest = timed("serial", self.serial, block, tr, bid)
        if digest is not None:
            check("serial", digest != ref and "digest differs from serial reference")
        return seconds

    # -- the CLI engine -------------------------------------------------------

    def experiment(self) -> tuple[float, float] | None:
        """One run_experiment call on the workload's first blocks.

        Returns its (wall, processor) seconds, or None on failure.
        """
        bench = self.bd.bench
        wl = self.wl
        plan = bench.ExperimentPlan(
            axis="txns_per_block",
            values=(wl.txns,),
            family=wl.family,
            txns_per_block=wl.txns,
            num_blocks=EXPERIMENT_BLOCKS,
            dependency_pct=wl.dependency_pct,
            strategies=bench.STRATEGIES,
            repetitions=1,
            workers=WORKERS,
            rng_seed=self.seed,
            sim_work_us=wl.sim_work_us,
        )
        self.attempted += 1
        start = now()
        try:
            rows = bench.run_experiment(plan)
        except Exception as exc:  # noqa: BLE001 - a failed operation; the cause is kept
            self.fail("experiment", None, f"{type(exc).__name__}: {exc}")
            return None
        took = since(start)
        # run_experiment keeps no cause for a row it marks "error".
        bad = [
            f"{row['strategy']}: verdict {row['verdict']}"
            for row in rows
            if row["verdict"] == "error"
            or (row["strategy"] == "smart-validate" and row["verdict"] != "honest")
        ]
        if len(rows) != len(bench.STRATEGIES):
            bad.append(f"{len(rows)} rows for {len(bench.STRATEGIES)} strategies")
        if bad:
            self.fail("experiment", None, "; ".join(bad))
            return None
        return took

    # -- tampered DAGs --------------------------------------------------------

    def adversarial(self) -> list[dict]:
        """Verdicts for shared blocks with one edge dropped or one spurious edge added."""
        bd = self.bd
        rng = random.Random(f"adversarial:{self.seed}")
        results = []
        for seq in range(min(ADVERSARIAL_BLOCKS, len(self.blocks))):
            block = self.blocks[seq]
            shared = bd.attach_dag(block, bd.build_dag(block))
            cases = (
                ("missing-edge", drop_edge(shared, rng), bd.Verdict.MALICIOUS_MISSING_EDGE),
                ("extra-edge", add_edge(bd, shared, rng), bd.Verdict.MALICIOUS_EXTRA_EDGE),
            )
            for case, tampered, expected in cases:
                if tampered is None:
                    results.append({"block": seq, "case": case, "verdict": "skipped: no such edge"})
                    continue
                self.attempted += 1
                op = f"adversarial-{case}"
                try:
                    parsed = bd.parse_block(bd.serialize_block(tampered))
                    verdict = bd.validate_dag(parsed, bd.build_access_index(parsed), WORKERS)
                except Exception as exc:  # noqa: BLE001 - a failed operation; the cause is kept
                    self.fail(op, seq, f"{type(exc).__name__}: {exc}")
                    results.append({"block": seq, "case": case, "verdict": "error"})
                    continue
                results.append({"block": seq, "case": case, "verdict": verdict.value})
                if verdict is not expected:
                    self.fail(op, seq, f"verdict {verdict.value}, expected {expected.value}")
        return results

    def shapes(self) -> list[dict]:
        """Exact DAG and wire shape of each distinct block."""
        bd = self.bd
        out = []
        for block in self.blocks:
            dag = bd.build_dag(block)
            path = critical_path(block.txn_count, dag.edges())
            out.append(
                {
                    "txns": block.txn_count,
                    "edges": dag.edge_count,
                    "critical_path": path,
                    "ideal_speedup": block.txn_count / path if path else 0.0,
                    "block_bytes": len(bd.serialize_block(block, dag)),
                }
            )
        return out


def drop_edge(shared, rng: random.Random):
    """Copy of a shared block with one declared edge removed, indegree kept consistent."""
    candidates = [t.index for t in shared.transactions if t.declared_dependencies]
    if not candidates:
        return None
    j = rng.choice(candidates)
    txn = shared.transactions[j]
    dropped = rng.choice(txn.declared_dependencies)
    transactions = list(shared.transactions)
    transactions[j] = replace(
        txn, declared_dependencies=tuple(d for d in txn.declared_dependencies if d != dropped)
    )
    indegree = list(shared.shared_indegree)
    indegree[j] -= 1
    return type(shared)(tuple(transactions), tuple(indegree))


def add_edge(bd, shared, rng: random.Random):
    """Copy of a shared block with one edge between non-conflicting transactions, or None."""
    n = shared.txn_count
    if n < 2:
        return None
    for _ in range(EXTRA_EDGE_TRIES):
        i = rng.randrange(0, n - 1)
        j = rng.randrange(i + 1, n)
        a, b = shared.transactions[i], shared.transactions[j]
        if bd.conflicts(a, b) or i in b.declared_dependencies:
            continue
        transactions = list(shared.transactions)
        transactions[j] = replace(b, declared_dependencies=b.declared_dependencies + (i,))
        indegree = list(shared.shared_indegree)
        indegree[j] += 1
        return type(shared)(tuple(transactions), tuple(indegree))
    return None


def critical_path(n: int, edges) -> int:
    """Transactions on the longest dependency chain; every edge runs low to high index."""
    if n == 0:
        return 0
    depth = [1] * n
    for i, j in sorted(edges, key=lambda e: e[1]):
        if depth[i] + 1 > depth[j]:
            depth[j] = depth[i] + 1
    return max(depth)


def tail(values: list[float], pct: int) -> tuple[float, int]:
    """The pct-th percentile and how many samples lie above it."""
    if len(values) < 2:
        return values[0], 0
    cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return cut, sum(1 for v in values if v > cut)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(run: Run, seconds: float) -> tuple[dict, dict, list[float], list[float], int]:
    """Untraced closed loop, timed in scaled processor seconds and in wall seconds.

    Returns per-path block seconds (scaled, wall), experiment seconds
    (scaled, wall) and the number of blocks done. The remaining set-ups are
    spread evenly over the window, so that setup_s samples the machine over
    the same period as the other metrics.
    """
    null = NullTracer()
    latencies: dict[str, list[float]] = {p: [] for p in PATHS}
    wall: dict[str, list[float]] = {p: [] for p in PATHS}
    experiments: list[float] = []
    experiments_wall: list[float] = []
    block_time = experiment_time = 0.0
    it = tries = 0
    run.speed.skip()
    began = time.perf_counter()
    deadline = began + seconds
    while it == 0 or tries == 0 or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        if start - began >= seconds * len(run.setup_times) / SETUP_REPS:
            run.set_up(null)
            continue
        if it > 0 and experiment_time <= EXPERIMENT_SHARE * (block_time + experiment_time):
            took = run.experiment()
            experiment_time += time.perf_counter() - start
            factor = run.speed.factor()
            if took is not None:
                experiments.append(scaled(took, factor))
                experiments_wall.append(took[0])
            tries += 1
            continue
        secs = run.process_block(it % len(run.blocks), null, it)
        block_time += time.perf_counter() - start
        factor = run.speed.factor()
        for path, took in secs.items():
            latencies[path].append(scaled(took, factor))
            wall[path].append(took[0])
        it += 1
    while len(run.setup_times) < SETUP_REPS:
        run.set_up(null)
    return latencies, wall, experiments, experiments_wall, it


def traced_loop(run: Run, tracer: Tracer, seconds: float) -> tuple[list[float], list[float], int]:
    """Each block untraced and traced, in alternating order, plus conflict_metrics.

    Returns the per-block untraced and traced totals of the four paths.
    """
    null = NullTracer()
    untraced: list[float] = []
    traced: list[float] = []
    it = 0
    deadline = time.perf_counter() + seconds
    while it == 0 or time.perf_counter() < deadline:
        seq = it % len(run.blocks)
        totals = {}
        for is_traced in ((False, True) if it % 2 == 0 else (True, False)):
            gc.collect()
            secs = run.process_block(seq, tracer if is_traced else null, it)
            if len(secs) == len(PATHS):
                totals[is_traced] = sum(wall for wall, _cpu in secs.values())
        if len(totals) == 2:
            untraced.append(totals[False])
            traced.append(totals[True])
        with tracer.span("workload.conflict_metrics", it):
            run.bd.conflict_metrics(run.blocks[seq])
        it += 1
    return untraced, traced, it


def end_to_end(run: Run, seconds: float, record: dict) -> dict:
    """The untraced timed loop, reduced to the end-to-end metrics.

    Every timing is processor seconds scaled by the calibration pass (see
    ``calibrate``); the wall-time medians go to the record beside them.
    """
    wl = run.wl
    latencies, wall, experiments, experiments_wall, record["blocks_timed"] = timed_loop(
        run, seconds
    )
    metrics = {}
    tails = {}
    for path in ("produce", "validate"):
        samples = latencies[path] or [0.0]
        metrics[f"{path}_txn_per_cpu_s"] = (
            wl.txns * len(samples) / sum(samples) if sum(samples) else 0.0
        )
        metrics[f"{path}_cpu_ms_p50"] = statistics.median(samples) * 1000
        cut, beyond = tail(samples, TAIL_PCT)
        metrics[f"{path}_cpu_ms_tail"] = cut * 1000
        tails[f"{path}_cpu_ms_tail"] = {"percentile": TAIL_PCT,
                                        "samples": len(latencies[path]), "beyond": beyond}
    for path in ("tree", "serial"):
        metrics[f"{path}_cpu_ms_p50"] = statistics.median(latencies[path] or [0.0]) * 1000
    metrics["experiment_cpu_s"] = statistics.median(experiments or [0.0])
    metrics["setup_s"] = statistics.median(run.setup_times)
    passes = run.speed.passes
    record["calibration"] = {
        "nominal_ms": NOMINAL_S * 1000,
        "passes": len(passes),
        "median_ms": statistics.median(passes) * 1000,
        "min_ms": min(passes) * 1000,
        "max_ms": max(passes) * 1000,
    }
    record["wall_medians"] = {
        **{f"{path}_ms": statistics.median(wall[path] or [0.0]) * 1000 for path in PATHS},
        "experiment_s": statistics.median(experiments_wall or [0.0]),
        "setup_s": statistics.median(run.setup_wall),
    }
    record["tails"] = tails
    record["latencies_ms"] = {path: [v * 1000 for v in secs] for path, secs in latencies.items()}
    record["experiments"] = len(experiments)
    record["adversarial"] = run.adversarial()
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def per_layer(run: Run, tracer: Tracer, seconds: float, record: dict) -> dict:
    """The traced loop, reduced to per-layer self times, shapes and tracing overhead."""
    untraced, traced, record["blocks_timed"] = traced_loop(run, tracer, seconds)
    metrics = {
        f"{layer}_ms": ms
        for layer, ms in layer_medians(tracer.spans).items()
        if f"{layer}_ms" in PER_LAYER_UNITS
    }
    diffs = [t - u for t, u in zip(traced, untraced)] or [0.0]
    metrics["trace.overhead_ms"] = statistics.median(diffs) * 1000
    metrics["trace.overhead_pct"] = 100 * statistics.median(
        [d / u for d, u in zip(diffs, untraced)] or [0.0]
    )
    for path in PATHS:
        walls = [end - start for name, start, end, _parent, _block in tracer.spans
                 if name == f"path.{path}"]
        metrics[f"path.{path}_ms"] = statistics.median(walls or [0.0]) * 1000
    record["path_shares"] = path_shares(tracer.spans)
    record["adversarial"] = run.adversarial()
    record["shapes"] = shapes = run.shapes()
    for key in ("edges", "critical_path", "ideal_speedup"):
        metrics[f"dag.{key}"] = statistics.median(s[key] for s in shapes)
    metrics["codec.block_bytes"] = statistics.median(s["block_bytes"] for s in shapes)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of one workload: (final result line, full record for the result file)."""
    wl = WORKLOADS[name]
    tracer = Tracer() if trace else NullTracer()
    run = Run(wl, seed, tracer)
    gc.collect()
    run.process_block(0, NullTracer(), "warm-up")  # fill caches before timing
    record: dict = {"workload": name, **asdict(wl), "workers": WORKERS, "seed": seed,
                    "seconds": seconds, "trace": int(trace), "machine": machine()}
    if trace:
        metrics = per_layer(run, tracer, seconds, record)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(run, seconds, record)
        units = END_TO_END_UNITS
    record["attempted"] = run.attempted
    record["failed"] = len(run.failures)
    record["fail_ratio"] = len(run.failures) / run.attempted
    record["failures"] = run.failures
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        # A layer that never completed (every block failed) reads 0.
        "metrics": {m: {"value": metrics.get(m, 0.0), "unit": u} for m, u in units.items()},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    return result, record


def print_record(record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}: {record['family']} txns={record['txns']} "
          f"dependency_pct={record['dependency_pct']} sim_work_us={record['sim_work_us']} "
          f"workers={record['workers']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    print(f"machine: nproc={m['nproc']} python={m['python']} platform={m['platform']}")
    if "shapes" in record:
        shapes = record["shapes"]
        print("blocks: edges=" + ",".join(str(s["edges"]) for s in shapes)
              + " critical_path=" + ",".join(str(s["critical_path"]) for s in shapes)
              + " bytes=" + ",".join(str(s["block_bytes"]) for s in shapes))
    extra = f", {record['experiments']} experiments" if "experiments" in record else ""
    print(f"timed blocks {record['blocks_timed']}{extra}; attempted {record['attempted']}, "
          f"failed {record['failed']}, fail_ratio {record['fail_ratio']:.4f}")
    for adv in record["adversarial"]:
        print(f"adversarial block {adv['block']} {adv['case']}: {adv['verdict']}")
    if "calibration" in record:
        cal = record["calibration"]
        print(f"calibration: {cal['passes']} passes, median {cal['median_ms']:.3f} ms "
              f"(min {cal['min_ms']:.3f}, max {cal['max_ms']:.3f}), nominal "
              f"{cal['nominal_ms']:.3f} ms; wall medians: "
              + ", ".join(f"{k} {v:.4f}" for k, v in record["wall_medians"].items()))
    tails = record.get("tails", {})
    for name, metric in record["result"]["metrics"].items():
        note = ""
        if name in tails:
            t = tails[name]
            note = f"  (p{t['percentile']} of {t['samples']} samples, {t['beyond']} beyond)"
        print(f"{name:30s} {metric['value']:14.4f} {metric['unit']}{note}")
    for path, layers in record.get("path_shares", {}).items():
        parts = ", ".join(f"{layer} {share:.0%}" for layer, share in
                          sorted(layers.items(), key=lambda kv: -kv[1]))
        print(f"share of {path}: {parts}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced, each in a fresh process; prints every end-to-end metric."""
    rows = []
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with status {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        print()
        result = json.loads(lines[-1])
        rows.append((name, result))
    for name, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:28s} {entry['value']:14.4f} {entry['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourcesMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_record(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
