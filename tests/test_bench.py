import re

import pytest

from blockdag.bench import (
    CSV_HEADER,
    STRATEGIES,
    ExperimentPlan,
    OracleDivergenceError,
    _check_digest,
    rows_to_csv,
    run_experiment,
)
from blockdag import cli
from blockdag.cli import cli_main
from blockdag.codec import attach_dag, serialize_block
from blockdag.dag import address_pass, build_dag
from blockdag.workload import WorkloadSpec, generate_block

from _helpers import add_spurious_edge
import random


def _small_plan(**overrides):
    base = dict(
        axis="txns_per_block",
        values=(10, 20),
        family="wallet",
        txns_per_block=10,
        num_blocks=2,
        dependency_pct=20,
        strategies=("serial", "adj-dag"),
        repetitions=2,
        workers=2,
        rng_seed=1,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


def test_row_count_is_values_times_strategies():
    rows = run_experiment(_small_plan())
    assert len(rows) == 4
    assert [(r["value"], r["strategy"]) for r in rows] == [
        (10, "serial"),
        (10, "adj-dag"),
        (20, "serial"),
        (20, "adj-dag"),
    ]


def test_rows_carry_metrics_and_timings():
    rows = run_experiment(_small_plan())
    for row in rows:
        assert float(row["mean_ms"]) >= 0.0
        assert float(row["tps"]) > 0.0
        assert 0.0 <= float(row["cp1"]) <= 1.0
        assert row["verdict"] == "-"
    serial_rows = [r for r in rows if r["strategy"] == "serial"]
    assert all(float(r["ds_build_ms"]) == 0.0 for r in serial_rows)


def test_smart_validate_rows_report_honest():
    rows = run_experiment(
        _small_plan(strategies=("smart-validate",), values=(12,))
    )
    assert len(rows) == 1
    assert rows[0]["verdict"] == "honest"


def test_smart_validate_and_verify_only_build_no_access_index(monkeypatch, tmp_path, capsys):
    # each validated block runs the pass once, inside validate_dag
    import blockdag.validator as validator_mod

    passes = []

    def counted(block):
        passes.append(block)
        return address_pass(block)

    monkeypatch.setattr(validator_mod, "address_pass", counted)
    plan = _small_plan(strategies=("smart-validate",), values=(12,))
    rows = run_experiment(plan)
    assert rows[0]["verdict"] == "honest"
    assert len(passes) == plan.num_blocks * plan.repetitions
    assert len(set(map(id, passes))) == plan.num_blocks
    passes.clear()
    block = generate_block(WorkloadSpec(family="mixed", txns_per_block=20, dependency_pct=50, rng_seed=3))
    path = tmp_path / "honest.blk"
    path.write_bytes(serialize_block(attach_dag(block, build_dag(block))))
    assert cli_main(["--verify-only", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "honest"
    assert len(passes) == 1


def test_all_strategies_run_one_value():
    rows = run_experiment(
        _small_plan(
            strategies=("serial", "tree", "adj-dag", "ll-dag", "smart-validate"),
            values=(15,),
            repetitions=1,
        )
    )
    assert [r["strategy"] for r in rows] == [
        "serial",
        "tree",
        "adj-dag",
        "ll-dag",
        "smart-validate",
    ]


def test_csv_reproducible_except_wall_time_columns():
    def strip_times(text):
        lines = text.strip().splitlines()
        out = []
        for line in lines[1:]:
            cells = line.split(",")
            cells[3] = cells[4] = cells[8] = "_"
            out.append(",".join(cells))
        return out

    a = rows_to_csv(run_experiment(_small_plan()))
    b = rows_to_csv(run_experiment(_small_plan()))
    assert strip_times(a) == strip_times(b)
    assert a.splitlines()[0] == CSV_HEADER


# cp1, cp2, cp3 per (family, txns_per_block) of the plan below, captured
# from run_experiment before the metrics were read off the per-address lists.
_PINNED_METRICS = {
    ("mixed", 24): ("0.2500", "0.0543", "19.00"),
    ("mixed", 40): ("0.4000", "0.0615", "28.00"),
    ("voting", 24): ("1.0000", "1.0000", "1.00"),
    ("voting", 40): ("1.0000", "1.0000", "1.00"),
    ("wallet", 24): ("0.2083", "0.0362", "20.00"),
    ("wallet", 40): ("0.2000", "0.0248", "33.00"),
}


@pytest.mark.parametrize("family", ("mixed", "voting", "wallet"))
def test_rows_pinned_except_wall_time_columns(family):
    plan = ExperimentPlan(
        axis="txns_per_block",
        values=(24, 40),
        family=family,
        num_blocks=3,
        dependency_pct=20,
        repetitions=1,
        workers=2,
        rng_seed=7,
    )
    assert plan.strategies == STRATEGIES
    kept = ("axis", "value", "strategy", "cp1", "cp2", "cp3", "verdict")
    expected = [
        (
            "txns_per_block",
            value,
            strategy,
            *_PINNED_METRICS[family, value],
            "honest" if strategy == "smart-validate" else "-",
        )
        for value in plan.values
        for strategy in STRATEGIES
    ]
    assert [tuple(row[c] for c in kept) for row in run_experiment(plan)] == expected


def test_frozen_cli_surface_is_pinned_literally():
    assert CSV_HEADER == "axis,value,strategy,mean_ms,tps,cp1,cp2,cp3,ds_build_ms,verdict"
    assert STRATEGIES == ("serial", "tree", "adj-dag", "ll-dag", "smart-validate")


def test_workers_axis_extension():
    rows = run_experiment(
        _small_plan(axis="workers", values=(1, 2), strategies=("adj-dag",))
    )
    assert [r["value"] for r in rows] == [1, 2]


def test_plan_validation():
    with pytest.raises(ValueError):
        _small_plan(axis="phases").validate()
    with pytest.raises(ValueError):
        _small_plan(values=()).validate()
    with pytest.raises(ValueError):
        _small_plan(strategies=("serial", "quantum")).validate()
    with pytest.raises(ValueError, match="at least one strategy"):
        _small_plan(strategies=()).validate()
    with pytest.raises(ValueError):
        _small_plan(repetitions=0).validate()
    with pytest.raises(ValueError):
        _small_plan(workers=0).validate()
    # every axis value is checked, not only the first
    with pytest.raises(ValueError):
        _small_plan(values=(10, 0)).validate()
    with pytest.raises(ValueError):
        _small_plan(axis="num_blocks", values=(1,), txns_per_block=0).validate()
    with pytest.raises(ValueError):
        _small_plan(axis="dependency_pct", values=(20, 101)).validate()
    with pytest.raises(ValueError):
        _small_plan(axis="workers", values=(2, 0)).validate()
    with pytest.raises(ValueError):
        _small_plan(sim_work_us=-5).validate()
    _small_plan(axis="workers", values=(1, 2), workers=0).validate()


def test_digest_check_raises_on_divergence():
    with pytest.raises(OracleDivergenceError):
        _check_digest("adj-dag", 0, b"a", b"b")


def test_strategy_failure_recorded_per_row(monkeypatch, capsys):
    import blockdag.bench as bench_mod

    def boom(*args, **kwargs):
        raise RuntimeError("tree scheduler exploded")

    monkeypatch.setattr(bench_mod, "execute_block_tree", boom)
    rows = run_experiment(_small_plan(strategies=("serial", "tree"), values=(8,)))
    by_strategy = {r["strategy"]: r for r in rows}
    assert by_strategy["tree"]["verdict"] == "error"
    assert by_strategy["tree"]["mean_ms"] == ""
    assert by_strategy["serial"]["verdict"] == "-"
    assert float(by_strategy["serial"]["tps"]) > 0
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines == [
        "txns_per_block=8 strategy tree failed: RuntimeError: tree scheduler exploded"
    ]


# CLI


def test_cli_experiment_two_row_count(capsys):
    rc = cli_main(
        [
            "--experiment", "2",
            "--family", "wallet",
            "--strategies", "serial,adj-dag",
            "--txns", "200,400,600",
            "--blocks", "1",
            "--reps", "1",
            "--seed", "7",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == CSV_HEADER
    assert len(out) == 1 + 6


def test_cli_unknown_flag_is_usage_error(capsys):
    assert cli_main(["--frobnicate"]) == 64
    err = capsys.readouterr().err
    assert "usage:" in err


def test_cli_requires_experiment_or_verify(capsys):
    assert cli_main([]) == 64


def test_cli_rejects_list_for_non_axis_flag(capsys):
    rc = cli_main(["--experiment", "2", "--txns", "10,20", "--blocks", "1,2"])
    assert rc == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["--experiment", "2", "--txns", "0"],
        ["--experiment", "1", "--txns", "0"],
        ["--experiment", "4", "--workers", "2,0"],
        ["--experiment", "4", "--workers", "0,2"],
        ["--experiment", "1", "--sim-work-us", "-5", "--strategies", "serial"],
        ["--experiment", "3", "--dep-pct", ""],
        ["--experiment", "1", "--blocks", ""],
        ["--experiment", "1", "--strategies", ""],
        ["--experiment", "1", "--strategies", ","],
        ["--verify-only", "missing.blk", "--workers", "0"],
    ],
    ids=[
        "txns-axis-zero", "txns-scalar-zero", "later-worker-zero", "first-worker-zero",
        "negative-sim", "empty-dep-pct-axis", "empty-blocks-axis", "empty-strategies",
        "comma-only-strategies", "verify-only-worker-zero",
    ],
)
def test_cli_rejects_out_of_range_values_up_front(argv, capsys):
    assert cli_main(argv) == 64
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert captured.out == ""


def test_cli_out_file(tmp_path, capsys):
    out = tmp_path / "results.csv"
    rc = cli_main(
        ["--experiment", "3", "--family", "intkey", "--strategies", "serial",
         "--dep-pct", "0,50", "--txns", "10", "--blocks", "1", "--reps", "1",
         "--out", str(out)]
    )
    assert rc == 0
    text = out.read_text()
    assert text.startswith(CSV_HEADER)
    assert len(text.strip().splitlines()) == 3
    assert capsys.readouterr().out == ""


def test_cli_unwritable_out_is_one_error_line(tmp_path, capsys, monkeypatch):
    def no_run(plan):
        raise AssertionError("the experiment ran before --out was checked")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    for out in (tmp_path, tmp_path / "missing" / "rows.csv"):
        rc = cli_main(
            ["--experiment", "3", "--family", "intkey", "--strategies", "serial",
             "--dep-pct", "0", "--txns", "10", "--blocks", "1", "--reps", "1",
             "--out", str(out)]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


def test_cli_verify_only_honest(tmp_path, capsys):
    block = generate_block(WorkloadSpec(family="mixed", txns_per_block=20, dependency_pct=50, rng_seed=3))
    shared = attach_dag(block, build_dag(block))
    path = tmp_path / "honest.blk"
    path.write_bytes(serialize_block(shared))
    rc = cli_main(["--verify-only", str(path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "honest"


def test_cli_verify_only_malicious(tmp_path, capsys):
    rng = random.Random(9)
    block = generate_block(WorkloadSpec(family="mixed", txns_per_block=20, dependency_pct=20, rng_seed=5))
    shared = attach_dag(block, build_dag(block))
    tampered = add_spurious_edge(shared, rng)
    assert tampered is not None
    path = tmp_path / "bad.blk"
    path.write_bytes(serialize_block(tampered))
    rc = cli_main(["--verify-only", str(path)])
    assert rc == 2
    assert capsys.readouterr().out.strip().startswith("malicious-")


def test_cli_verify_only_bad_file(tmp_path, capsys):
    garbage = tmp_path / "garbage.blk"
    garbage.write_bytes(b"not a block")
    assert cli_main(["--verify-only", str(garbage)]) == 1
    assert cli_main(["--verify-only", str(tmp_path / "missing.blk")]) == 1


def test_cli_help_mentions_strategies():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import blockdag

    # The child imports the same blockdag as this process, installed or not.
    src = str(Path(blockdag.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "blockdag.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert re.search(r"smart-validate", proc.stdout)
