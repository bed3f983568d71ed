import re

import pytest

from blockdag.bench import (
    CSV_HEADER,
    ExperimentPlan,
    OracleDivergenceError,
    _check_digest,
    rows_to_csv,
    run_experiment,
)
from blockdag.cli import cli_main
from blockdag.codec import attach_dag, serialize_block
from blockdag.dag import build_dag
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
    with pytest.raises(ValueError):
        _small_plan(repetitions=0).validate()
    with pytest.raises(ValueError):
        _small_plan(workers=0).validate()


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
