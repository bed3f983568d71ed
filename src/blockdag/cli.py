"""Command-line entry point for experiments and block verification.

Exit codes: 0 success (and honest verdicts), 1 for oracle divergence,
unreadable block files or an unwritable --out path, 2 when --verify-only
finds a malicious DAG, 64 for usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import STRATEGIES, ExperimentPlan, OracleDivergenceError, rows_to_csv, run_experiment
from .codec import BlockCodecError, parse_block
from .validator import Verdict, validate_dag
from .workload import FAMILY_CHOICES

_EXPERIMENT_AXES = {1: "num_blocks", 2: "txns_per_block", 3: "dependency_pct", 4: "workers"}
_AXIS_FLAGS = {"num_blocks": "--blocks", "txns_per_block": "--txns", "dependency_pct": "--dep-pct", "workers": "--workers"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _int_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integer(s), got {raw!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(
        prog="blockdag",
        description="Run block-execution experiments or verify a shared-DAG block file.",
        epilog=(
            "Experiment 1 varies --blocks, 2 varies --txns, 3 varies --dep-pct, "
            "4 varies --workers. Workload specs can also be kept in key=value "
            "files loadable via blockdag.workload.load_workload_spec."
        ),
    )
    parser.add_argument("--experiment", type=int, choices=sorted(_EXPERIMENT_AXES))
    parser.add_argument("--strategies", default=",".join(STRATEGIES),
                        help="comma-separated subset of: " + ", ".join(STRATEGIES))
    parser.add_argument("--family", default="mixed", choices=FAMILY_CHOICES)
    parser.add_argument("--blocks", type=_int_list, default=[5], metavar="N[,N...]")
    parser.add_argument("--txns", type=_int_list, default=[200], metavar="N[,N...]")
    parser.add_argument("--dep-pct", type=_int_list, default=[20], metavar="P[,P...]")
    parser.add_argument("--workers", type=_int_list, default=[os.cpu_count() or 1],
                        metavar="N[,N...]")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sim-work-us", type=int, default=0,
                        help="simulated per-transaction work in microseconds")
    parser.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    parser.add_argument("--verify-only", metavar="FILE",
                        help="parse a .blk file, verify its shared DAG, and exit")
    return parser


def _scalar(values: list[int], flag: str) -> int:
    if len(values) != 1:
        raise _UsageError(f"{flag} must be a single value unless it is the experiment axis")
    return values[0]


def _verify_only(path: str) -> int:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        block = parse_block(data)
        verdict = validate_dag(block)
    except (OSError, BlockCodecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(verdict.value)
    return 0 if verdict is Verdict.HONEST else 2


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verify_only is not None:
            if _scalar(args.workers, "--workers") < 1:
                raise _UsageError("workers must be >= 1")
            return _verify_only(args.verify_only)
        if args.experiment is None:
            raise _UsageError("--experiment is required (or use --verify-only)")
        axis = _EXPERIMENT_AXES[args.experiment]
        by_axis = {
            "num_blocks": args.blocks,
            "txns_per_block": args.txns,
            "dependency_pct": args.dep_pct,
            "workers": args.workers,
        }
        values = by_axis.pop(axis)
        scalars = {name: _scalar(vals, _AXIS_FLAGS[name]) for name, vals in by_axis.items()}
        strategies = tuple(s for s in args.strategies.split(",") if s)
        plan = ExperimentPlan(
            axis=axis,
            values=tuple(values),
            family=args.family,
            strategies=strategies,
            repetitions=args.reps,
            rng_seed=args.seed,
            sim_work_us=args.sim_work_us,
            **scalars,
        )
    except (_UsageError, ValueError) as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 64
    if args.out:
        # Fail before the run on what shows without creating the file; the
        # handler below catches the rest (permissions, a full disk).
        parent = os.path.dirname(args.out) or "."
        if os.path.isdir(args.out) or not os.path.isdir(parent):
            what = "is a directory" if os.path.isdir(args.out) else f"has no directory {parent}"
            print(f"error: --out {args.out} {what}", file=sys.stderr)
            return 1
    try:
        rows = run_experiment(plan)
    except OracleDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    csv_text = rows_to_csv(rows)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(csv_text)
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
