"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload train-eval-wikikg2 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with every wrapper and the
program's own tracing off.  ``--trace 1`` runs a fixed amount of the
workload twice, untraced and then with span wrappers installed around
each layer, and reports the per-layer metrics plus the tracing overhead.
Report lines (``metric ...``, ``env ...``) go to standard output before
the result; the last line is the JSON object.  The run exits non-zero
when a reference check fails or the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import harness  # noqa: E402
from perfbench.harness import Outcome  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("train-eval-wikikg2", "full-rank-xl-2w", "serve-mixed")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes and one set-up, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def _program_available() -> str | None:
    """Why the program cannot be imported, or None when it can."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"the program's sources are missing: no {ROOT / 'src' / 'repro'}"
    try:
        import repro  # noqa: F401
    except ImportError as error:
        return f"cannot import the program: {error}"
    return None


def _result_line(outcome: Outcome, names: dict[str, str]) -> str:
    metrics = {}
    for name, unit in names.items():
        value, measured_unit = outcome.metrics[name]
        if measured_unit != unit:
            raise RuntimeError(f"{name} measured in {measured_unit}, declared {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    problem = _program_available()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    try:
        return _run(args)
    finally:
        harness.stop_helper_processes()


def _run(args: argparse.Namespace) -> int:
    from perfbench import workloads

    started = time.perf_counter()
    steal_start, ticks_start = harness.cpu_ticks()
    env = harness.environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    outcome = Outcome()
    if args.trace:
        workloads.traced(args.workload, args.seed, args.seconds, outcome, env, args.smoke)
        names = PER_LAYER
    else:
        workloads.measured(args.workload, args.seed, args.seconds, outcome, args.smoke)
        names = END_TO_END
    steal_end, ticks_end = harness.cpu_ticks()
    # Time the hypervisor gave other guests: context for a noisy run.
    outcome.note("host.steal_share", (steal_end - steal_start) / max(1, ticks_end - ticks_start),
                 "ratio")
    for name in names:
        outcome.metrics.setdefault(name, (0.0, names[name]))
    for name, (value, unit) in sorted(outcome.metrics.items()):
        samples = outcome.samples.get(name, 1)
        print(f"metric {args.workload} {name} {value:.6g} {unit} n={samples}")
    for name, (value, unit, samples) in sorted(outcome.report.items()):
        print(f"report {args.workload} {name} {value:.6g} {unit} n={samples}")
    print(f"operations {args.workload} attempted={outcome.attempted} "
          f"succeeded={outcome.attempted - outcome.failed} failed={outcome.failed}")
    for error in outcome.errors:
        print(f"FAILED {error}")
    record = {
        "env": env,
        "trace": args.trace,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "metrics": {name: list(value) + [outcome.samples.get(name, 1)]
                    for name, value in outcome.metrics.items()},
        "report": {name: list(value) for name, value in outcome.report.items()},
        "series": outcome.series,
        "run_s": time.perf_counter() - started,
    }
    harness.write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}", record)
    print(_result_line(outcome, names), flush=True)
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
