"""The benchmark's own tests: declared metrics, the reference check, smoke runs.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import metrics, run  # noqa: E402
from perfbench.oracle import ReferenceRanker  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[section]}


def _run(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return process, time.perf_counter() - start


#: Runs the benchmark as a child of a process that adopts every orphan
#: (a Linux child subreaper), then prints what is still running or unreaped.
_ADOPTING_PARENT = """
import ctypes, os, subprocess, sys, time
ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
time.sleep(0.5)
left = []
for entry in os.listdir("/proc"):
    try:
        with open(f"/proc/{entry}/stat") as handle:
            parent = int(handle.read().rsplit(")", 1)[1].split()[1])
        with open(f"/proc/{entry}/cmdline", "rb") as handle:
            command = handle.read().replace(b"\\0", b" ").decode()
    except (OSError, ValueError):
        continue
    if parent == os.getpid():
        left.append(command or entry)
print(code, left)
"""


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == metrics.END_TO_END
    assert _declared("per_layer") == metrics.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    process, seconds = _run(
        "--workload", workload, "--seed", "3", "--seconds", "3", "--trace", str(trace), "--smoke"
    )
    assert process.returncode == 0, process.stderr[-3000:]
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert seconds < 90


@pytest.fixture(scope="module")
def evaluated():
    from repro.core.ranking import evaluate_full
    from repro.datasets import zoo
    from repro.models import build_model

    graph = zoo.load("codex-s-lite").graph
    model = build_model("complex", graph.num_entities, graph.num_relations, dim=8, seed=0)
    return graph, model, evaluate_full(model, graph)


def test_reference_accepts_the_program_ranks(evaluated):
    graph, model, result = evaluated
    oracle = ReferenceRanker(graph)
    queries = list(result.ranks)[:40]
    assert all(oracle.check_rank(model, q, result.ranks[q]) is None for q in queries)


def test_perturbed_rank_fails_the_reference(evaluated):
    graph, model, result = evaluated
    oracle = ReferenceRanker(graph)
    query = next(iter(result.ranks))
    assert oracle.check_rank(model, query, result.ranks[query] + 1.0) is not None


def test_perturbed_topk_fails_the_reference(evaluated):
    graph, model, _ = evaluated
    oracle = ReferenceRanker(graph)
    anchor, relation, side = 0, 0, "tail"
    scores = oracle.scores(model, anchor, relation, side)
    known = oracle.known(anchor, relation, side) | {anchor}
    order = [int(e) for e in sorted(range(len(scores)), key=lambda e: (-scores[e], e))
             if int(e) not in known][:6]
    correct = [(e, float(scores[e])) for e in order[:5]]
    assert oracle.check_topk(model, anchor, relation, side, 5, [], correct) is None
    swapped = [correct[1], correct[0], *correct[2:]]
    assert oracle.check_topk(model, anchor, relation, side, 5, [], swapped) is not None
    skipped = correct[:4] + [(order[5], float(scores[order[5]]))]
    assert oracle.check_topk(model, anchor, relation, side, 5, [], skipped) is not None


def test_failed_check_makes_the_run_fail(monkeypatch, capsys):
    from perfbench import harness, workloads

    def measured(workload, seed, seconds, outcome, smoke):
        for name, unit in metrics.END_TO_END.items():
            outcome.put(name, 1.0, unit)
        outcome.attempted = 1
        outcome.fail("rank of (0, 0, 1, 'tail') is 3.0, reference allows [2.0, 2.0]")

    monkeypatch.setattr(workloads, "measured", measured)
    monkeypatch.setattr(harness, "environment", lambda workload, seed: {})
    monkeypatch.setattr(harness, "write_record", lambda name, record: None)
    code = run.main(["--workload", "serve-mixed", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process, seconds = _run(
        "--workload", "train-eval-wikikg2", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout
    assert seconds < 60


@pytest.mark.parametrize("workload", ["full-rank-xl-2w", "serve-mixed"])
def test_run_leaves_no_process_behind(workload):
    """Pool workers, the server and the shared-memory tracker all end with the run."""
    process = subprocess.run(
        [sys.executable, "-c", _ADOPTING_PARENT, sys.executable, "perfbench/run.py",
         "--workload", workload, "--seed", "3", "--seconds", "3", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert process.stdout.strip() == "0 []", process.stdout + process.stderr[-3000:]


@pytest.mark.parametrize("workload", ["train-eval-wikikg2", "serve-mixed"])
def test_traced_run_in_a_fresh_checkout(tmp_path, workload):
    """A traced run is the first to write anything: no output directory exists yet."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for directory in ("perfbench", "src"):
        shutil.copytree(ROOT / directory, tmp_path / directory,
                        ignore=shutil.ignore_patterns("__pycache__"))
    process, _ = _run(
        "--workload", workload, "--seed", "3", "--seconds", "3", "--trace", "1", "--smoke",
        cwd=tmp_path,
    )
    assert process.returncode == 0, process.stderr[-3000:]
    assert json.loads(process.stdout.strip().splitlines()[-1])["correct"]
