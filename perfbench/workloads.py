"""Dispatch of the three workloads, measured or traced.

A measured run (``--trace 0``) reports the end-to-end metrics.  A traced
run executes a fixed amount of the workload twice — untraced, then with
:mod:`perfbench.tracing` wrappers installed — and turns the spans, the
program's own ``repro_engine_*`` counters and the service's ``/metrics``
into the per-layer metrics.
"""

from __future__ import annotations

import time

from perfbench import offline, serve
from perfbench.harness import DIM, OUT_DIR, SETUPS, Outcome, load_dataset, reset_peak_rss
from perfbench.metrics import PER_LAYER
from perfbench.tracing import LAYERS, Recorder, install_layer_wrappers, layer_coverage, summarize

#: Dataset every workload uses under ``--smoke`` (the benchmark's own tests).
SMOKE_DATASET = "codex-s-lite"

OFFLINE = {
    "train-eval-wikikg2": (offline.train_eval, offline.TRAIN_EVAL_DATASET),
    "full-rank-xl-2w": (offline.full_rank, offline.FULL_RANK_DATASET),
}

#: Fixed work of a traced run: epochs (train-eval) or cycles (full-rank).
TRACE_UNITS = {"train-eval-wikikg2": 3, "full-rank-xl-2w": 3}

#: Share of ``--seconds`` one traced serve pass sends traffic for.
SERVE_TRACE_SHARE = 0.4

_ENGINE_COUNTERS = {
    "engine.state_publishes": "repro_engine_state_publish_total",
    "engine.worker_busy_s": "repro_engine_worker_busy_seconds_total",
    "engine.worker_queue_wait_s": "repro_engine_worker_queue_wait_seconds_total",
    "engine.worker_score_s": "repro_engine_worker_score_seconds_total",
}


def measured(workload: str, seed: int, seconds: float, outcome: Outcome, smoke: bool) -> None:
    setups = 1 if smoke else SETUPS
    if workload == "serve-mixed":
        dataset = SMOKE_DATASET if smoke else serve.DATASET
        serve.measured(seed, seconds, outcome, setups, dataset)
        return
    run, dataset_name = OFFLINE[workload]
    dataset = load_dataset(SMOKE_DATASET if smoke else dataset_name)
    reset_peak_rss()
    run(dataset, seed, seconds, None, setups, outcome)


def traced(workload: str, seed: int, seconds: float, outcome: Outcome, env: dict,
           smoke: bool) -> None:
    if workload == "serve-mixed":
        work = _traced_serve(seed, seconds, outcome, smoke)
    else:
        work = _traced_offline(workload, seed, outcome, smoke)
    outcome.put("host.gemm_gflops", env["host.gemm_gflops"], "GFLOP/s")
    outcome.put("host.loop_ns_per_op", env["host.loop_ns_per_op"], "ns")
    recorder, wall, covered, untraced, traced_work, notes = work
    _layer_metrics(outcome, recorder, notes)
    outcome.put("trace.wall_s", wall, "s")
    outcome.put("trace.unaccounted_share", 1.0 - covered / wall if wall else 0.0, "ratio")
    outcome.put("trace.overhead_share", (traced_work - untraced) / untraced, "ratio")
    summary = summarize(recorder)
    for layer in LAYERS:
        share = summary["layer_self"].get(layer, 0.0) / wall if wall else 0.0
        outcome.put(f"{layer}.self_share", share, "ratio")
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    recorder.dump(path)


def _count_operations(outcome: Outcome, *passes: Outcome) -> None:
    """Both passes of a traced run count their operations and failures."""
    for one in passes:
        outcome.attempted += one.attempted
        outcome.failed += one.failed
        outcome.errors += one.errors


def _counter_totals() -> dict[str, float]:
    from repro.obs import get_registry

    return get_registry().counter_values()


def _traced_offline(workload: str, seed: int, outcome: Outcome, smoke: bool):
    run, dataset_name = OFFLINE[workload]
    dataset = load_dataset(SMOKE_DATASET if smoke else dataset_name)
    units = 1 if smoke else TRACE_UNITS[workload]
    # A first, unreported pass pays the one-off costs (lazy imports,
    # first-call caches), so the untraced pass is as warm as the traced.
    warm = Outcome()
    run(dataset, seed, None, units, 1, warm)
    plain = Outcome()
    untraced = run(dataset, seed, None, units, 1, plain)
    before = _counter_totals()
    recorder = Recorder(score_width=2 * DIM)
    install_layer_wrappers(recorder)
    notes = Outcome()
    try:
        traced_work = run(dataset, seed, None, units, 1, notes, recorder)
    finally:
        recorder.uninstall()
    after = _counter_totals()
    for name, counter in _ENGINE_COUNTERS.items():
        notes.note(name, after.get(counter, 0.0) - before.get(counter, 0.0), PER_LAYER[name])
    _count_operations(outcome, warm, plain, notes)
    wall, covered = layer_coverage(recorder, {"op.setup", "op.train", "op.cycle"})
    return recorder, wall, covered, untraced, traced_work, notes


def _traced_serve(seed: int, seconds: float, outcome: Outcome, smoke: bool):
    dataset_name = SMOKE_DATASET if smoke else serve.DATASET
    dataset = load_dataset(dataset_name)
    span_file = OUT_DIR / f"server-spans-{seed}-{time.time_ns()}.json"
    passes = []
    for trace_out in (None, span_file):
        traffic = serve.Traffic(dataset.graph, seed)
        server = serve.Server(seed, 1, dataset_name, trace_out)
        notes = Outcome()
        try:
            results = serve.nominal_phase(server, traffic, seconds * SERVE_TRACE_SHARE, notes)
        finally:
            server.stop()
        serve.settle(notes, results, dataset, seed)
        passes.append((notes, results))
    recorder = Recorder.load(span_file)
    span_file.unlink()
    (plain, plain_results), (notes, results) = passes
    _count_operations(outcome, plain, notes)
    latency = sum(sent.latency for sent in results)
    untraced = sum(sent.latency for sent in plain_results)
    setup_wall, setup_covered = layer_coverage(recorder, {"op.setup"})
    http = sum(end - start for _, _, name, start, end, _ in recorder.spans if name == "serve.http")
    wall = latency + setup_wall
    return recorder, wall, http + setup_covered, untraced, latency, notes


def _layer_metrics(outcome: Outcome, recorder: Recorder, notes: Outcome) -> None:
    """The per-layer metrics from span totals, counts and program counters."""
    summary = summarize(recorder)

    def spent(name: str) -> float:
        return summary["total"].get(name, 0.0)

    def noted(name: str) -> float:
        return notes.report.get(name, (0.0,))[0]

    def put(name: str, value: float, span: str | None = None) -> None:
        outcome.put(name, value, PER_LAYER[name], summary["calls"].get(span, 1) if span else 1)

    for metric, span in (
        ("kg.filter_index_s", "kg.filter_index"),
        ("recommenders.fit_s", "recommenders.fit"),
        ("core.candidates_s", "core.candidates"),
        ("core.pools_s", "core.pools"),
        ("engine.build_state_s", "engine.build_state"),
        ("engine.known_answers_s", "engine.known_answers"),
        ("engine.rank_count_s", "engine.rank_count"),
        ("models.score_s", "models.score"),
        ("models.train.sample_s", "models.train.sample"),
        ("models.train.kernel_s", "models.train.kernel"),
        ("models.train.optim_s", "models.train.optim"),
        ("serve.http_s", "serve.http"),
        ("serve.service_s", "serve.service"),
        ("serve.wait_s", "serve.wait"),
        ("serve.score_s", "serve.score"),
    ):
        put(metric, spent(span), span)
    put("engine.run_self_s", summary["self"].get("engine.run", 0.0), "engine.run")
    for name in ("kg.true_answers_calls", "engine.queries", "engine.entities_scored"):
        put(name, recorder.counts.get(name, 0))
    base = noted("core.pool_base")
    put("core.pool_base", base)
    put("core.pool_fraction", noted("core.pool_entities") / base if base else 0.0)
    for name in (*_ENGINE_COUNTERS, "engine.shm_bytes", "serve.batch_size_mean",
                 "serve.cache_hit_ratio", "serve.cache_lookups", "serve.requests_refused"):
        put(name, noted(name))
    pool_wall = spent("engine.pool_run")
    busy = noted("engine.worker_busy_s")
    put("engine.worker_utilisation", busy / (offline.WORKERS * pool_wall) if pool_wall else 0.0)
    score = spent("models.score")
    put("models.score_gflops", recorder.flops / score / 1e9 if score else 0.0)
    epochs = noted("train.epoch_s_total")
    stages = sum(spent(f"models.train.{stage}") for stage in ("sample", "kernel", "optim"))
    put("models.train.self_s", epochs - stages if epochs else 0.0)
