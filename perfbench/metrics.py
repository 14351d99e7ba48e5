"""The metric names and units the benchmark prints; ``BENCHMARK.json`` declares the same."""

#: End-to-end metrics (``--trace 0``): name -> unit.  Every workload
#: reports every one; see README.md for what each means per workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sampled_ms": "ms",
    "full_ms": "ms",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  A layer the
#: workload does not exercise reports 0.
PER_LAYER = {
    "kg.filter_index_s": "s",
    "kg.true_answers_calls": "count",
    "recommenders.fit_s": "s",
    "core.candidates_s": "s",
    "core.pools_s": "s",
    "core.pool_fraction": "ratio",
    "core.pool_base": "count",
    "engine.build_state_s": "s",
    "engine.known_answers_s": "s",
    "engine.run_self_s": "s",
    "engine.rank_count_s": "s",
    "engine.queries": "count",
    "engine.entities_scored": "count",
    "engine.state_publishes": "count",
    "engine.shm_bytes": "bytes",
    "engine.worker_busy_s": "s",
    "engine.worker_queue_wait_s": "s",
    "engine.worker_score_s": "s",
    "engine.worker_utilisation": "ratio",
    "models.score_s": "s",
    "models.score_gflops": "GFLOP/s",
    "host.gemm_gflops": "GFLOP/s",
    "host.loop_ns_per_op": "ns",
    "models.train.sample_s": "s",
    "models.train.kernel_s": "s",
    "models.train.optim_s": "s",
    "models.train.self_s": "s",
    "serve.http_s": "s",
    "serve.service_s": "s",
    "serve.wait_s": "s",
    "serve.score_s": "s",
    "serve.batch_size_mean": "requests",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_lookups": "count",
    "serve.requests_refused": "count",
    "kg.self_share": "ratio",
    "recommenders.self_share": "ratio",
    "core.self_share": "ratio",
    "engine.self_share": "ratio",
    "models.self_share": "ratio",
    "serve.self_share": "ratio",
    "trace.wall_s": "s",
    "trace.unaccounted_share": "ratio",
    "trace.overhead_share": "ratio",
}
