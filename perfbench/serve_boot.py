"""Server process of the ``serve-mixed`` workload.

Started by :mod:`perfbench.serve` with ``sys.executable``; it builds the
zoo graph for the seed (counted by no metric), then sets the service up
from that graph — model registry, static candidate set warmed, filter
index warmed, HTTP server bound — timing each set-up.  Half of the
``--setups`` set-ups run before serving, from the last of which it
serves, and the rest after ``stop`` arrives on standard input (see
:class:`perfbench.harness.Setups`).  It prints one JSON line when ready
and another, with every set-up time and its peak memory as it was when
serving stopped, when done.
With ``--trace-out`` it installs the layer wrappers first and writes the
recorded spans to that file on stop.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.harness import (  # noqa: E402
    DIM, OUT_DIR, Setups, fresh_graph, load_dataset, peak_rss_mb, reset_peak_rss,
    stop_helper_processes,
)
from perfbench.tracing import Recorder, install_layer_wrappers, root_span  # noqa: E402

#: Name the served model is registered under.
MODEL = "complex"


def _setup(graph, types, seed: int, store_root: Path):
    from repro.models import build_model
    from repro.serve import LinkPredictionService, ModelRegistry, ServeHTTPServer

    graph = fresh_graph(graph)
    registry = ModelRegistry(store_root, graph, types=types)
    model = build_model("complex", graph.num_entities, graph.num_relations, dim=DIM, seed=seed)
    registry.register(MODEL, model, persist=False)
    service = LinkPredictionService(registry)
    registry.candidates(MODEL)
    graph.filter_index  # noqa: B018 — the first request must not pay the build
    server = ServeHTTPServer(service, port=0)
    server.start_background()
    return service, server


def _close(service, server) -> None:
    """Stop serving and release the set-up's structures."""
    server.shutdown()
    server.server_close()
    service.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_out:
        recorder = Recorder(score_width=2 * DIM)
        install_layer_wrappers(recorder)
    dataset = load_dataset(args.dataset)
    reset_peak_rss()
    stores = OUT_DIR / f"serve-stores-{args.seed}-{time.time_ns()}"
    index = iter(range(args.setups))

    def setup():
        with root_span(recorder, "op.setup"):
            return _setup(dataset.graph, dataset.types, args.seed, stores / str(next(index)))

    setups = Setups(args.setups, setup, release=lambda built: _close(*built))
    try:
        port = setups.before()[1].port
        print(json.dumps({"port": port, "setup_s": setups.times}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
        peak = peak_rss_mb()
        times = setups.after()
        if recorder is not None:
            recorder.dump(Path(args.trace_out))
        print(json.dumps({"peak_rss_mb": peak, "setup_s": times}), flush=True)
    finally:
        shutil.rmtree(stores, ignore_errors=True)
        stop_helper_processes()
    return 0


if __name__ == "__main__":
    sys.exit(main())
