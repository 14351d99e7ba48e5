"""The ``serve-mixed`` workload: open-loop HTTP traffic against ``repro.serve``.

The server runs in its own process (:mod:`perfbench.serve_boot`).  One
load-generator process sends a seeded Poisson schedule through at most
``nproc`` concurrent connections: ``/v1/rank`` top-k requests whose
anchors follow a Zipf law over a fixed query set (so some hit the
service's LRU cache) mixed with ``/v1/score`` requests carrying several
test triples each (full-vocabulary filtered ranks, coalesced by the
scheduler).  Latency runs from each request's *due* time, so a stalled
generator charges its lateness to the requests behind it.

Phases: a warm-up at the nominal rate (not reported), the nominal rate
(the reported latencies), a closed-loop probe of the server's capacity,
then a ladder of rates, as shares of that capacity, for ``max_rps_slo``.

The traffic mix — the endpoint shares, ``k``, triples per score request,
the Zipf exponent and the nominal rate — is assumed, not taken from a
measured production trace; none is available for this program.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.harness import DIM, OUT_DIR, Outcome, load_dataset, median, percentile, tail

DATASET = "wikikg2-lite"

#: Requests per second of the warm-up and the reported phase (assumed).
#: It is fixed rather than a share of the measured capacity, so a faster
#: server is not then measured at a higher load; each run reports it as
#: a share of the capacity it measured.
NOMINAL_RATE = 60.0

#: Seconds of the closed-loop capacity probe.
CAPACITY_S = 2.0

#: Rates tried for ``max_rps_slo``, as shares of the measured capacity,
#: lowest first.  The top rung offers more than the server completed
#: closed-loop, so it is expected to fail the SLO.
LADDER = (0.4, 0.6, 0.8, 1.0, 1.2)

#: Seconds of unreported traffic before any reported phase.
WARM_UP_S = 1.5

#: Share of the run after warm-up spent at the nominal rate; the ladder
#: gets the rest.
NOMINAL_SHARE = 0.45

#: The p99 latency a rung must meet, in seconds.
LATENCY_LIMIT = 0.05

#: Share of requests that go to ``/v1/rank``; the rest go to ``/v1/score``
#: (assumed).
RANK_SHARE = 0.8

#: Distinct ``(anchor, relation, side)`` queries the rank traffic draws from.
QUERY_SET = 3000

#: Zipf exponent of the rank-query popularity (assumed).  About a third
#: of rank requests then hit the cache.  Near one half, the rank p50
#: would sit on the edge between the fast hit mode and the slow miss
#: mode and jump between them from seed to seed.
ZIPF = 0.6

#: Triples per ``/v1/score`` request, each ranked on both sides (assumed).
SCORE_TRIPLES = 4

#: Top-k size of every ``/v1/rank`` request (assumed).
TOP_K = 10

#: Concurrent connections of the load generator: at most one per core.
CONNECTIONS = os.cpu_count() or 1

#: Every n-th request of the reported phase is checked by the reference.
CHECK_EVERY = 20

BOOT = Path(__file__).resolve().parent / "serve_boot.py"


@dataclass
class Request:
    due: float
    path: str
    body: dict


@dataclass
class Sent:
    request: Request
    latency: float = 0.0
    lateness: float = 0.0
    status: int = 0
    payload: dict | None = field(default=None, repr=False)


class Traffic:
    """Seeded request bodies for one graph."""

    def __init__(self, graph, seed: int):
        rng = np.random.default_rng(seed)
        triples = graph.test.array
        keys = sorted(
            {(int(h), int(r), "tail") for h, r, _ in triples}
            | {(int(t), int(r), "head") for _, r, t in triples}
        )
        rng.shuffle(keys)
        self.queries = keys[:QUERY_SET]
        weights = np.arange(1, len(self.queries) + 1, dtype=np.float64) ** -ZIPF
        self.weights = weights / weights.sum()
        self.triples = triples
        self.rng = rng

    def body(self) -> tuple[str, dict]:
        if self.rng.random() < RANK_SHARE:
            anchor, relation, side = self.queries[
                int(self.rng.choice(len(self.queries), p=self.weights))
            ]
            return "/v1/rank", {
                "model": "complex", "anchor": anchor, "relation": relation,
                "side": side, "k": TOP_K,
            }
        rows = self.rng.choice(len(self.triples), size=SCORE_TRIPLES, replace=False)
        return "/v1/score", {
            "model": "complex",
            "triples": [[int(x) for x in self.triples[i]] for i in rows],
        }

    def schedule(self, rate: float, seconds: float, start: float) -> list[Request]:
        requests, due = [], start
        while True:
            due += float(self.rng.exponential(1.0 / rate))
            if due >= start + seconds:
                return requests
            path, body = self.body()
            requests.append(Request(due, path, body))


def _send(port: int, request: Request, keep: bool) -> Sent:
    now = time.perf_counter()
    if now < request.due:
        time.sleep(request.due - now)
    sent = Sent(request, lateness=max(0.0, time.perf_counter() - request.due))
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(
            "POST", request.path, json.dumps(request.body),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        data = response.read()
        sent.status = response.status
        if keep and sent.status == 200:
            sent.payload = json.loads(data)
    except (OSError, http.client.HTTPException):
        sent.status = -1
    finally:
        connection.close()
    sent.latency = time.perf_counter() - request.due
    return sent


def closed_loop(port: int, traffic: Traffic, seconds: float) -> tuple[float, list[Sent]]:
    """Requests per second completed with every connection sending back to back."""
    lock = threading.Lock()
    results: list[Sent] = []
    deadline = time.perf_counter() + seconds

    def sender() -> None:
        while time.perf_counter() < deadline:
            with lock:
                path, body = traffic.body()
            sent = _send(port, Request(time.perf_counter(), path, body), False)
            with lock:
                results.append(sent)

    start = time.perf_counter()
    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return len(results) / (time.perf_counter() - start), results


def play(port: int, requests: list[Request], connections: int, check_every: int = 0) -> list[Sent]:
    """Send ``requests`` on schedule over ``connections`` sender threads."""
    results: list[Sent | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            keep = bool(check_every) and index % check_every == 0
            results[index] = _send(port, requests[index], keep)

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results  # type: ignore[return-value]


class Server:
    """The server process; ``stop()`` returns its final report."""

    def __init__(self, seed: int, setups: int, dataset: str, trace_out: Path | None = None):
        command = [
            sys.executable, str(BOOT), "--dataset", dataset, "--seed", str(seed),
            "--setups", str(setups),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(OUT_DIR.parent),
        )
        try:
            line = self.process.stdout.readline()
            if not line:
                self.process.wait(timeout=30)
                raise RuntimeError(f"server exited with {self.process.returncode} before ready")
            self.ready = json.loads(line)
            self.port = self.ready["port"]
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise

    def metrics(self) -> dict:
        from repro.obs import parse_prometheus

        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode()
        finally:
            connection.close()
        totals: dict[str, float] = {}
        for (name, _labels), value in parse_prometheus(text).items():
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def stop(self) -> dict:
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
            line = self.process.stdout.readline()
            self.process.wait(timeout=60)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
        return json.loads(line) if line else {}


def _served(results: list[Sent], path: str) -> list[float]:
    return [sent.latency for sent in results if sent.request.path == path]


def _meets_slo(results: list[Sent]) -> bool:
    """p99 within the limit, nothing failed, and no growing backlog."""
    if not results or any(sent.status != 200 for sent in results):
        return False
    if percentile([sent.latency for sent in results], 99) > LATENCY_LIMIT:
        return False
    last = results[-max(1, len(results) // 4):]
    return median([sent.lateness for sent in last]) < LATENCY_LIMIT / 2


def check_responses(outcome: Outcome, results: list[Sent], graph, types, seed: int) -> None:
    """Recompute the kept responses with the reference ranker."""
    from repro.core.candidates import build_static_candidates
    from repro.models import build_model
    from repro.recommenders import build_recommender

    from perfbench.oracle import ReferenceRanker

    oracle = ReferenceRanker(graph)
    model = build_model("complex", graph.num_entities, graph.num_relations, dim=DIM, seed=seed)
    fitted = build_recommender("l-wd").fit(graph, types)
    candidates = build_static_candidates(fitted, graph, include_observed=True)
    for sent in results:
        if sent.payload is None:
            continue
        body = sent.request.body
        if sent.request.path == "/v1/rank":
            problem = oracle.check_topk(
                model, body["anchor"], body["relation"], body["side"], body["k"],
                candidates.candidates(body["relation"], body["side"]).tolist(),
                [(row["entity_id"], row["score"]) for row in sent.payload["results"]],
            )
        else:
            problem = None
            for row in sent.payload["results"]:
                query = (row["head_id"], row["relation_id"], row["tail_id"], row["side"])
                problem = problem or oracle.check_rank(model, query, row["rank"])
        if problem is not None:
            outcome.fail(problem)


def nominal_phase(server: Server, traffic: Traffic, seconds: float, outcome: Outcome) -> list[Sent]:
    """Warm up, then send the reported traffic at the nominal rate.

    The warm-up is not reported: it fills the cache and wakes threads.
    The service's cache and batching counters are noted over the phase.
    """
    start = time.perf_counter() + 0.05
    play(server.port, traffic.schedule(NOMINAL_RATE, WARM_UP_S, start), CONNECTIONS)
    before = server.metrics()
    start = time.perf_counter() + 0.05
    schedule = traffic.schedule(NOMINAL_RATE, seconds, start)
    results = play(server.port, schedule, CONNECTIONS, CHECK_EVERY)
    _note_service_counters(outcome, before, server.metrics())
    return results


def settle(outcome: Outcome, results: list[Sent], dataset, seed: int) -> None:
    """Count every request as an operation, then check the kept responses.

    A failed or refused request fails its operation.
    """
    refused = 0
    for sent in results:
        outcome.attempted += 1
        if sent.status != 200:
            refused += 1
            outcome.fail(f"{sent.request.path} answered {sent.status}")
    outcome.note("serve.requests_refused", refused, "count", len(results))
    check_responses(outcome, results, dataset.graph, dataset.types, seed)


def max_rate_within_slo(rungs: list[tuple[float, list[Sent]]]) -> float:
    """The highest ladder rate below which every rung met the SLO."""
    best = 0.0
    for rate, results in rungs:
        if not _meets_slo(results):
            break
        best = rate
    return best


def measured(seed: int, seconds: float, outcome: Outcome, setups: int, dataset_name: str) -> None:
    """Set up the server, then send traffic for the rest of ``seconds``."""
    dataset = load_dataset(dataset_name)
    traffic = Traffic(dataset.graph, seed)
    server = Server(seed, setups, dataset_name)
    # The server sets up about half its times before the traffic and the
    # rest after it; all of them count toward ``seconds``.
    traffic_s = max(seconds - median(server.ready["setup_s"]) * setups,
                    2 * (WARM_UP_S + CAPACITY_S))
    nominal = (traffic_s - WARM_UP_S) * NOMINAL_SHARE
    rung = (traffic_s - WARM_UP_S - nominal - CAPACITY_S) / len(LADDER)
    try:
        results = nominal_phase(server, traffic, nominal, outcome)
        capacity, probe = closed_loop(server.port, traffic, CAPACITY_S)
        rungs = []
        for share in LADDER:
            start = time.perf_counter() + 0.05
            schedule = traffic.schedule(share * capacity, rung, start)
            rungs.append((share * capacity, play(server.port, schedule, CONNECTIONS)))
    finally:
        final = server.stop()
    ladder_results = [sent for _, rung_results in rungs for sent in rung_results]
    settle(outcome, results + probe + ladder_results, dataset, seed)

    rank = _served(results, "/v1/rank")
    score = _served(results, "/v1/score")
    setup_times = final["setup_s"]
    outcome.put("setup_s", median(setup_times), "s", len(setup_times))
    outcome.series["setup_s"] = setup_times
    outcome.put("peak_rss_mb", final["peak_rss_mb"], "MB")
    outcome.put("sampled_ms", median(rank) * 1e3, "ms", len(rank))
    outcome.put("full_ms", median(score) * 1e3, "ms", len(score))
    outcome.note("rank_p50_ms", median(rank) * 1e3, "ms", len(rank))
    label, value = tail(rank)
    outcome.note(f"rank_{label}_ms", value * 1e3, "ms", len(rank))
    outcome.note("score_p50_ms", median(score) * 1e3, "ms", len(score))
    label, value = tail(score)
    outcome.note(f"score_{label}_ms", value * 1e3, "ms", len(score))
    outcome.note("max_rps_slo", max_rate_within_slo(rungs), "1/s", len(ladder_results))
    outcome.note("capacity_rps", capacity, "1/s", len(probe))
    outcome.note("nominal_share_of_capacity", NOMINAL_RATE / capacity, "ratio")
    top_rate, top_results = rungs[-1]
    outcome.note("ladder_top_rps", top_rate, "1/s", len(top_results))
    outcome.note("ladder_top_meets_slo", float(_meets_slo(top_results)), "bool")
    lateness = [sent.lateness for sent in results]
    outcome.note("generator_lateness_p50_ms", median(lateness) * 1e3, "ms", len(lateness))
    outcome.note("generator_lateness_max_ms", max(lateness) * 1e3, "ms", len(lateness))


def _note_service_counters(outcome: Outcome, before: dict, after: dict) -> None:
    def moved(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    hits = moved("repro_serve_cache_hits_total")
    lookups = hits + moved("repro_serve_cache_misses_total")
    batches = moved("repro_serve_batch_size_count")
    outcome.note("serve.cache_hit_ratio", hits / lookups if lookups else 0.0, "ratio", int(lookups))
    outcome.note("serve.cache_lookups", lookups, "count")
    outcome.note(
        "serve.batch_size_mean",
        moved("repro_serve_batch_size_sum") / batches if batches else 0.0,
        "requests",
        int(batches),
    )
