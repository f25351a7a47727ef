"""Per-layer metrics: the traced part of a ``--trace 1`` run.

Two sources, both outside the program:

* counters the end-to-end run's server reported on ``/metrics``, and
  per-request figures taken from that run's own replies;
* an in-process replay of the same inputs against the same persisted
  index format, timing calls into the program's public functions with
  the benchmark's own clock.  Phases inside ``evaluate`` come from the
  ``EvalResult.breakdown`` the evaluator already returns.

Every metric is emitted on every workload; the README says which
end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Dict, List, Mapping, Tuple

import inputs as gen

#: Replay sizes: enough operations for stable means, few enough that a
#: traced run stays well inside the per-run time limit.
REPLAY_TIMED_READS = 120
REPLAY_WRITE_ROUNDS = 8
REPLAY_COLD_MUTATIONS = 4
BKWS_QUERIES = 60
LOAD_REPEATS = 3
PHASES = (
    ("layer-selection", "eval.select_ms"),
    ("translate", "eval.translate_ms"),
    ("explore", "eval.explore_ms"),
    ("specialize", "eval.specialize_ms"),
    ("generate", "eval.generate_ms"),
)

Metrics = Dict[str, Tuple[float, str]]


def _replayed_ops(ops, workload: str):
    """The end-to-end operations the replay repeats, in their order.

    read-cold: its first mutations, the warm-up and the first timed
    reads; write-mix: the warm-up round and the first timed rounds.
    """
    chosen, timed_reads, rounds, cold_mutations = [], 0, 0, 0
    for op in ops:
        if not op.timed:
            if op.kind == "mutate" and workload != "write-mix":
                if cold_mutations < REPLAY_COLD_MUTATIONS:
                    chosen.append(op)
                cold_mutations += 1
            elif op.kind == "read" or workload == "write-mix":
                chosen.append(op)
            continue
        if workload == "write-mix":
            rounds += op.kind == "mutate"
            if rounds > REPLAY_WRITE_ROUNDS:
                continue
        elif timed_reads >= REPLAY_TIMED_READS:
            continue
        else:
            timed_reads += 1
        chosen.append(op)
    return chosen


def per_layer(run, data: gen.Inputs, ops, counters: Mapping[str, int],
              workload: str) -> Metrics:
    sys.path.insert(0, os.path.join(run.root, "src"))
    from repro.core.cost import CostParams
    from repro.core.index import BiGIndex
    from repro.core.persistence import load_index, save_index
    from repro.core.plugins import boost
    from repro.core.wal import WAL_NAME, MutationWAL
    from repro.graph.io import load_graph_tsv
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.runtime import instrumented
    from repro.ontology.ontology import generate_ontology
    from repro.search.banks import BackwardKeywordSearch
    from repro.search.base import KeywordQuery

    metrics: Metrics = {}
    timed_reads = [op for op in ops if op.timed and op.kind == "read"]
    overhead = [
        (op.latency - json.loads(op.body)["seconds"]) * 1000.0
        for op in timed_reads
    ]
    metrics["serve.overhead_p50_ms"] = (statistics.median(overhead), "ms")
    metrics["serve.response_kib"] = (
        statistics.median(len(op.body) for op in timed_reads) / 1024.0, "KiB"
    )
    metrics["cache.result_hits"] = (counters.get("cache.hit.result", 0), "count")
    metrics["setup.build_s"] = (
        statistics.median(s.build_s for s in run.setups), "s"
    )
    metrics["setup.boot_s"] = (
        statistics.median(s.boot_s for s in run.setups), "s"
    )

    options = dict(zip(gen.ONTOLOGY_ARGS[::2], gen.ONTOLOGY_ARGS[1::2]))
    ontology = generate_ontology(
        int(options["--ontology-types"]), seed=int(options["--seed"]),
        label_prefix="Y",
    )
    registry = MetricsRegistry()
    trace_dir = os.path.join(run.work, "traced")
    algorithm = BackwardKeywordSearch(d_max=gen.D_MAX, k=gen.K)

    def evaluator_for(index):
        # The same factory ``repro-bigindex serve`` uses for bkws.
        return boost(algorithm, index, allow_layer_zero=True).evaluator

    with instrumented(metrics=registry, trace=False):
        graph, _ = load_graph_tsv(os.path.join(run.work, "graph", "g"))
        started = time.perf_counter()
        built = BiGIndex.build(
            graph, ontology, num_layers=gen.LAYERS,
            cost_params=CostParams(num_samples=25),
        )
        metrics["build.s"] = (time.perf_counter() - started, "s")
        for m in range(1, gen.LAYERS + 1):
            seconds = built.report.layer_seconds
            metrics[f"build.layer{m}_s"] = (
                seconds[m - 1] if m <= len(seconds) else 0.0, "s"
            )
        started = time.perf_counter()
        save_index(built, trace_dir)
        metrics["persist.save_s"] = (time.perf_counter() - started, "s")
        loads = []
        for _ in range(LOAD_REPEATS):
            started = time.perf_counter()
            index = load_index(trace_dir, ontology)
            loads.append((time.perf_counter() - started) * 1000.0)
        metrics["persist.load_ms"] = (statistics.median(loads), "ms")

        base_index = index
        evaluator = evaluator_for(index)
        wal = MutationWAL(os.path.join(trace_dir, WAL_NAME))
        wal.open()
        phase_ms: Dict[str, List[float]] = {name: [] for name, _ in PHASES}
        summary_answered = 0
        replay_eval_s = replay_e2e_s = 0.0
        clone_ms: List[float] = []
        apply_ms: List[float] = []
        commit_ms: List[float] = []
        first_ms: List[float] = []
        fresh = False
        refreshed_before = registry.counter("build.layers_refreshed")
        extra_reads = iter(data.cold_queries[::-1])
        replay = _replayed_ops(ops, workload)
        try:
            for position, op in enumerate(replay):
                if op.kind == "mutate":
                    kind, u, v = op.payload
                    started = time.perf_counter()
                    clone = index.cow_clone()
                    cloned = time.perf_counter()
                    if kind == "insert":
                        clone.insert_edge(u, v)
                    else:
                        clone.delete_edge(u, v)
                    applied = time.perf_counter()
                    wal.commit({"op": kind, "u": u, "v": v})
                    committed = time.perf_counter()
                    clone_ms.append((cloned - started) * 1000.0)
                    apply_ms.append((applied - cloned) * 1000.0)
                    commit_ms.append((committed - applied) * 1000.0)
                    index, evaluator, fresh = clone, evaluator_for(clone), True
                    following = replay[position + 1:position + 2]
                    if not following or following[0].kind != "read":
                        # Nothing reads this snapshot in the workload
                        # itself: time its first query with a spare one.
                        spare = KeywordQuery(next(extra_reads))
                        started = time.perf_counter()
                        evaluator.evaluate(spare, k=gen.K)
                        first_ms.append((time.perf_counter() - started) * 1000.0)
                        fresh = False
                    continue
                started = time.perf_counter()
                result = evaluator.evaluate(KeywordQuery(op.payload), k=gen.K)
                elapsed = time.perf_counter() - started
                if fresh:
                    first_ms.append(elapsed * 1000.0)
                    fresh = False
                if result.breakdown.totals:
                    summary_answered += result.layer >= 1
                    for name, _ in PHASES:
                        phase_ms[name].append(
                            result.breakdown.totals.get(name, 0.0) * 1000.0
                        )
                if op.timed:
                    replay_eval_s += elapsed
                    replay_e2e_s += op.latency
        finally:
            wal.close()
        refreshed = registry.counter("build.layers_refreshed") - refreshed_before

        distinct = list(dict.fromkeys(
            op.payload for op in replay if op.kind == "read"
        ))[:BKWS_QUERIES]
        searcher = algorithm.bind(base_index.base_graph)
        expansions_before = registry.counter("search.expansions")
        started = time.perf_counter()
        for keywords in distinct:
            searcher.search(KeywordQuery(keywords))
        bkws_s = time.perf_counter() - started
        expansions = registry.counter("search.expansions") - expansions_before

    for name, metric in PHASES:
        metrics[metric] = (statistics.fmean(phase_ms[name] or [0.0]), "ms")
    metrics["eval.summary_layer_queries"] = (summary_answered, "count")
    metrics["search.bkws_ms"] = (bkws_s * 1000.0 / len(distinct), "ms")
    metrics["search.expansions_per_query"] = (expansions / len(distinct), "count")
    metrics["maint.clone_ms"] = (statistics.median(clone_ms), "ms")
    metrics["maint.apply_ms"] = (statistics.median(apply_ms), "ms")
    metrics["maint.layers_refreshed"] = (refreshed / len(apply_ms), "count")
    metrics["wal.commit_ms"] = (statistics.median(commit_ms), "ms")
    metrics["eval.first_after_publish_ms"] = (statistics.median(first_ms), "ms")
    # Coverage, not a metric: the share of the replayed reads' round
    # trip that in-process ``evaluate`` accounts for.
    print(
        f"traced layers: in-process evaluate is {replay_eval_s / replay_e2e_s:.3f}"
        " of the same timed reads' round trip",
        flush=True,
    )
    return metrics
