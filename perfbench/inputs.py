"""Inputs for the end-to-end benchmark.

Everything the measured program receives is made here, with nothing
imported from ``src/``: the graph (written as the ``.nodes``/``.edges``
TSV pair ``repro-bigindex build`` reads), the ontology arguments, the
query list and the mutation list.  A change under ``src/`` therefore
cannot change what is measured.

The graph is one fixed instance (``GRAPH_SEED``), the same for every
run; the run's seed orders the query list and draws the mutations.
Which graph a run gets would otherwise move its latencies by more than
the host's own noise leaves room for (see the README's *Steadiness*).

The ontology itself is generated by the program from its arguments
(``--ontology-types``/``--seed``); the graph is labelled with leaf types
of that ontology, named ``Y7_<i>`` by the generator's naming scheme
(prefix ``Y``, level 7 of a height-7 DAG).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

#: Graph size and shape: the repo's ``synt-8k`` point of the paper's
#: synt-* series (``repro.datasets.synthetic``), rebuilt here: 8k
#: vertices, 16k edges, 30% of them aimed at recently popular targets.
NUM_VERTICES = 8_000
NUM_EDGES = 16_000
HUB_FRACTION = 0.3
#: How many recent edge targets the hub draws choose among.
HUB_WINDOW = 1_000
#: The graph's own seed, the same for every run.
GRAPH_SEED = 1
#: Index layers built, and the bkws parameters: the server's defaults
#: ``--d-max 3`` and ``--k 10``, which the checker must match.
LAYERS = 3
D_MAX = 3
K = 10
#: Ontology arguments passed to ``build`` and ``serve``; like the graph,
#: they do not depend on the run's seed.
ONTOLOGY_ARGS = ["--ontology-types", "500", "--seed", "0"]
#: Vertex labels are all 397 leaf types ``Y7_0`` .. ``Y7_396`` of the
#: 500-type ontology.  Label ``Y7_i`` has Zipf rank ``i + 1``
#: (``synt-8k`` shuffles the ranks with its seed), so the query list
#: below can name the most frequent labels directly.
NUM_LABELS = 397
LABEL_PREFIX = "Y7_"
ZIPF_EXPONENT = 1.0
#: Queries draw their keywords from the labels of Zipf ranks 1..18, the
#: graph's most frequent labels: 4,029 distinct 2-4-keyword sets, about
#: two to three times what one 30-s read-cold run sends.
TOP_LABELS = 18
QUERY_SIZES = (2, 3, 4)


@dataclass
class Inputs:
    seed: int
    labels: List[str]
    edges: List[Tuple[int, int]]
    #: distinct keyword sets, none a permutation of another, seeded order.
    cold_queries: List[Tuple[str, ...]]
    files: Dict[str, str] = field(default_factory=dict)


def _zipf_table(n: int, exponent: float) -> List[float]:
    return list(
        itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(n))
    )


def generate(seed: int) -> Inputs:
    """The fixed graph and the query list for ``seed`` (deterministic)."""
    rng = random.Random(f"perfbench-graph:{GRAPH_SEED}")
    universe = [f"{LABEL_PREFIX}{i}" for i in range(NUM_LABELS)]
    table = _zipf_table(len(universe), ZIPF_EXPONENT)
    total = table[-1]
    labels = [
        universe[bisect.bisect_right(table, rng.random() * total)]
        for _ in range(NUM_VERTICES)
    ]
    # Edge draws as in ``synt-8k``: a uniform source, and a target that
    # is, with probability HUB_FRACTION, one of the last HUB_WINDOW
    # targets (so popular targets grow into hubs), else uniform.
    edges: List[Tuple[int, int]] = []
    seen: Set[Tuple[int, int]] = set()
    popular: List[int] = []
    while len(edges) < NUM_EDGES:
        u = rng.randrange(NUM_VERTICES)
        if popular and rng.random() < HUB_FRACTION:
            v = rng.choice(popular)
        else:
            v = rng.randrange(NUM_VERTICES)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))
            popular.append(v)
            if len(popular) > HUB_WINDOW:
                del popular[0]

    top = universe[:TOP_LABELS]
    qrng = random.Random(f"perfbench-queries:{seed}")
    # Each query size is shuffled on its own and the sizes are then
    # interleaved evenly, so every prefix of the list (a run consumes
    # one) holds 2-, 3- and 4-keyword queries in the same proportions.
    keyed = []
    for size in QUERY_SIZES:
        group = list(itertools.combinations(top, size))
        qrng.shuffle(group)
        for j, combo in enumerate(group):
            # Keywords in a seeded order: the server canonicalizes them.
            query = tuple(qrng.sample(combo, size))
            keyed.append(((j + 0.5) / len(group), size, query))
    keyed.sort()
    cold = [query for _, _, query in keyed]
    return Inputs(
        seed=seed,
        labels=labels,
        edges=edges,
        cold_queries=cold,
    )


def mutations(
    seed: int, num_vertices: int, edges: Sequence[Tuple[int, int]], count: int
) -> List[Tuple[str, int, int]]:
    """Alternating insert/delete ops that keep |E| level.

    Generated against a private copy of the edge set, so every insert
    names an absent edge and every delete a present one at the point it
    is applied; the server must acknowledge each with ``applied: true``.
    """
    rng = random.Random(f"perfbench-mutations:{seed}")
    present = list(edges)
    position = {edge: i for i, edge in enumerate(present)}
    ops: List[Tuple[str, int, int]] = []
    for i in range(count):
        if i % 2 == 0:
            while True:
                u = rng.randrange(num_vertices)
                v = rng.randrange(num_vertices)
                if u != v and (u, v) not in position:
                    break
            position[(u, v)] = len(present)
            present.append((u, v))
            ops.append(("insert", u, v))
        else:
            slot = rng.randrange(len(present))
            edge = present[slot]
            last = present.pop()
            if slot < len(present):
                present[slot] = last
                position[last] = slot
            del position[edge]
            ops.append(("delete", edge[0], edge[1]))
    return ops


def write_graph(inputs: Inputs, prefix: str) -> None:
    """Write the TSV pair and record each file's sha256."""
    os.makedirs(os.path.dirname(prefix), exist_ok=True)
    nodes = "".join(f"{v}\t{label}\n" for v, label in enumerate(inputs.labels))
    edges = "".join(f"{u}\t{v}\n" for u, v in inputs.edges)
    for suffix, text in ((".nodes", nodes), (".edges", edges)):
        data = text.encode("utf-8")
        with open(prefix + suffix, "wb") as handle:
            handle.write(data)
        inputs.files[os.path.basename(prefix + suffix)] = hashlib.sha256(
            data
        ).hexdigest()


def digest_of(value: object) -> str:
    """sha256 of a value's ``repr``: a fingerprint for generated lists."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()
