"""An answer checker that shares no code with the program under test.

The benchmark keeps its own mirror of the data graph and applies every
acknowledged mutation to it.  For each read it recomputes the bkws
top-k score sequence over the mirror, and checks each returned answer
tree on its own terms:

* the score sequence equals the mirror's: for every keyword, a
  multi-source backward BFS to ``d_max`` from the vertices carrying it
  gives each vertex's distance to the nearest such vertex; a root
  qualifies when every keyword reaches it, its score is the sum of those
  distances, and the top-k scores are the ``k`` smallest.  An answer set
  that leaves out a better root than one it reports fails here;
* roots are distinct;
* each answer is a tree: every edge is in the mirror, every vertex but
  the root has exactly one tree parent, and all of them hang off the
  root;
* each keyword node carries its keyword and sits at the shortest
  root-to-keyword distance in the mirror, and the score is the sum of
  those distances.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple


class Mirror:
    """The benchmark's own copy of the data graph."""

    def __init__(
        self, labels: Sequence[str], edges: Iterable[Tuple[int, int]]
    ) -> None:
        self.labels = list(labels)
        self.out: List[Set[int]] = [set() for _ in self.labels]
        self.inc: List[Set[int]] = [set() for _ in self.labels]
        self.by_label: Dict[str, List[int]] = {}
        for v, label in enumerate(self.labels):
            self.by_label.setdefault(label, []).append(v)
        self.num_edges = 0
        #: per-keyword BFS results, dropped by every mutation.
        self._memo: Dict[Tuple[str, int], Dict[int, int]] = {}
        for u, v in edges:
            self.insert(u, v)

    @property
    def size(self) -> int:
        """|V| + |E|, as ``/healthz`` reports ``layer_sizes[0]``."""
        return len(self.labels) + self.num_edges

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < len(self.out) and v in self.out[u]

    def insert(self, u: int, v: int) -> None:
        if v in self.out[u]:
            raise ValueError(f"edge {u}->{v} already present")
        self.out[u].add(v)
        self.inc[v].add(u)
        self.num_edges += 1
        self._memo.clear()

    def delete(self, u: int, v: int) -> None:
        if v not in self.out[u]:
            raise ValueError(f"edge {u}->{v} absent")
        self.out[u].discard(v)
        self.inc[v].discard(u)
        self.num_edges -= 1
        self._memo.clear()

    def keyword_distances(self, keyword: str, d_max: int) -> Dict[int, int]:
        """Vertex -> hops to the nearest ``keyword`` vertex, up to ``d_max``."""
        key = (keyword, d_max)
        memo = self._memo.get(key)
        if memo is not None:
            return memo
        dist = {v: 0 for v in self.by_label.get(keyword, ())}
        frontier = list(dist)
        inc = self.inc
        for depth in range(1, d_max + 1):
            nxt = []
            for v in frontier:
                for u in inc[v]:
                    if u not in dist:
                        dist[u] = depth
                        nxt.append(u)
            frontier = nxt
            if not frontier:
                break
        self._memo[key] = dist
        return dist

    def expected_scores(
        self, keywords: Sequence[str], k: int, d_max: int
    ) -> List[int]:
        """The bkws top-k score sequence over the mirror."""
        dists = sorted(
            (self.keyword_distances(kw, d_max) for kw in keywords), key=len
        )
        first, rest = dists[0], dists[1:]
        scores = []
        for root, d in first.items():
            total = d
            for other in rest:
                extra = other.get(root)
                if extra is None:
                    break
                total += extra
            else:
                scores.append(total)
        scores.sort()
        return scores[:k]


def check_answers(
    mirror: Mirror,
    keywords: Sequence[str],
    answers: Sequence[Mapping[str, object]],
    k: int,
    d_max: int,
) -> List[str]:
    """Every way ``answers`` disagrees with the mirror; empty when correct."""
    problems: List[str] = []
    expected = mirror.expected_scores(keywords, k, d_max)
    got = [a.get("score") for a in answers]
    if got != expected:
        problems.append(f"score sequence {got} != expected {expected}")
    roots = [a.get("root") for a in answers]
    if len(set(roots)) != len(roots):
        problems.append(f"duplicate roots in {roots}")
    for position, answer in enumerate(answers):
        problem = _check_tree(mirror, keywords, answer, d_max)
        if problem is not None:
            problems.append(f"answer {position}: {problem}")
    return problems


def _check_tree(
    mirror: Mirror,
    keywords: Sequence[str],
    answer: Mapping[str, object],
    d_max: int,
) -> Optional[str]:
    root = answer.get("root")
    if not isinstance(root, int) or not 0 <= root < len(mirror.labels):
        return f"bad root {root!r}"
    nodes = answer.get("keyword_nodes")
    if not isinstance(nodes, dict) or sorted(nodes) != sorted(keywords):
        return f"keyword nodes {nodes!r} do not cover {sorted(keywords)}"
    parent: Dict[int, int] = {}
    for edge in answer.get("edges", ()):
        u, v = edge
        if not mirror.has_edge(u, v):
            return f"edge {u}->{v} is not in the graph"
        if v in parent or v == root:
            return f"vertex {v} has two parents or is the root"
        parent[v] = u
    tree_vertices = {root, *parent}
    if sorted(tree_vertices) != list(answer.get("vertices", ())):
        return "vertices do not match the tree's vertices"
    depth: Dict[int, int] = {root: 0}

    def depth_of(v: int) -> Optional[int]:
        chain = []
        while v not in depth:
            chain.append(v)
            if v not in parent or len(chain) > len(parent):
                return None  # a dangling edge or a cycle
            v = parent[v]
        base = depth[v]
        for offset, w in enumerate(reversed(chain), start=1):
            depth[w] = base + offset
        return depth[chain[0]] if chain else base

    total = 0
    for keyword in keywords:
        node = nodes[keyword]
        if not isinstance(node, int) or not 0 <= node < len(mirror.labels):
            return f"bad keyword node {node!r}"
        if mirror.labels[node] != keyword:
            return f"node {node} is {mirror.labels[node]!r}, not {keyword!r}"
        if node not in tree_vertices:
            return f"keyword node {node} is not in the tree"
        hops = depth_of(node)
        if hops is None:
            return "edges do not form a tree under the root"
        shortest = mirror.keyword_distances(keyword, d_max).get(root)
        if shortest is None or hops != shortest:
            return (
                f"{keyword!r} at {hops} hop(s) from root {root}, "
                f"shortest is {shortest}"
            )
        total += hops
    for v in parent:
        if depth_of(v) is None:
            return "edges do not form a tree under the root"
    if answer.get("score") != total:
        return f"score {answer.get('score')} != sum of distances {total}"
    return None
