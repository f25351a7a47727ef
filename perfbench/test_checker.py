"""The answer checker rejects each kind of corrupted answer.

Run with ``python3 -m pytest perfbench/test_checker.py`` or
``python3 perfbench/test_checker.py``.

The graph below has two keyword labels, ``a`` and ``b``; with
``d_max = 3`` its bkws answers are, best first::

    root 3: 3->1 (a, 1 hop), 3->2 (b, 1 hop)            score 2
    root 6: 6->1 (a, 1), 6->7->2 (b, 2)                 score 3
    root 0: 0->3->1 (a, 2 hops), 0->3->2 (b, 2 hops)    score 4
    root 5: 5->6->1 (a, 2), 5->6->7->2 (b, 3)           score 5
    root 4: 4->0->3->1 (a, 3), 4->0->3->2 (b, 3)        score 6
"""

from __future__ import annotations

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checker import Mirror, check_answers  # noqa: E402

LABELS = ["r", "a", "b", "x", "x", "x", "x", "x"]
EDGES = [(0, 3), (3, 1), (3, 2), (5, 6), (6, 1), (6, 7), (7, 2), (4, 0)]
KEYWORDS = ["a", "b"]


def answer(root, nodes, edges, score):
    vertices = {root, *(v for _, v in edges)}
    return {
        "root": root,
        "keyword_nodes": nodes,
        "edges": [list(e) for e in edges],
        "vertices": sorted(vertices),
        "score": score,
    }


ROOT3 = answer(3, {"a": 1, "b": 2}, [(3, 1), (3, 2)], 2)
ROOT6 = answer(6, {"a": 1, "b": 2}, [(6, 1), (6, 7), (7, 2)], 3)
ROOT0 = answer(0, {"a": 1, "b": 2}, [(0, 3), (3, 1), (3, 2)], 4)
ROOT5 = answer(5, {"a": 1, "b": 2}, [(5, 6), (6, 1), (6, 7), (7, 2)], 5)
#: The top 3 (k = 3).
RANKED = [ROOT3, ROOT6, ROOT0]


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.mirror = Mirror(LABELS, EDGES)

    def check(self, answers, k=3):
        return check_answers(self.mirror, KEYWORDS, answers, k=k, d_max=3)

    def test_accepts_the_correct_ranking(self):
        self.assertEqual(self.check(RANKED), [])
        self.assertEqual(
            self.mirror.expected_scores(KEYWORDS, 10, 3), [2, 3, 4, 5, 6]
        )

    def test_rejects_a_wrong_score(self):
        bad = copy.deepcopy(RANKED)
        bad[1]["score"] = 4
        problems = self.check(bad)
        self.assertTrue(any("sum of distances 3" in p for p in problems), problems)

    def test_rejects_a_missing_edge(self):
        bad = copy.deepcopy(RANKED)
        # 0->1 is not an edge of the graph.
        bad[1]["edges"] = [[0, 1], [0, 3], [3, 2]]
        problems = self.check(bad)
        self.assertTrue(any("not in the graph" in p for p in problems), problems)

    def test_rejects_a_duplicate_root(self):
        bad = copy.deepcopy(RANKED)
        bad[2] = copy.deepcopy(bad[1])
        bad[2]["score"] = 4  # keep the score sequence [2, 3, 4] intact
        problems = self.check(bad)
        self.assertTrue(any("duplicate roots" in p for p in problems), problems)

    def test_rejects_an_omitted_better_root(self):
        # Root 5 (score 5) reported in place of the better root 6 (score 3);
        # each answer is valid on its own.
        bad = [ROOT3, ROOT0, ROOT5]
        problems = self.check(bad)
        self.assertTrue(any("score sequence" in p for p in problems), problems)

    def test_rejects_a_keyword_node_with_the_wrong_label(self):
        bad = copy.deepcopy(RANKED)
        bad[0]["keyword_nodes"] = {"a": 2, "b": 1}
        self.assertTrue(self.check(bad))

    def test_rejects_a_longer_than_shortest_path(self):
        # Root 0 reaches 'a' in one hop; the answer takes a 3-hop detour.
        mirror = Mirror(["r", "a", "x", "x"], [(0, 1), (0, 2), (2, 3), (3, 1)])
        bad = answer(0, {"a": 1}, [(0, 2), (2, 3), (3, 1)], 3)
        problems = check_answers(mirror, ["a"], [bad], k=1, d_max=3)
        self.assertTrue(any("shortest is 1" in p for p in problems), problems)

    def test_mirror_follows_mutations(self):
        self.mirror.delete(3, 2)
        # Roots 3, 0 and 4 reached b only through 3->2.
        self.assertEqual(self.mirror.expected_scores(KEYWORDS, 10, 3), [3, 5])
        self.assertTrue(self.check(RANKED))
        self.mirror.insert(3, 2)
        self.assertEqual(self.check(RANKED), [])


if __name__ == "__main__":
    unittest.main()
