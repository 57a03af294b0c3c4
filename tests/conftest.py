from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from spanlab import Graph, graphs, random_graph


@pytest.fixture
def cycle5() -> Graph:
    return Graph(5, [(i, (i + 1) % 5) for i in range(5)])


@pytest.fixture
def path3() -> Graph:
    return Graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def pairs(n: int, codes) -> set:
    """Edge codes u*n + v as a set of (u, v) tuples, decoded here."""
    return {divmod(int(c), n) for c in codes}


def random_tree(n: int, seed: int) -> Graph:
    """Deterministic random tree: each vertex attaches to an earlier one."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    return Graph(n, edges)


def parent_host() -> Graph:
    """A random part and a path longer than the BFS level cap (so roots on
    it take Dijkstra rows) as two components, with isolated vertices
    between and after them; ids interleaved."""
    long = graphs._LEVEL_CAP + 20
    parts = [random_graph(60, 0.12, 5), Graph(long, [(i, i + 1) for i in range(long - 1)])]
    edges, base = [], 0
    for part in parts:
        edges += [(u + base, v + base) for u, v in part.edges]
        base += part.n + 4
    order = np.random.default_rng(3).permutation(base)
    return Graph(base, [(int(order[u]), int(order[v])) for u, v in edges])


def broom(rank: int) -> Graph:
    """A hub whose one neighbor closer to the largest-id root sits at
    `rank` of its ascending neighbor list: leaves 0..rank-1 and p = rank
    hang off the hub rank+1, p is adjacent to the root rank+4, and the
    tail rank+2 - rank+3 leads away from the hub."""
    hub, root = rank + 1, rank + 4
    edges = [(leaf, hub) for leaf in range(rank)]
    edges += [(rank, hub), (rank, root), (hub, rank + 2), (rank + 2, rank + 3)]
    return Graph(rank + 5, edges)


def parent_step_hosts() -> list[Graph]:
    """Hosts for the canonical-parent steps: brooms whose closer neighbor
    sits at rank 0, 7 (the last of an 8-rank chunk), 8 and 20; a star with
    a path, where the center's closer neighbor under the path's end sits at
    rank 19; a star whose largest-id center reaches only distance 1; a
    dense random graph; two components with isolated vertices; and edgeless
    hosts."""
    star_path = Graph(24, [(0, leaf) for leaf in range(1, 21)] + [(20, 21), (21, 22), (22, 23)])
    star = Graph(6, [(leaf, 5) for leaf in range(5)])
    return [broom(0), broom(7), broom(8), broom(20), star_path, star,
            random_graph(48, 0.5, 7), parent_host(), Graph(5, []), Graph(1, [])]


def root_samples(n: int) -> list:
    """No root, one root, every vertex, and repeated unsorted roots."""
    rng = np.random.default_rng(n)
    return [[], [n // 3], list(range(n)), rng.integers(0, n, 40).tolist()]


class _NoAdjGraph(Graph):
    """A Graph whose adjacency tuples raise on every read."""

    @property
    def adj(self):
        raise AssertionError("a search read the Python adjacency tuples")

    @adj.setter
    def adj(self, value):
        pass


def no_adj(g: Graph) -> Graph:
    """The same graph as `g`, built so that reading its `adj` raises."""
    return _NoAdjGraph(g.n, g.sorted_edges())
