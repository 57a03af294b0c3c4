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


def root_samples(n: int) -> list:
    """No root, one root, every vertex, and repeated unsorted roots."""
    rng = np.random.default_rng(n)
    return [[], [n // 3], list(range(n)), rng.integers(0, n, 40).tolist()]
