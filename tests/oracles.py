"""Independent reference computations for the test suite.

Everything here deliberately avoids the library's BFS/Dijkstra code paths:
plain-Python cubic all-pairs, relaxation-to-fixpoint for weighted graphs,
and direct recounts by walking the data.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

INF = float("inf")


def floyd_warshall(g) -> list[list[float]]:
    """Cubic all-pairs hop distances; INF where disconnected."""
    n = g.n
    dist = [[INF] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in g.edges:
        dist[u][v] = 1
        dist[v][u] = 1
    for mid in range(n):
        dmid = dist[mid]
        for i in range(n):
            dimid = dist[i][mid]
            if dimid == INF:
                continue
            row = dist[i]
            for j in range(n):
                alt = dimid + dmid[j]
                if alt < row[j]:
                    row[j] = alt
    return dist


@lru_cache(maxsize=4)
def _all_pairs(g) -> list[list[float]]:
    return floyd_warshall(g)


def canonical_path(g, u: int, v: int):
    """The min-id shortest u-v path: descend from v over u's Floyd-Warshall
    row, each step to the smallest neighbor one hop closer to u; None if
    disconnected.  The matrix is cached per graph (read it, never write)."""
    dist = _all_pairs(g)[u]
    if dist[v] == INF:
        return None
    path = [v]
    while path[-1] != u:
        x = path[-1]
        path.append(min(w for w in g.adj[x] if dist[w] == dist[x] - 1))
    path.reverse()
    return path


def hop_row(g, root: int) -> list[float]:
    """Hop distances from `root` by a plain FIFO queue over `g.adj`; INF
    where disconnected."""
    dist = [INF] * g.n
    dist[root] = 0
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for w in g.adj[x]:
            if dist[w] == INF:
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist


def canonical_parents(g, root: int) -> list[int]:
    """Per vertex the minimum-id neighbor one hop closer to `root` (over
    `hop_row`), found by reading every neighbor; -1 at the root and where
    the root does not reach."""
    dist = hop_row(g, root)
    return [
        min(w for w in g.adj[v] if dist[w] == dist[v] - 1) if 0 < dist[v] < INF else -1
        for v in range(g.n)
    ]


def suffix_edges(parent, target: int, ell: int) -> set:
    """The (min, max) edges of the first `ell` steps from `target` along
    the parent list `parent` (fewer where the chain ends)."""
    out = set()
    v = target
    for _ in range(ell):
        if parent[v] < 0:
            break
        out.add((min(v, parent[v]), max(v, parent[v])))
        v = parent[v]
    return out


def path_is_valid(g, path) -> bool:
    """True when consecutive vertices share an edge and none repeats."""
    edges = {frozenset(e) for e in g.edges}
    steps = zip(path, path[1:])
    return len(set(path)) == len(path) and all(frozenset(s) in edges for s in steps)


def bellman_ford(emulator, root: int) -> list[float]:
    """Weighted single-source distances by relaxing to a fixpoint."""
    n = emulator.n
    dist = [INF] * n
    dist[root] = 0
    edges = [(u, v, w) for (u, v), w in emulator.weights.items()]
    for _ in range(n):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def recount_heavy(g, path, degree_threshold: int) -> int:
    """Heavy vertices on a path, recounted straight from adjacency lengths."""
    return sum(1 for v in path if len(g.adj[v]) >= degree_threshold)


def as_int_grid(dist) -> list[list[int]]:
    """INF -> -1, for comparison against the library's sentinel convention."""
    return [[-1 if d == INF else int(d) for d in row] for row in dist]


def greedy_hub_clustering(g, size: int):
    """The fixed-size greedy clustering by rescanning: while some vertex
    has `size` unclustered neighbors, the minimum-id one becomes the hub of
    its `size` smallest-id unclustered neighbors.  Returns (clusters, hubs,
    kept edges, cluster index per vertex or -1)."""
    n = g.n
    unclustered = [True] * n
    count = [len(g.adj[v]) for v in range(n)]
    cluster_index = [-1] * n
    clusters, hubs, kept = [], [], set()
    while True:
        hub = next((v for v in range(n) if count[v] >= size), None)
        if hub is None:
            break
        members = [w for w in g.adj[hub] if unclustered[w]][:size]
        for w in members:
            unclustered[w] = False
            cluster_index[w] = len(clusters)
            for x in g.adj[w]:
                count[x] -= 1
            kept.add((min(hub, w), max(hub, w)))
        clusters.append(members)
        hubs.append(hub)
    for u, v in g.edges:
        if unclustered[u] or unclustered[v] or cluster_index[u] == cluster_index[v]:
            kept.add((u, v))
    return clusters, hubs, kept, cluster_index
