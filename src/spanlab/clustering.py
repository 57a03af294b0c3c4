"""Randomized level clustering (sampled centers, radius-bounded BFS forests,
escape edges for freshly unclustered vertices) and the greedy fixed-size
clustering with hub stars used by the additive constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import UNREACHED, Graph, bfs, norm_edge
from .util import ceil_int, subrng


@dataclass
class ClusterLevel:
    """One clustering level: centers, vertex assignment, spanning forest,
    the vertices that just dropped out, and their escape edges."""

    tau: int
    centers: list[int]
    assignment: list[int]      # assigned center id, or UNREACHED
    center_dist: list[int]     # hop distance to the assigned center
    forest: set
    delta: list[int]
    q_edges: set

    def clusters(self) -> dict[int, list[int]]:
        """center -> sorted member list (members include the center)."""
        out: dict[int, list[int]] = {z: [] for z in self.centers}
        for u, z in enumerate(self.assignment):
            if z >= 0:
                out[z].append(u)
        return out


@dataclass
class ClusterSequence:
    """The k+1 clustering levels plus the accumulated partial spanner."""

    k: int
    mu: float
    seed: int
    n: int
    levels: list[ClusterLevel]
    spanner_edges: set

    def centers_at(self, tau: int) -> list[int]:
        return self.levels[tau].centers

    def clusters_at(self, tau: int) -> dict[int, list[int]]:
        return self.levels[tau].clusters()


def cluster_sequence(g: Graph, k: int, mu: float, seed: int) -> ClusterSequence:
    """Build the k+1 level clusterings and the partial spanner they induce.

    Level 0 is every vertex as its own singleton cluster.  At level tau the
    surviving centers are an independent thinning of the previous ones with
    per-vertex probability n**-mu; when mu*k >= 1 the final sample is forced
    empty so every remaining vertex takes escape edges (which is what makes
    the accumulated subgraph a (2k-1)-spanner at mu = 1/k).  Each clustered
    vertex joins its nearest surviving center (minimum id on ties) when that
    center is within tau hops; the per-cluster BFS forest edges are kept.  A
    vertex clustered at all previous levels but not the current one
    contributes one edge to every adjacent previous-level cluster, toward the
    minimum-id adjacent member.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.n
    level0 = ClusterLevel(
        tau=0,
        centers=list(range(n)),
        assignment=list(range(n)),
        center_dist=[0] * n,
        forest=set(),
        delta=[],
        q_edges=set(),
    )
    levels = [level0]
    spanner: set = set()
    prev_centers = list(range(n))
    prev_assignment = level0.assignment
    in_all_prev = [True] * n
    sample_prob = float(n) ** (-mu) if n > 0 else 0.0
    force_empty_last = mu * k >= 1.0 - 1e-12

    for tau in range(1, k + 1):
        if force_empty_last and tau == k:
            centers: list[int] = []
        else:
            rng = subrng(seed, "center-sample", tau)
            keep = rng.random(len(prev_centers)) < sample_prob
            centers = [z for z, kept in zip(prev_centers, keep) if kept]

        assignment = [UNREACHED] * n
        center_dist = [UNREACHED] * n
        forest: set = set()
        if centers:
            res = bfs(g, centers)
            for u in range(n):
                d = res.dist[u]
                if 0 <= d <= tau:
                    assignment[u] = res.owner[u]
                    center_dist[u] = d
                    if d >= 1:  # the canonical parent shares u's owner
                        forest.add(norm_edge(u, res.parent[u]))

        delta = [u for u in range(n) if in_all_prev[u] and assignment[u] < 0]
        q_edges: set = set()
        for v in delta:
            picked: set[int] = set()
            for u in g.adj[v]:
                c = prev_assignment[u]
                if c >= 0 and c not in picked:
                    picked.add(c)
                    q_edges.add(norm_edge(v, u))

        spanner |= forest
        spanner |= q_edges
        levels.append(
            ClusterLevel(tau, centers, assignment, center_dist, forest, delta, q_edges)
        )
        for u in range(n):
            if assignment[u] < 0:
                in_all_prev[u] = False
        prev_centers = centers
        prev_assignment = assignment

    return ClusterSequence(k=k, mu=mu, seed=seed, n=n, levels=levels, spanner_edges=spanner)


@dataclass
class HubClustering:
    """Disjoint fixed-size clusters with hub vertices plus the kept subgraph.

    Every cluster member is adjacent (in the host graph) to its hub, so any
    two members are at distance <= 2 inside the kept subgraph; every edge not
    kept has both endpoints clustered, in two different clusters.
    """

    gamma: float
    size: int
    clusters: list[list[int]]
    hubs: list[int]
    g_c: set
    cluster_index: list[int]   # cluster id per vertex, or UNREACHED


def hub_clustering(g: Graph, gamma: float) -> HubClustering:
    """Greedy clustering: while some vertex has ceil(n**gamma) unclustered
    neighbors, the minimum-id such vertex becomes the hub of a new cluster
    made of its ceil(n**gamma) smallest-id unclustered neighbors.  The kept
    subgraph holds all hub stars, every edge with an unclustered endpoint,
    and every intra-cluster edge.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    n = g.n
    size = max(1, ceil_int(float(n) ** gamma)) if n > 0 else 1
    unclustered = [True] * n
    count = [g.degree(v) for v in range(n)]
    cluster_index = [UNREACHED] * n
    clusters: list[list[int]] = []
    hubs: list[int] = []
    g_c: set = set()

    while True:
        hub = next((v for v in range(n) if count[v] >= size), None)
        if hub is None:
            break
        members = [w for w in g.adj[hub] if unclustered[w]][:size]
        cid = len(clusters)
        for w in members:
            unclustered[w] = False
            cluster_index[w] = cid
            for x in g.adj[w]:
                count[x] -= 1
            g_c.add(norm_edge(hub, w))
        clusters.append(members)
        hubs.append(hub)

    for u, v in g.edges:
        if unclustered[u] or unclustered[v]:
            g_c.add(norm_edge(u, v))
        elif cluster_index[u] == cluster_index[v]:
            g_c.add(norm_edge(u, v))

    return HubClustering(
        gamma=gamma,
        size=size,
        clusters=clusters,
        hubs=hubs,
        g_c=g_c,
        cluster_index=cluster_index,
    )
