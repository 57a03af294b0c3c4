"""Randomized level clustering (sampled centers, radius-bounded BFS forests,
escape edges for freshly unclustered vertices), each level one array search
and one neighbor gather over the host's CSR, and the greedy fixed-size
clustering with hub stars used by the additive constructions.  Both keep
their edge sets as sorted int64 edge codes (`graphs.edge_codes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .graphs import (
    _ROW_BLOCK,
    UNREACHED,
    Graph,
    _bfs_arrays,
    csr_neighbors,
    edge_codes,
    edge_ends,
    unique_codes,
)
from .util import ceil_int, subrng


@dataclass
class ClusterLevel:
    """One clustering level: centers, vertex assignment, spanning forest,
    the vertices that just dropped out, and their escape edges (both edge
    sets as sorted edge codes)."""

    tau: int
    centers: list[int]
    assignment: list[int]      # assigned center id, or UNREACHED
    center_dist: list[int]     # hop distance to the assigned center
    forest: np.ndarray
    delta: list[int]
    q_edges: np.ndarray

    def clusters(self) -> dict[int, list[int]]:
        """center -> sorted member list (members include the center)."""
        out: dict[int, list[int]] = {z: [] for z in self.centers}
        for u, z in enumerate(self.assignment):
            if z >= 0:
                out[z].append(u)
        return out


@dataclass
class ClusterSequence:
    """The k+1 clustering levels plus the accumulated partial spanner (as
    sorted edge codes)."""

    k: int
    mu: float
    seed: int
    n: int
    levels: list[ClusterLevel]
    spanner_edges: np.ndarray

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
    none = np.empty(0, np.int64)
    levels = [ClusterLevel(0, list(range(n)), list(range(n)), [0] * n, none, [], none)]
    kept = [none]
    prev_centers = list(range(n))
    prev_assignment = np.arange(n)
    in_all_prev = np.ones(n, bool)
    sample_prob = float(n) ** (-mu) if n > 0 else 0.0
    force_empty_last = mu * k >= 1.0 - 1e-12

    for tau in range(1, k + 1):
        if force_empty_last and tau == k:
            centers: list[int] = []
        else:
            rng = subrng(seed, "center-sample", tau)
            keep = rng.random(len(prev_centers)) < sample_prob
            centers = [z for z, kept in zip(prev_centers, keep) if kept]

        # every center's search stops at tau hops: farther vertices stay out
        dist, parent, assignment = _bfs_arrays(g.csr, np.array(centers, np.int64), tau)
        child = np.flatnonzero(dist > 0)  # the canonical parent shares its owner
        forest = np.sort(edge_codes(n, child, parent[child]))

        delta = np.flatnonzero(in_all_prev & (assignment < 0))
        # one escape edge per (vertex, adjacent previous cluster): the first
        # neighbor in the ascending list, the cluster's min-id adjacent member;
        # _ROW_BLOCK vertices per gather bound the temporaries
        q_edges = [none]
        for lo in range(0, len(delta), _ROW_BLOCK):
            deg, nbr = csr_neighbors(g.csr, delta[lo:lo + _ROW_BLOCK])
            v, c = np.repeat(delta[lo:lo + _ROW_BLOCK], deg), prev_assignment[nbr]
            near = c >= 0
            v, u = v[near], nbr[near]
            first = np.unique(v * n + c[near], return_index=True)[1]
            q_edges.append(edge_codes(n, v[first], u[first]))
        q_edges = unique_codes(*q_edges)

        kept += [forest, q_edges]
        levels.append(ClusterLevel(
            tau, centers, assignment.tolist(), dist.tolist(), forest, delta.tolist(), q_edges
        ))
        in_all_prev &= assignment >= 0
        prev_centers = centers
        prev_assignment = assignment

    spanner = unique_codes(*kept)
    return ClusterSequence(k=k, mu=mu, seed=seed, n=n, levels=levels, spanner_edges=spanner)


@dataclass
class HubClustering:
    """Disjoint fixed-size clusters with hub vertices plus the kept subgraph
    (`g_c`, sorted edge codes).

    Every cluster member is adjacent (in the host graph) to its hub, so any
    two members are at distance <= 2 inside the kept subgraph; every edge not
    kept has both endpoints clustered, in two different clusters.
    """

    gamma: float
    size: int
    clusters: list[list[int]]
    hubs: list[int]
    g_c: np.ndarray
    cluster_index: list[int]   # cluster id per vertex, or UNREACHED
    # derived member-ordered columns: cluster i is members[starts[i]:starts[i + 1]]
    members: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = [len(c) for c in self.clusters]
        self.members = np.fromiter(chain.from_iterable(self.clusters), np.int64, sum(sizes))
        self.starts = np.cumsum([0] + sizes[:-1])


def hub_clustering(g: Graph, gamma: float) -> HubClustering:
    """Greedy clustering: while some vertex has ceil(n**gamma) unclustered
    neighbors, the minimum-id such vertex becomes the hub of a new cluster
    made of its ceil(n**gamma) smallest-id unclustered neighbors.  The kept
    subgraph holds all hub stars, every edge with an unclustered endpoint,
    and every intra-cluster edge.  Reads the host's CSR and edge codes.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    n = g.n
    size = max(1, ceil_int(float(n) ** gamma)) if n > 0 else 1
    indptr, indices = g.csr
    bounds, nbrs = indptr.tolist(), indices.tolist()
    count = [b - a for a, b in zip(bounds, bounds[1:])]  # unclustered neighbors
    cluster_index = [UNREACHED] * n
    clusters: list[list[int]] = []
    hubs: list[int] = []

    # counts only fall, so a vertex passed over never qualifies later
    for hub in range(n):
        while count[hub] >= size:
            members = [w for w in nbrs[bounds[hub]:bounds[hub + 1]] if cluster_index[w] < 0][:size]
            cid = len(clusters)
            for w in members:
                cluster_index[w] = cid
                for x in nbrs[bounds[w]:bounds[w + 1]]:
                    count[x] -= 1
            clusters.append(members)
            hubs.append(hub)

    index = np.array(cluster_index, np.int64)
    u, v = edge_ends(n, g.codes)
    inside = (index[u] < 0) | (index[v] < 0) | (index[u] == index[v])
    member = np.flatnonzero(index >= 0)
    stars = edge_codes(n, np.array(hubs, np.int64)[index[member]], member)
    return HubClustering(
        gamma=gamma,
        size=size,
        clusters=clusters,
        hubs=hubs,
        g_c=unique_codes(g.codes[inside], stars),
        cluster_index=cluster_index,
    )
