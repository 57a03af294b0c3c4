"""Core graph machinery: immutable unweighted graphs, deterministic BFS
primitives with minimum-id tie-breaking, canonical shortest paths, batched
scipy distance matrices (hop counts, and weighted Dijkstra rows for
emulators), and seeded random-graph generation.

Distances are hop counts, or emulator weights in the weighted matrices;
unreachable is the sentinel ``UNREACHED``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sparse_dijkstra

UNREACHED = -1


class GraphFormatError(ValueError):
    """Malformed edge-list or emulator document."""


def norm_edge(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected unweighted graph on vertices 0..n-1.

    Adjacency lists are kept sorted ascending; no self-loops, no parallel
    edges.  Instances are immutable once built and safe to share.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = norm_edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(e)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in adj
        )
        self.m = len(seen)
        self.edges: frozenset[tuple[int, int]] = frozenset(seen)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def subgraph(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on the same vertex set keeping only the given edges."""
        kept = [norm_edge(u, v) for u, v in edges]
        for e in kept:
            if e not in self.edges:
                raise ValueError(f"edge {e} not present in host graph")
        return Graph(self.n, kept)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Spanner:
    """Edge subset of a host graph plus construction metadata."""

    n: int
    edges: frozenset
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def size(self) -> int:
        return len(self.edges)

    def subgraph(self) -> Graph:
        return Graph(self.n, self.edges)


class Emulator:
    """Weighted graph on the host vertex set; edges need not exist in G.

    Weights are positive integers.  Stored as a dict keyed by (min, max)
    vertex pairs; parallel entries keep the minimum weight.
    """

    def __init__(self, n: int, weighted_edges: Iterable[tuple[int, int, int]]):
        self.n = n
        weights: dict[tuple[int, int], int] = {}
        for u, v, w in weighted_edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if w < 1:
                raise ValueError(f"non-positive weight {w} on edge ({u},{v})")
            e = norm_edge(u, v)
            prev = weights.get(e)
            if prev is None or w < prev:
                weights[e] = int(w)
        self.weights = weights

    @property
    def size(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return f"Emulator(n={self.n}, size={self.size})"


# ---------------------------------------------------------------------------
# edge-list documents
#
# graph:    '#' comments, header "p <n> <m>", then m lines "<u> <v>"
# emulator: '#' comments, header "e <n> <m>", then m lines "<u> <v> <w>"
# ---------------------------------------------------------------------------


def _significant_lines(document: str):
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_header(lineno: int, line: str, tag: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 3 or parts[0] != tag:
        raise GraphFormatError(
            f"line {lineno}: expected header '{tag} <n> <m>', got {line!r}"
        )
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-integer header fields") from None
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {lineno}: negative counts in header")
    return n, m


def load_graph(document: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Rejects self-loops, duplicate edges and out-of-range ids, reporting the
    offending line number.
    """
    lines = _significant_lines(document)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise GraphFormatError("empty document (missing 'p <n> <m>' header)") from None
    n, m = _parse_header(lineno, line, "p")

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected '<u> <v>', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: vertex id out of range [0,{n})")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        e = norm_edge(u, v)
        if e in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add(e)
        edges.append(e)
    if len(edges) != m:
        raise GraphFormatError(f"header declares m={m} but found {len(edges)} edges")
    return Graph(n, edges)


def dump_graph(g: Graph | Spanner) -> str:
    edges = sorted(g.edges)
    out = [f"p {g.n} {len(edges)}"]
    out.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(out) + "\n"


def load_emulator(document: str) -> Emulator:
    lines = _significant_lines(document)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise GraphFormatError("empty document (missing 'e <n> <m>' header)") from None
    n, m = _parse_header(lineno, line, "e")
    triples: list[tuple[int, int, int]] = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected '<u> <v> <w>', got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer field") from None
        if w < 1:
            raise GraphFormatError(f"line {lineno}: weight must be >= 1")
        triples.append((u, v, w))
    if len(triples) != m:
        raise GraphFormatError(f"header declares m={m} but found {len(triples)} edges")
    try:
        return Emulator(n, triples)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def dump_emulator(h: Emulator) -> str:
    items = sorted(h.weights.items())
    out = [f"e {h.n} {len(items)}"]
    out.extend(f"{u} {v} {w}" for (u, v), w in items)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# BFS with deterministic tie-breaking
# ---------------------------------------------------------------------------


@dataclass
class BfsResult:
    """Distances plus canonical parents and owning roots.

    parent[v] is the minimum-id neighbor one hop closer to the roots
    (UNREACHED for roots and unreachable vertices).  owner[v] is the nearest
    root, ties broken by minimum root id.
    """

    dist: list[int]
    parent: list[int]
    owner: list[int]


def bfs_distances(g: Graph, roots: Iterable[int]) -> list[int]:
    """Hop distance from the nearest root; UNREACHED where disconnected."""
    rootlist = sorted(set(roots))
    if not rootlist:
        raise ValueError("root set must be non-empty")
    dist = [UNREACHED] * g.n
    queue = deque()
    for r in rootlist:
        if not (0 <= r < g.n):
            raise ValueError(f"root {r} out of range [0,{g.n})")
        dist[r] = 0
        queue.append(r)
    adj = g.adj
    while queue:
        u = queue.popleft()
        d1 = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = d1
                queue.append(v)
    return dist


def bfs(g: Graph, roots: Iterable[int]) -> BfsResult:
    """Multi-root BFS with canonical parents and minimum-id owners."""
    rootlist = sorted(set(roots))
    dist = bfs_distances(g, rootlist)
    parent = [UNREACHED] * g.n
    owner = [UNREACHED] * g.n
    for r in rootlist:
        owner[r] = r

    # Bucket vertices by distance so owners propagate layer by layer.
    maxd = max(dist)
    layers: list[list[int]] = [[] for _ in range(maxd + 1)]
    for v in range(g.n):
        if dist[v] > 0:
            layers[dist[v]].append(v)
    adj = g.adj
    for d in range(1, maxd + 1):
        for v in layers[d]:
            best_parent = UNREACHED
            best_owner = g.n
            for w in adj[v]:
                if dist[w] == d - 1:
                    if best_parent < 0:
                        best_parent = w  # adjacency sorted: first hit is min id
                    if owner[w] < best_owner:
                        best_owner = owner[w]
            parent[v] = best_parent
            owner[v] = best_owner
    return BfsResult(dist, parent, owner)


def trace_parent_path(g: Graph, dist: Sequence[int], target: int) -> Optional[list[int]]:
    """Walk canonical min-id parents from target down to a root.

    Returns the root-to-target vertex sequence, or None if unreachable.
    """
    if dist[target] < 0:
        return None
    path = [target]
    v = target
    while dist[v] > 0:
        d1 = dist[v] - 1
        for w in g.adj[v]:
            if dist[w] == d1:
                v = w
                break
        path.append(v)
    path.reverse()
    return path


def trace_owner_path(g: Graph, res: BfsResult, target: int) -> Optional[list[int]]:
    """Like trace_parent_path but stays within the target's owning root."""
    if res.dist[target] < 0:
        return None
    dist, owner = res.dist, res.owner
    path = [target]
    v = target
    root = owner[target]
    while dist[v] > 0:
        d1 = dist[v] - 1
        for w in g.adj[v]:
            if dist[w] == d1 and owner[w] == root:
                v = w
                break
        else:
            raise RuntimeError("owner-consistent descent failed (internal bug)")
        path.append(v)
    path.reverse()
    return path


def canonical_path(g: Graph, u: int, v: int) -> Optional[list[int]]:
    """A reproducible shortest u-v path (min-id BFS parents); None if disconnected."""
    dist = bfs_distances(g, [u])
    return trace_parent_path(g, dist, v)


def path_is_valid(g: Graph, path: Sequence[int]) -> bool:
    """True when consecutive vertices are adjacent and none repeats."""
    if len(set(path)) != len(path):
        return False
    return all(g.has_edge(a, b) for a, b in zip(path, path[1:]))


# ---------------------------------------------------------------------------
# bulk distance matrices (verification fan-out)
# ---------------------------------------------------------------------------


def _check_roots(n: int, sources: Sequence[int]) -> np.ndarray:
    """Sources as an int64 index array; scipy would wrap -1 to vertex n-1."""
    roots = np.asarray(sources, dtype=np.int64).reshape(-1)
    bad = (roots < 0) | (roots >= n)
    if bad.any():
        raise ValueError(f"root {roots[bad][0]} out of range [0,{n})")
    return roots


def to_csr(g: Graph) -> csr_matrix:
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    for v in range(g.n):
        indptr[v + 1] = indptr[v] + len(g.adj[v])
    indices = np.fromiter(
        (w for v in range(g.n) for w in g.adj[v]), dtype=np.int64, count=int(indptr[-1])
    )
    data = np.ones(len(indices), dtype=np.int8)
    return csr_matrix((data, indices, indptr), shape=(g.n, g.n))


def hop_distance_matrix(g: Graph, sources: Optional[Sequence[int]] = None) -> np.ndarray:
    """Hop distances from each source (default: all vertices) as an int matrix.

    Unreachable entries are UNREACHED.  Rows follow the order of `sources`.
    """
    if g.n == 0:
        return np.zeros((0, 0), dtype=np.int32)
    if sources is not None and len(sources) == 0:
        return np.zeros((0, g.n), dtype=np.int32)
    indices = None if sources is None else _check_roots(g.n, sources)
    dmat = _sparse_dijkstra(to_csr(g), directed=False, unweighted=True, indices=indices)
    dmat = np.atleast_2d(dmat)
    out = np.where(np.isfinite(dmat), dmat, UNREACHED).astype(np.int32)
    return out


def emulator_distance_matrix(h: Emulator, sources: Sequence[int]) -> np.ndarray:
    """Exact weighted distances from each source in an emulator as an int
    matrix, from one batched scipy Dijkstra over a CSR that holds each
    unordered pair once.  Unreachable entries are UNREACHED.  Rows follow
    the order of `sources`."""
    roots = _check_roots(h.n, sources)
    if len(roots) == 0:
        return np.zeros((0, h.n), dtype=np.int64)
    ends = np.fromiter(
        (x for pair in h.weights for x in pair), dtype=np.int64, count=2 * h.size
    ).reshape(-1, 2)
    weights = np.fromiter(h.weights.values(), dtype=np.float64, count=h.size)
    if weights.sum() >= 2.0**53:  # bounds every distance; float64 sums stay exact below it
        raise ValueError("emulator weights too large for exact distances")
    csr = csr_matrix((weights, (ends[:, 0], ends[:, 1])), shape=(h.n, h.n))
    dmat = np.atleast_2d(_sparse_dijkstra(csr, directed=False, indices=roots))
    return np.where(np.isfinite(dmat), dmat, UNREACHED).astype(np.int64)


def weighted_sssp(h: Emulator, root: int) -> list[int]:
    """Exact single-source distances in a weighted emulator (UNREACHED if cut
    off): one row of `emulator_distance_matrix`."""
    return emulator_distance_matrix(h, [root])[0].tolist()


# ---------------------------------------------------------------------------
# random graphs
# ---------------------------------------------------------------------------


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each unordered pair kept independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for u in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - u) < p)
        edges.extend((u, u + 1 + int(i)) for i in hits)
    return Graph(n, edges)
