"""Core graph machinery: immutable unweighted graphs, deterministic BFS
primitives with minimum-id tie-breaking, canonical shortest paths, one
distance core fed from edge sets, and seeded random-graph generation.

A Graph is validated and laid out from one (m, 2) int64 edge array and
keeps its CSR; a Spanner lays its CSR out on first use and keeps it.  `bfs`
is the one Python BFS.  The distance core serves every bulk row.  Hop
rows of a graph or a spanner, over its kept CSR, come from a packed-bitset
BFS (64 sources per uint64 word, level-synchronous); sources whose search
runs past a fixed level cap, and the weighted rows of an emulator, come
from one batched scipy Dijkstra.  scipy is imported at those two Dijkstra
sites only, on first use.  `parent_rows` turns hop rows into rows of
canonical min-id BFS parents, the parents `bfs` and `trace_parent_path`
pick, one neighbor rank at a time over the CSR.

Distances are hop counts, or emulator weights in the weighted matrices;
unreachable is the sentinel ``UNREACHED``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

UNREACHED = -1


class GraphFormatError(ValueError):
    """Malformed edge-list or emulator document."""


def norm_edge(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected unweighted graph on vertices 0..n-1.

    `edges` is an integer ndarray of shape (m, 2) or any iterable of (u, v)
    pairs of integer ids.  An out-of-range id, a self-loop or a repeated
    edge (in either orientation) raises ValueError naming the first such
    pair in input order; a non-integer id raises TypeError and anything but
    pairs ValueError.

    `edges` keeps the (min, max) pairs and `adj` the adjacency lists,
    sorted ascending, both as plain ints with one shared object per vertex
    id.  `csr` is the same adjacency as read-only (indptr, indices) int64
    arrays, the layout `adjacency_csr` gives.  Instances are immutable once
    built and safe to share.
    """

    def __init__(self, n: int, edges: np.ndarray | Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        given = edges if isinstance(edges, (np.ndarray, list)) else list(edges)
        ends = _int_pairs(n, given)
        if len(ends) and (
            ends.min() < 0 or ends.max() >= n or (ends[:, 0] == ends[:, 1]).any()
        ):
            _raise_first_bad(n, ends, given)
        ids = np.fromiter(range(n), object, n)
        self.n = n
        self.csr = indptr, indices = _csr(n, ends)
        nbrs = ids[indices].tolist()
        bounds = indptr.tolist()
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(nbrs[a:b]) for a, b in zip(bounds, bounds[1:])
        )
        del nbrs
        # The edge set goes last: while it is young, every garbage
        # collection that a later allocation in here triggers would scan it.
        u, v = ends.T
        seen = set(zip(ids[np.minimum(u, v)].tolist(), ids[np.maximum(u, v)].tolist()))
        if len(seen) < len(ends):
            _raise_first_bad(n, ends, given)
        self.m = len(seen)
        self.edges: frozenset[tuple[int, int]] = frozenset(seen)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

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


def _int_pairs(n: int, given) -> np.ndarray:
    """The pairs of `given` (a list or an ndarray) as an (m, 2) int64
    array; ids past int64 stay out of range (clamped to -1 or n).  A
    non-integer id raises TypeError, anything but pairs ValueError."""
    if not len(given):
        return np.empty((0, 2), np.int64)
    if isinstance(given, np.ndarray):
        if given.ndim != 2 or given.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if given.dtype.kind in "biu":
            return given.astype(np.int64, copy=False)
    elif set(map(len, given)) != {2}:
        raise ValueError("edges must be (u, v) pairs")
    # operator.index refuses floats, which an int64 array would truncate
    flat = chain.from_iterable(given)
    try:
        ends = np.fromiter(map(operator.index, flat), np.int64, 2 * len(given))
    except OverflowError:
        ends = [max(-1, min(operator.index(x), n)) for x in chain.from_iterable(given)]
    return np.asarray(ends, np.int64).reshape(-1, 2)


def _first_bad(n: int, ends: np.ndarray) -> tuple[int, str]:
    """Index and kind ("range", "loop" or "repeat") of the first pair in
    input order that is out of range, a self-loop or a repeat of an
    earlier pair; the kinds are tried in that order for one pair."""
    out = ((ends < 0) | (ends >= n)).any(axis=1)
    loop = ends[:, 0] == ends[:, 1]
    # out-of-range pairs get distinct negative codes: none repeats another
    lo = np.minimum(ends[:, 0], ends[:, 1])
    code = np.where(out, -1 - np.arange(len(ends)), lo * n + np.maximum(ends[:, 0], ends[:, 1]))
    order = np.argsort(code, kind="stable")
    repeat = np.zeros(len(ends), bool)
    repeat[order[1:]] = code[order[1:]] == code[order[:-1]]
    i = int(np.flatnonzero(out | loop | repeat)[0])
    return i, "range" if out[i] else "loop" if loop[i] else "repeat"


def _raise_first_bad(n: int, ends: np.ndarray, given) -> None:
    """Raise the ValueError of `_first_bad`'s pair, quoting it as given."""
    i, kind = _first_bad(n, ends)
    u, v = given[i]
    if kind == "range":
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    if kind == "loop":
        raise ValueError(f"self-loop at vertex {u}")
    raise ValueError(f"duplicate edge ({u},{v})")


@dataclass(frozen=True)
class Spanner:
    """Edge subset of a host graph plus construction metadata; `csr` is
    the edge set laid out by `adjacency_csr` on first use, then kept."""

    n: int
    edges: frozenset
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def size(self) -> int:
        return len(self.edges)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        return adjacency_csr(self.n, self.edges)


class Emulator:
    """Weighted graph on the host vertex set; edges need not exist in G.

    Weights are positive integers.  Stored as a dict keyed by (min, max)
    vertex pairs of plain ints; parallel entries keep the minimum weight.
    A non-integer id or weight raises TypeError (int() would truncate it).
    """

    def __init__(self, n: int, weighted_edges: Iterable[tuple[int, int, int]]):
        self.n = n
        weights: dict[tuple[int, int], int] = {}
        for u, v, w in weighted_edges:
            u, v, w = operator.index(u), operator.index(v), operator.index(w)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if w < 1:
                raise ValueError(f"non-positive weight {w} on edge ({u},{v})")
            e = norm_edge(u, v)
            prev = weights.get(e)
            if prev is None or w < prev:
                weights[e] = w
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


def _significant_lines(document: str) -> tuple[list[int], list[str]]:
    """Line numbers and stripped text of the lines that are neither blank
    nor '#' comments."""
    stripped = list(map(str.strip, document.splitlines()))
    numbers = [i for i, line in enumerate(stripped, 1) if line and line[0] != "#"]
    return numbers, [stripped[i - 1] for i in numbers]


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
    offending line number.  The edge lines up to the first malformed one
    are read into one int64 array, which `Graph` validates; its first bad
    pair is reported at its line, and a malformed line only when no edge
    before it is bad.
    """
    numbers, lines = _significant_lines(document)
    if not lines:
        raise GraphFormatError("empty document (missing 'p <n> <m>' header)")
    n, m = _parse_header(numbers[0], lines[0], "p")
    ends, malformed = _edge_ids(n, numbers, lines)
    del lines  # not held through the Graph build, where memory peaks
    try:
        g = Graph(n, ends)
    except ValueError:
        i, kind = _first_bad(n, ends)
        u, v = ends[i].tolist()
        raise GraphFormatError(f"line {numbers[i + 1]}: " + (
            f"vertex id out of range [0,{n})" if kind == "range"
            else f"self-loop at vertex {u}" if kind == "loop"
            else f"duplicate edge ({u},{v})"
        )) from None
    if malformed is not None:
        raise malformed
    if g.m != m:
        raise GraphFormatError(f"header declares m={m} but found {g.m} edges")
    return g


def _edge_ids(
    n: int, numbers: list[int], lines: list[str]
) -> tuple[np.ndarray, Optional[GraphFormatError]]:
    """The ids of the edge lines `lines[1:]` before the first malformed one
    as an (m, 2) int64 array, and that line's error (None if there is
    none).  Ids are parsed by `int`; ids past int64 are clamped to -1 or n,
    out of range either way."""
    end = next((i for i in range(1, len(lines)) if len(lines[i].split()) != 2), len(lines))
    error = None
    if end < len(lines):
        error = GraphFormatError(f"line {numbers[end]}: expected '<u> <v>', got {lines[end]!r}")
    tokens = " ".join(lines[1:end]).split()
    try:
        try:
            ids = np.fromiter(map(int, tokens), np.int64, len(tokens))
        except OverflowError:
            ids = np.array([max(-1, min(int(x), n)) for x in tokens], np.int64)
    except ValueError:
        end = next(i for i in range(1, end) if not all(map(_is_int, lines[i].split())))
        error = GraphFormatError(f"line {numbers[end]}: non-integer vertex id")
        ids = _edge_ids(n, numbers, lines[:end])[0]
    return ids.reshape(-1, 2), error


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def dump_graph(g: Graph | Spanner) -> str:
    edges = sorted(g.edges)
    out = [f"p {g.n} {len(edges)}"]
    out.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(out) + "\n"


def load_emulator(document: str) -> Emulator:
    numbers, lines = _significant_lines(document)
    if not lines:
        raise GraphFormatError("empty document (missing 'e <n> <m>' header)")
    n, m = _parse_header(numbers[0], lines[0], "e")
    triples: list[tuple[int, int, int]] = []
    for lineno, line in zip(numbers[1:], lines[1:]):
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

    owner[v] is the nearest root, ties broken by minimum root id.
    parent[v] is the minimum-id neighbor one hop closer to the roots among
    those with the same owner as v (UNREACHED for roots and unreachable
    vertices); with one root that is the minimum-id closer neighbor.
    """

    dist: list[int]
    parent: list[int]
    owner: list[int]


def bfs_distances(g: Graph, roots: Iterable[int]) -> list[int]:
    """Hop distance from the nearest root; UNREACHED where disconnected:
    the `dist` of `bfs`."""
    return bfs(g, roots).dist


def bfs(g: Graph, roots: Iterable[int]) -> BfsResult:
    """Multi-root BFS with canonical parents and minimum-id owners.

    Layer-synchronous: each frontier is scanned in (owner, id) order, so the
    first vertex to reach v is the lexicographic minimum of (owner[w], w)
    over v's closer neighbors w.
    """
    rootlist = sorted(set(roots))
    if not rootlist:
        raise ValueError("root set must be non-empty")
    for r in rootlist:
        if not (0 <= r < g.n):
            raise ValueError(f"root {r} out of range [0,{g.n})")
    dist = [UNREACHED] * g.n
    parent = [UNREACHED] * g.n
    owner = [UNREACHED] * g.n
    for r in rootlist:
        dist[r] = 0
        owner[r] = r
    adj = g.adj
    frontier = rootlist
    d = 0
    while frontier:
        d += 1
        nxt: list[int] = []
        for u in frontier:
            o = owner[u]
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = d
                    parent[v] = u
                    owner[v] = o
                    nxt.append(v)
        nxt.sort()
        nxt.sort(key=owner.__getitem__)  # stable: (owner, id) order
        frontier = nxt
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
    """Owner-to-target path along the canonical parents of `res`; it stays
    within the target's owning root.  None if unreachable."""
    if res.dist[target] < 0:
        return None
    return parent_path(res.parent, target)


def parent_path(parent: Sequence[int], target: int) -> list[int]:
    """The path from the root of `target`'s parent chain to `target`: the
    vertices met by following `parent` until it reads UNREACHED, reversed."""
    path = [target]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# bulk distance matrices (verification fan-out)
# ---------------------------------------------------------------------------


def _check_roots(n: int, sources: Optional[Sequence[int]]) -> np.ndarray:
    """Sources (default: all vertices) as checked int64 ids: numpy would
    wrap -1 to vertex n-1 and truncate a float id, which raises TypeError."""
    if sources is None:
        return np.arange(n)
    roots = np.fromiter(map(operator.index, np.ravel(sources).tolist()), np.int64)
    bad = (roots < 0) | (roots >= n)
    if bad.any():
        raise ValueError(f"root {roots[bad][0]} out of range [0,{n})")
    return roots


def _pair_ends(n: int, ids: Iterable[int], m: int) -> np.ndarray:
    """The m pairs that `ids` lists flat as an (m, 2) int64 array, in range."""
    ends = np.fromiter(ids, np.int64, 2 * m).reshape(-1, 2)
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        raise ValueError(f"edge end out of range [0,{n})")
    return ends


def _csr(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (indptr, indices) of the undirected pairs `ends`, an (m, 2)
    int64 array with ends in [0, n): each pair stored in both directions,
    every neighbor list sorted ascending."""
    keys = np.concatenate([ends[:, 0] * n + ends[:, 1], ends[:, 1] * n + ends[:, 0]])
    keys.sort()
    np.remainder(keys, n, out=keys)
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(ends.ravel(), minlength=n), out=indptr[1:])
    indptr.flags.writeable = keys.flags.writeable = False
    return indptr, keys


def adjacency_csr(n: int, pairs: Collection) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the undirected edge set `pairs` on vertices
    0..n-1: each pair stored in both directions, every neighbor list sorted
    ascending (the sorted adjacency lists of a Graph with these edges, and
    its `csr`).  operator.index refuses float ends, which an int64 array
    would truncate."""
    ids = map(operator.index, chain.from_iterable(pairs))
    return _csr(n, _pair_ends(n, ids, len(pairs)))


def _dijkstra_rows(adj, roots: np.ndarray, directed: bool, unweighted: bool) -> np.ndarray:
    """float64 rows of scipy's Dijkstra from each root over the scipy sparse
    matrix `adj`; UNREACHED where cut off."""
    from scipy.sparse.csgraph import dijkstra

    rows = dijkstra(adj, directed=directed, unweighted=unweighted, indices=roots)
    rows[np.isinf(rows)] = UNREACHED
    return rows


# Roots per bitset block (one bit each, 64 to a uint64 word).  A BFS level
# costs O((n + nnz) * words) however small its frontier, so roots whose
# search goes past _LEVEL_CAP levels take Dijkstra rows instead: on long
# diameters that bounds the wasted levels, and levels stay below 128 so a
# block's rows fit int8.  Rows are written _WRITE_CHUNK vertices at a time.
_ROW_BLOCK = 1024
_LEVEL_CAP = 64
_WRITE_CHUNK = 64


def _unpack(words: np.ndarray, count: int) -> np.ndarray:
    """Per-vertex root bits as a uint8 0/1 matrix, one column per root."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=count, bitorder="little")


def _bfs_rows(csr: tuple[np.ndarray, np.ndarray], roots: np.ndarray, out: np.ndarray) -> None:
    """Fill out[i] with the hop distances from roots[i] (UNREACHED where cut
    off) over the CSR graph.

    Level-synchronous BFS for `_ROW_BLOCK` roots at once: the frontier holds
    one bit per (vertex, root), and a level ORs the frontier words of every
    vertex's neighbors (`bitwise_or.reduceat` over the CSR) and keeps the
    bits not yet seen.  Levels are recorded bit-sliced (plane i gets the new
    bits of every level with bit i set) and unpacked once per block.  Roots
    whose search passes `_LEVEL_CAP` levels get Dijkstra rows instead.
    """
    indptr, indices = csr
    n = len(indptr) - 1
    # frontier row n stays zero, so the last segment ends in range even
    # when trailing vertices are isolated; isolated rows are zeroed after
    gather = np.append(indices, n)
    isolated = np.flatnonzero(indptr[1:] == indptr[:-1])
    for lo in range(0, len(roots), _ROW_BLOCK):
        block = roots[lo:lo + _ROW_BLOCK]
        b = len(block)
        col = np.arange(b)
        packed = np.zeros((n + 1, -(-b // 64) * 8), np.uint8)
        np.bitwise_or.at(packed, (block, col >> 3), np.left_shift(1, col & 7).astype(np.uint8))
        frontier = packed.view(np.uint64)
        new = frontier[:n]
        unseen = ~new
        planes: list[np.ndarray] = []
        deep = np.empty(0, np.int64)
        for level in range(1, _LEVEL_CAP + 2):
            reached = np.bitwise_or.reduceat(frontier.take(gather, axis=0), indptr[:-1], axis=0)
            reached[isolated] = 0
            np.bitwise_and(reached, unseen, out=new)
            if not new.any():
                break
            if level > _LEVEL_CAP:  # roots whose search goes past the cap
                deep = np.flatnonzero(_unpack(np.bitwise_or.reduce(new, axis=0)[None], b)[0])
                break
            unseen ^= new
            if level.bit_length() > len(planes):
                planes.append(np.zeros_like(unseen))
            for i, plane in enumerate(planes):
                if level >> i & 1:
                    plane |= new
        if len(deep) < b:
            dist = _unpack(unseen, b) * np.uint8(255)  # UNREACHED once read as int8
            for i, plane in enumerate(planes):
                dist |= _unpack(plane, b) * np.uint8(1 << i)
            signed, rows = dist.view(np.int8), out[lo:lo + b]
            for v in range(0, n, _WRITE_CHUNK):
                rows[:, v:v + _WRITE_CHUNK] = signed[v:v + _WRITE_CHUNK].T
        if len(deep):
            from scipy.sparse import csr_matrix

            adj = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
            # adj holds both directions of every pair, so directed is exact
            out[lo + deep] = _dijkstra_rows(adj, block[deep], directed=True, unweighted=True)


def parent_rows(csr: tuple[np.ndarray, np.ndarray], dist: np.ndarray) -> np.ndarray:
    """Canonical BFS parents of hop rows: out[i, v] is the minimum-id
    neighbor of v one hop closer to row i's root, the parent that `bfs`
    gives from that one root and the step `trace_parent_path` takes;
    UNREACHED at the root and where the row does not reach.

    `dist` holds exact hop rows over the CSR graph, as `hop_distance_matrix`
    gives them.  Neighbor lists are scanned one rank at a time (every
    vertex's j-th smallest neighbor) over the vertices some row still needs
    a parent for, until every reached vertex but the root has one.  Rows go
    `_ROW_BLOCK` at a time, so temporaries stay near _ROW_BLOCK * n entries.
    Returns an int32 matrix shaped like `dist`.
    """
    indptr, indices = csr
    degree = np.diff(indptr)
    out = np.full(dist.shape, UNREACHED, np.int32)
    for lo in range(0, len(dist), _ROW_BLOCK):
        # vertex-major copy: a rank gathers each neighbor's cells as one row
        dist_t = np.ascontiguousarray(dist[lo:lo + _ROW_BLOCK].T)
        parent = out[lo:lo + _ROW_BLOCK].T
        need = dist_t > 0
        todo = np.flatnonzero(need.any(axis=1))
        need = need[todo]
        want = dist_t[todo] - 1
        for rank in range(int(degree.max(initial=0))):
            live = need.any(axis=1) & (degree[todo] > rank)
            if not live.all():
                todo, need, want = todo[live], need[live], want[live]
            if not len(todo):
                break
            nbr = indices[indptr[todo] + rank]
            hit = need & (dist_t[nbr] == want)
            v, row = np.nonzero(hit)
            parent[todo[v], row] = nbr[v]
            need &= ~hit
    return out


def hop_distance_matrix(
    g: Graph | Spanner, sources: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Hop distances from each source (default: all vertices) over the kept
    `csr` of a Graph or a Spanner, as an int32 matrix from the
    packed-bitset BFS (`_bfs_rows`); UNREACHED where cut off.  Rows follow
    the order of `sources`."""
    roots = _check_roots(g.n, sources)
    out = np.empty((len(roots), g.n), np.int32)
    if len(roots):
        _bfs_rows(g.csr, roots, out)
    return out


def emulator_distance_matrix(h: Emulator, sources: Sequence[int]) -> np.ndarray:
    """Exact weighted distances from each source in an emulator as an int64
    matrix from one batched scipy Dijkstra over a CSR that holds each
    unordered pair once; UNREACHED where cut off.  Rows follow the order of
    `sources`."""
    roots = _check_roots(h.n, sources)
    out = np.empty((len(roots), h.n), np.int64)
    if not len(roots):
        return out
    ends = _pair_ends(h.n, chain.from_iterable(h.weights), len(h.weights))
    data = np.fromiter(h.weights.values(), np.float64, len(ends))
    if data.sum() >= 2.0**53:  # bounds every distance; float64 sums stay exact below it
        raise ValueError("emulator weights too large for exact distances")
    from scipy.sparse import csr_matrix

    adj = csr_matrix((data, (ends[:, 0], ends[:, 1])), shape=(h.n, h.n))
    out[...] = _dijkstra_rows(adj, roots, directed=False, unweighted=False)
    return out


def weighted_sssp(h: Emulator, root: int) -> list[int]:
    """Exact single-source distances in a weighted emulator (UNREACHED if cut
    off): one row of `emulator_distance_matrix`."""
    return emulator_distance_matrix(h, [root])[0].tolist()


# ---------------------------------------------------------------------------
# random graphs
# ---------------------------------------------------------------------------


# Coins per random_graph draw: the draws concatenate to one uniform stream,
# so the edge set does not depend on this size; it bounds the draw buffer.
_COIN_BLOCK = 2**16


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each unordered pair kept independently with probability p.

    Pair (u, v), u < v, is kept when its coin, uniform in [0, 1), is below
    p; the coins of one PCG64 stream seeded by `seed` go to the pairs in
    (u, v) order, drawn `_COIN_BLOCK` at a time."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    # row u holds the coins of pairs (u, v > u); starts[u] is its first coin
    lengths = np.arange(n - 1, 0, -1)
    starts = np.cumsum(lengths) - lengths
    total = n * (n - 1) // 2
    hits = [np.empty(0, np.int64)]
    for lo in range(0, total, _COIN_BLOCK):
        hits.append(lo + np.flatnonzero(rng.random(min(_COIN_BLOCK, total - lo)) < p))
    coin = np.concatenate(hits)
    u = np.searchsorted(starts, coin, side="right") - 1
    return Graph(n, np.stack([u, coin - starts[u] + u + 1], axis=1))
