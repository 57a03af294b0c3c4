"""Core graph machinery: immutable unweighted graphs, deterministic BFS
primitives with minimum-id tie-breaking, canonical shortest paths, one
distance core fed from edge sets, and seeded random-graph generation.

One edge form: a Graph, a Spanner or an Emulator stores only its sorted
int64 edge codes u*n + v (an Emulator with an aligned int64 weight array),
and this module alone encodes and decodes them.  The CSR, an Emulator's
per-weight CSRs and the tuple views `edges` and `weights`, kept only for
external readers such as spanbench's digest, are built on first read.
`bfs` searches level by level over the CSR, with `csr_neighbors`, the one
neighbor-list gather.  The distance core serves every bulk row: one
packed-bitset level loop (64 sources per uint64 word, `_bfs_rows`) gives
the hop rows of a graph or a spanner, over its kept CSR, and the weighted
rows of an emulator, over one CSR per weight.  Only sources whose search
runs past a fixed level cap take rows of `_dijkstra_rows`, one batched
scipy Dijkstra over the same edge codes; scipy is imported there only, on
first use.  `parent_rows` turns hop rows into rows of canonical min-id BFS
parents, the parents `bfs` and `trace_parent_path` pick: the root at
distance 1, and beyond it one neighbor rank at a time over the CSR.
`unique_codes` is the one edge-code dedupe, a sort and a neighbor
comparison.

Distances are hop counts, or emulator weights in the weighted matrices;
unreachable is the sentinel ``UNREACHED``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

UNREACHED = -1


class GraphFormatError(ValueError):
    """Malformed edge-list or emulator document."""


class _CodedEdges:
    """The one stored edge form of a Graph, a Spanner or an Emulator:
    `codes`, sorted read-only int64 edge codes.  `csr` (read-only int64
    indptr and indices, neighbor lists ascending) and `edges` (a frozenset
    of (u, v) plain-int tuples, the one tuple view, kept for spanbench's
    digest) are views built on first read, then kept."""

    def __init__(self, n: int, codes: np.ndarray):
        codes.flags.writeable = False
        self.n, self.codes = n, codes

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        return _csr(self.n, self.codes)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(edge_pairs(self.n, self.codes))

    def __eq__(self, other) -> bool:
        return (
            (isinstance(other, type(self)) or isinstance(self, type(other)))
            and self.n == other.n
            and np.array_equal(self.codes, other.codes)
        )

    def __hash__(self):
        return hash((self.n, self.codes.tobytes()))

    @property
    def size(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, size={self.size})"


class Graph(_CodedEdges):
    """Simple undirected unweighted graph on vertices 0..n-1.

    `edges` is an integer ndarray of shape (m, 2) or any iterable of (u, v)
    pairs of integer ids.  An out-of-range id, a self-loop or a repeated
    edge (in either orientation) raises ValueError naming the first such
    pair in input order; a non-integer id raises TypeError and anything but
    pairs ValueError.  Codes are u*n + v with u < v; `csr` and `edges`
    are views.  Instances are immutable once built and safe to share.
    """

    def __init__(self, n: int, edges: np.ndarray | Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        ends, given = _valid_rows(n, edges, 2)
        codes = np.sort(edge_codes(n, ends[:, 0], ends[:, 1]))
        if (codes[1:] == codes[:-1]).any():
            _raise_first_bad(n, ends, given)
        super().__init__(n, codes)

    @property
    def m(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def edge_codes(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Codes min*n + max of the edges {a[i], b[i]}, ends in [0, n)."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def unique_codes(*parts) -> np.ndarray:
    """The sorted distinct values of the concatenated integer `parts` as a
    fresh int64 array: one sort and one neighbor comparison, the one
    dedupe of edge codes (`np.unique` on numpy 2.4 hashes int64 instead,
    which is several times slower at these sizes)."""
    if not parts:
        return np.empty(0, np.int64)
    codes = np.concatenate(parts, dtype=np.int64, casting="unsafe")
    codes.sort()
    keep = np.empty(len(codes), bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def edge_ends(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """End arrays (u, v) of the sorted `codes`; ValueError if a code lies
    outside [0, n*n), as that of a pair with an end out of range does."""
    if len(codes) and (codes[0] < 0 or codes[-1] >= n * n):
        raise ValueError(f"edge end out of range [0,{n})")
    return np.divmod(codes, n)


def edge_pairs(n: int, codes: np.ndarray) -> list[tuple[int, int]]:
    """The sorted `codes` as (u, v) tuples of plain ints."""
    u, v = edge_ends(n, codes)
    return list(zip(u.tolist(), v.tolist()))


def pair_codes(n: int, pairs) -> np.ndarray:
    """Codes u*n + v of (u, v) `pairs` in the order given, orientation kept:
    a reversed pair or a loop matches no Graph code.  Ends are range-checked
    first, and pair i with an end outside [0, n) takes the code -1 - i.  A
    non-integer end raises TypeError, anything but pairs ValueError."""
    ends = _int_rows(pairs if isinstance(pairs, (np.ndarray, list)) else list(pairs), 2)
    out = ((ends < 0) | (ends >= n)).any(axis=1)
    return np.where(out, -1 - np.arange(len(ends)), ends[:, 0] * n + ends[:, 1])


_INT64_MAX = np.iinfo(np.int64).max


def _int_rows(given, width: int) -> np.ndarray:
    """The rows of `given` (a list or an ndarray), (u, v) pairs for width 2
    and (u, v, w) triples for width 3, as an (m, width) int64 array, with
    entries past int64 clamped by `_int_array`.  A non-integer entry raises
    TypeError, a row of another width ValueError."""
    if not len(given):
        return np.empty((0, width), np.int64)
    if isinstance(given, np.ndarray) and given.ndim == 2 and given.shape[1] == width:
        if np.can_cast(given.dtype, np.int64):
            return given.astype(np.int64, copy=False)
    elif isinstance(given, np.ndarray) or set(map(len, given)) != {width}:
        raise ValueError("edges must be " + ("(u, v) pairs" if width == 2 else "(u, v, w) triples"))
    # operator.index refuses floats, which an int64 array would truncate
    return _int_array(list(chain.from_iterable(given)), operator.index).reshape(-1, width)


def _int_array(tokens: list, convert) -> np.ndarray:
    """`tokens` read by `convert` as an int64 array.  Entries past int64 are
    clamped, never wrapped, to -1 or the int64 maximum: an id stays out of
    range and a weight too large for exact distances."""
    try:
        return np.fromiter(map(convert, tokens), np.int64, len(tokens))
    except OverflowError:
        return np.array([max(-1, min(convert(x), _INT64_MAX)) for x in tokens], np.int64)


def _valid_rows(n: int, edges, width: int) -> tuple[np.ndarray, Sequence]:
    """The rows of `edges` (`_int_rows`) and the list or ndarray they were
    read from.  Raises the ValueError of `_first_bad`'s row if some row has
    an end out of range, is a self-loop or weighs less than 1."""
    given = edges if isinstance(edges, (np.ndarray, list)) else list(edges)
    rows = _int_rows(given, width)
    ends = rows[:, :2]
    if len(rows) and (
        ends.min() < 0 or ends.max() >= n or (ends[:, 0] == ends[:, 1]).any()
        or (rows[:, 2:] < 1).any()
    ):
        _raise_first_bad(n, rows, given)
    return rows, given


def _first_bad(n: int, rows: np.ndarray) -> tuple[int, str]:
    """Index and kind of the first row in input order that is bad: "range"
    (an end out of range), "loop", "weight" (a triple weighing less than 1)
    or "repeat" (a pair repeating an earlier pair; an emulator keeps
    parallel entries).  The kinds are tried in that order for one row."""
    code = pair_codes(n, np.sort(rows[:, :2], axis=1))
    out, loop, light = code < 0, rows[:, 0] == rows[:, 1], (rows[:, 2:] < 1).any(axis=1)
    repeat = np.zeros(len(rows), bool)
    if rows.shape[1] == 2:
        order = np.argsort(code, kind="stable")
        repeat[order[1:]] = code[order[1:]] == code[order[:-1]]
    i = int(np.flatnonzero(out | loop | light | repeat)[0])
    return i, "range" if out[i] else "loop" if loop[i] else "weight" if light[i] else "repeat"


def _raise_first_bad(n: int, rows: np.ndarray, given) -> None:
    """Raise the ValueError of `_first_bad`'s row, quoting it as given."""
    i, kind = _first_bad(n, rows)
    u, v = given[i][:2]
    if kind == "range":
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    if kind == "loop":
        raise ValueError(f"self-loop at vertex {u}")
    if kind == "weight":
        raise ValueError(f"non-positive weight {given[i][2]} on edge ({u},{v})")
    raise ValueError(f"duplicate edge ({u},{v})")


class Spanner(_CodedEdges):
    """Edge subset of a host graph plus construction metadata.

    `edges` is the code array a builder hands over (a 1-D integer ndarray)
    or (u, v) pairs for `pair_codes`, which keeps a hand-built reversed,
    looping or out-of-range pair in a code no host edge has (`is_subgraph`);
    `csr` rejects an out-of-range one.  Equality and hashing ignore `meta`.
    """

    def __init__(self, n: int, edges, meta: Optional[dict] = None):
        if not (isinstance(edges, np.ndarray) and edges.ndim == 1):
            edges = pair_codes(n, edges)
        elif edges.size and edges.dtype.kind not in "iu":
            raise TypeError("edge codes must be integers")
        super().__init__(n, unique_codes(edges))
        self.meta = {} if meta is None else meta


def _member(codes: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Whether each of `query` is one of the sorted `codes`."""
    if not len(codes):
        return np.zeros(len(query), bool)
    return codes[np.minimum(np.searchsorted(codes, query), len(codes) - 1)] == query


def is_subgraph(h: Spanner, g: Graph) -> bool:
    """Whether each code of `h` is one of g's sorted codes."""
    return bool(_member(g.codes, h.codes).all())


def _check_exact(weight: np.ndarray) -> np.ndarray:
    """`weight` as float64; ValueError if its sum, which bounds every
    distance, reaches 2**53, past which float64 sums are not exact."""
    data = weight.astype(np.float64)
    if data.sum() >= 2.0**53:
        raise ValueError("emulator weights too large for exact distances")
    return data


class Emulator(_CodedEdges):
    """Weighted graph on the host vertex set; edges need not exist in G.

    `weighted_edges`, an integer (m, 3) ndarray or (u, v, w) triples, is
    validated as a Graph's pairs are; the first bad triple raises, an end
    out of range before a self-loop before a weight below 1.  Stored as
    `codes` and `weight`, the read-only int64 weights aligned with them;
    parallel entries keep the minimum weight, and a weight past int64 is
    kept as the int64 maximum.  `weight_classes`, the per-weight CSRs that
    distance rows are searched over, and `weights`, a dict of plain ints
    keyed by (u, v) kept for external readers such as spanbench's digest,
    are views built on first read.  Equality and hashing cover the weights.
    """

    def __init__(self, n: int, weighted_edges: np.ndarray | Iterable[tuple[int, int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = _valid_rows(n, weighted_edges, 3)[0]
        codes = edge_codes(n, rows[:, 0], rows[:, 1])
        order = np.lexsort((rows[:, 2], codes))  # by code, the lightest entry first
        first = order[np.diff(codes[order], prepend=-1) != 0]
        super().__init__(n, codes[first])
        self.weight = rows[first, 2]
        self.weight.flags.writeable = False

    @cached_property
    def weights(self) -> dict[tuple[int, int], int]:
        return dict(zip(edge_pairs(self.n, self.codes), self.weight.tolist()))

    @cached_property
    def weight_classes(self) -> tuple[tuple[int, tuple[np.ndarray, np.ndarray]], ...]:
        """The level classes of `_bfs_rows`: (w, CSR of the entries of
        weight w) for each weight w <= the level cap, ascending, then the
        entries heavier than the cap as one class of weight cap + 1.
        ValueError if the weights are too large for exact distances."""
        _check_exact(self.weight)
        group = np.minimum(self.weight, _LEVEL_CAP + 1)
        present = np.flatnonzero(np.bincount(group, minlength=1)).tolist()
        return tuple((w, _csr(self.n, self.codes[group == w])) for w in present)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and np.array_equal(self.weight, other.weight)

    def __hash__(self):
        return hash((self.n, self.codes.tobytes(), self.weight.tobytes()))


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
    """Parse an edge-list document into a Graph (`_load`)."""
    return _load(document, "p", 2, Graph)


def load_emulator(document: str) -> Emulator:
    """Parse an emulator document into an Emulator (`_load`)."""
    return _load(document, "e", 3, Emulator)


def _load(document: str, tag: str, width: int, build):
    """Parse a document with header "<tag> <n> <m>" and body lines of
    `width` integers into `build(n, rows)`.  The body lines up to the first
    malformed one are read into one int64 array (`_edge_ids`), which
    `build` validates; its first bad row (`_first_bad`) is reported at its
    line, and a malformed line only when no row before it is bad."""
    numbers, lines = _significant_lines(document)
    if not lines:
        raise GraphFormatError(f"empty document (missing '{tag} <n> <m>' header)")
    n, m = _parse_header(numbers[0], lines[0], tag)
    rows, malformed = _edge_ids(numbers, lines, width)
    del lines  # not held through the build, where memory peaks
    try:
        out = build(n, rows)
    except ValueError:
        i, kind = _first_bad(n, rows)
        u, v = rows[i, :2].tolist()
        raise GraphFormatError(f"line {numbers[i + 1]}: " + (
            f"vertex id out of range [0,{n})" if kind == "range"
            else f"self-loop at vertex {u}" if kind == "loop"
            else "weight must be >= 1" if kind == "weight"
            else f"duplicate edge ({u},{v})"
        )) from None
    if malformed is not None:
        raise malformed
    if len(rows) != m:
        raise GraphFormatError(f"header declares m={m} but found {len(rows)} edges")
    return out


def _edge_ids(
    numbers: list[int], lines: list[str], width: int
) -> tuple[np.ndarray, Optional[GraphFormatError]]:
    """The fields of the body lines `lines[1:]` before the first malformed
    one as an (m, width) int64 array, and that line's error (None if there
    is none).  Fields are parsed by `int` and clamped past int64 by
    `_int_array`."""
    end = next((i for i in range(1, len(lines)) if len(lines[i].split()) != width), len(lines))
    error = None
    if end < len(lines):
        form = " ".join(("<u>", "<v>", "<w>")[:width])
        error = GraphFormatError(f"line {numbers[end]}: expected '{form}', got {lines[end]!r}")
    try:
        ids = _int_array(" ".join(lines[1:end]).split(), int).reshape(-1, width)
    except ValueError:
        end = next(i for i in range(1, end) if not all(map(_is_int, lines[i].split())))
        field = "vertex id" if width == 2 else "field"
        error = GraphFormatError(f"line {numbers[end]}: non-integer {field}")
        ids = _edge_ids(numbers, lines[:end], width)[0]
    return ids, error


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def dump_graph(g: Graph | Spanner) -> str:
    edges = edge_pairs(g.n, g.codes)
    out = [f"p {g.n} {len(edges)}"]
    out.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(out) + "\n"


def dump_emulator(h: Emulator) -> str:
    u, v = edge_ends(h.n, h.codes)
    out = [f"e {h.n} {h.size}"]
    out.extend(f"{a} {b} {w}" for a, b, w in zip(u.tolist(), v.tolist(), h.weight.tolist()))
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
    """Multi-root BFS with canonical parents and minimum-id owners over the
    kept CSR (`_bfs_arrays`) from the root set (`_check_root_set`): ValueError
    if it is empty or for its smallest root outside [0, n), TypeError for a
    non-integer root."""
    dist, parent, owner = _bfs_arrays(g.csr, np.array(_check_root_set(g.n, roots, "root")))
    return BfsResult(dist.tolist(), parent.tolist(), owner.tolist())


def _bfs_arrays(csr, roots: np.ndarray, depth: Optional[int] = None) -> np.ndarray:
    """(dist, parent, owner) of `bfs` from the sorted distinct `roots` as
    int64 rows, searched `depth` levels deep (None: all the way).

    Level-synchronous, with the frontier in (owner, id) order: a level
    takes the frontier `_ROW_BLOCK` vertices at a time and sorts the
    unreached neighbors a block gathers by (id, frontier rank), so each new
    vertex takes the minimum (owner[w], w) over its closer neighbors w; one
    that an earlier block reached already holds a smaller key.
    """
    dist, parent, owner = out = np.full((3, len(csr[0]) - 1), UNREACHED, np.int64)
    dist[roots] = 0
    owner[roots] = roots
    frontier = roots
    level = 0
    while len(frontier) and level != depth:
        level += 1
        found = [np.empty(0, np.int64)]
        for lo in range(0, len(frontier), _ROW_BLOCK):
            block = frontier[lo:lo + _ROW_BLOCK]
            deg, nbr = csr_neighbors(csr, block)
            rank = np.repeat(np.arange(len(block)), deg)
            code = np.sort((nbr * len(block) + rank)[dist[nbr] < 0])
            v, rank = np.divmod(code, len(block))
            first = np.diff(v, prepend=-1) != 0
            v, up = v[first], block[rank[first]]
            dist[v], parent[v], owner[v] = level, up, owner[up]
            found.append(v)
        v = np.sort(np.concatenate(found))
        frontier = v[np.argsort(owner[v], kind="stable")]
    return out


def csr_neighbors(csr, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The degrees of `vertices` (an int64 array) and their neighbor lists
    concatenated in that order, each list ascending as the CSR keeps it."""
    indptr, indices = csr
    start = indptr[vertices]
    deg = indptr[vertices + 1] - start
    seg = np.cumsum(deg) - deg
    return deg, indices[np.repeat(start - seg, deg) + np.arange(int(deg.sum()))]


def trace_parent_path(g: Graph, dist: Sequence[int], target: int) -> Optional[list[int]]:
    """Walk canonical min-id parents from target down to a root, scanning
    each vertex's ascending neighbor list in the kept CSR (as memoryviews,
    which read out plain ints).

    Returns the root-to-target vertex sequence, or None if unreachable; a
    target outside [0, n) raises ValueError, a non-integer one TypeError.
    """
    target = operator.index(target)
    if not 0 <= target < g.n:
        raise ValueError(f"target {target} out of range [0,{g.n})")
    if dist[target] < 0:
        return None
    indptr, indices = map(memoryview, g.csr)
    path = [target]
    v = target
    while dist[v] > 0:
        d1 = dist[v] - 1
        for w in indices[indptr[v]:indptr[v + 1]]:
            if dist[w] == d1:
                v = w
                break
        path.append(v)
    path.reverse()
    return path


def trace_owner_path(g: Graph, res: BfsResult, target: int) -> Optional[list[int]]:
    """Owner-to-target path along the canonical parents of `res`, within the
    target's owning root; None if unreachable.  A target outside [0, n)
    raises ValueError, a non-integer one TypeError."""
    target = operator.index(target)
    if not 0 <= target < g.n:
        raise ValueError(f"target {target} out of range [0,{g.n})")
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
    """Sources (default: all vertices) as int64 ids in the order given, by the
    one vertex-id rule: operator.index refuses a non-integer id (TypeError), and
    the first id outside [0, n), past int64 too, raises ValueError quoting it."""
    if sources is None:
        return np.arange(n)
    given = sources.ravel().tolist() if isinstance(sources, np.ndarray) else list(sources)
    roots = _int_array(given, operator.index)
    bad = (roots < 0) | (roots >= n)
    if bad.any():
        raise ValueError(f"root {given[int(np.argmax(bad))]} out of range [0,{n})")
    return roots


def _check_root_set(n: int, ids: Iterable[int], what: str) -> list[int]:
    """The sorted distinct `ids` as plain ints, checked by `_check_roots` (so
    the smallest bad id is named); ValueError if there is none."""
    roots = sorted(set(map(operator.index, ids)))
    if not roots:
        raise ValueError(f"{what} set must be non-empty")
    _check_roots(n, roots)
    return roots


def _csr(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (indptr, indices) of the pairs that the sorted edge `codes`
    encode: each pair stored in both directions, every neighbor list sorted
    ascending; ValueError on an end out of range."""
    u, v = edge_ends(n, codes)
    keys = np.concatenate([codes, v * n + u])
    keys.sort()
    np.remainder(keys, n, out=keys)
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(u, minlength=n) + np.bincount(v, minlength=n), out=indptr[1:])
    indptr.flags.writeable = keys.flags.writeable = False
    return indptr, keys


def _dijkstra_rows(n: int, codes: np.ndarray, weight, roots: np.ndarray) -> np.ndarray:
    """float64 rows of scipy's Dijkstra from each root over the undirected
    graph of the sorted edge `codes`, with unit weights when `weight` is
    None; UNREACHED where cut off.  The one place scipy is imported."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    data = np.ones(len(codes)) if weight is None else _check_exact(weight)
    adj = csr_matrix((data, edge_ends(n, codes)), shape=(n, n))
    rows = dijkstra(adj, directed=False, indices=roots)
    rows[np.isinf(rows)] = UNREACHED
    return rows


# Roots per bitset block (one bit each, 64 to a uint64 word).  A level
# costs O((n + nnz) * words) however small its frontier, so roots whose
# search goes past _LEVEL_CAP levels (hops, or emulator weight) take
# Dijkstra rows instead: on long diameters that bounds the wasted levels,
# it bounds the ring of frontiers a weighted search keeps, and levels stay
# below 128 so a block's rows fit int8.  An emulator weight above the cap
# is in no level's weight class; a root that reaches such an edge goes to
# Dijkstra too.  Rows are written _WRITE_CHUNK vertices at a time, and
# `_reach` gathers at most _GATHER_BYTES of frontier rows at once (more
# only for a vertex whose neighbor list alone is larger), so its
# temporary neither grows with m nor leaves the cache.
_ROW_BLOCK = 1024
_LEVEL_CAP = 64
_WRITE_CHUNK = 64
_GATHER_BYTES = 2 * 2**20


def _unpack(words: np.ndarray, count: int) -> np.ndarray:
    """Per-vertex root bits as a uint8 0/1 matrix, one column per root."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=count, bitorder="little")


def _spread(csr: tuple[np.ndarray, np.ndarray], words: int):
    """(ranges, isolated) of a CSR for `_reach` on frontiers of `words`
    uint64 words per vertex.

    Vertex ranges go in order, each the longest run whose neighbor rows fit
    `_GATHER_BYTES`, or one vertex whose list alone does not.  A range
    drops its trailing vertices without an edge, so its last segment ends
    at the end of its gather, and keeps its neighbor ids (a view of the
    CSR's indices) and its segment starts in them.  `isolated` lists the
    vertices without an edge, whose rows `_reach` zeroes."""
    indptr, indices = csr
    n = len(indptr) - 1
    budget = max(1, _GATHER_BYTES // (8 * words))  # gathered rows per range
    ranges, a = [], 0
    while a < n:
        lo = indptr[a]
        b = max(int(np.searchsorted(indptr, lo + budget, side="right")) - 1, a + 1)
        end = int(np.searchsorted(indptr, indptr[b]))  # b, or its first trailing edgeless
        if end > a:
            ranges.append((a, end, indices[lo:indptr[b]], indptr[a:end] - lo))
        a = b
    return ranges, np.flatnonzero(indptr[1:] == indptr[:-1])


def _reach(frontier: np.ndarray, spread) -> np.ndarray:
    """Per vertex the OR of the frontier words of its neighbors in one CSR
    (`_spread`): range by range, `bitwise_or.reduceat` folds the gathered
    neighbor rows into the range's slice of the output."""
    ranges, isolated = spread
    reached = np.empty_like(frontier)
    for a, b, ids, starts in ranges:
        np.bitwise_or.reduceat(frontier.take(ids, axis=0), starts, axis=0, out=reached[a:b])
    reached[isolated] = 0
    return reached


def _bfs_rows(edges: _CodedEdges, sources: Optional[Sequence[int]], dtype) -> np.ndarray:
    """The distances from each source (default: all vertices; `_check_roots`)
    over `edges` as a `dtype` matrix, one row per source in the order given,
    UNREACHED where cut off: hops over the kept CSR of a Graph or a Spanner,
    the one class (1, csr), or weights over an Emulator's `weight_classes`, one
    (w, CSR) per weight w <= `_LEVEL_CAP`, ascending, each CSR holding that
    weight's edges in both directions, and the edges heavier than the cap,
    if any, as one last class of weight _LEVEL_CAP + 1.

    Level-synchronous search for `_ROW_BLOCK` roots at once, in Dial's
    bucket order on bit-parallel frontiers: a frontier holds one bit per
    (vertex, root), and level d ORs, per class w, the frontier words of
    level d - w over that class's CSR (`_reach`, which gathers them in
    vertex ranges of at most `_GATHER_BYTES`) and keeps the bits not yet
    seen.  A ring keeps the frontiers of the last W levels, W the largest
    class weight; the search ends once all of them are empty or every root
    has found every vertex.  Besides the output, a block holds O(n *
    _ROW_BLOCK) bytes, its frontiers, level planes and unpacked rows, and
    `_reach`'s gather of at most `_GATHER_BYTES` or one neighbor list's
    rows: no temporary grows with the edge count.
    Levels are recorded bit-sliced (plane i gets the new bits of every
    level with bit i set) and unpacked once per block.  A root is deep when,
    after `_LEVEL_CAP` levels or when some edge is heavier than that, a
    vertex it found has an edge of any class to one it did not: one more
    level's pass over every class with all found bits.  Deep roots get
    `_dijkstra_rows`; every other unfound vertex is cut off.
    """
    n, roots = edges.n, _check_roots(edges.n, sources)
    out = np.empty((len(roots), n), dtype)
    if not len(roots):
        return out
    weight = edges.weight if isinstance(edges, Emulator) else None
    classes = ((1, edges.csr),) if weight is None else edges.weight_classes
    span = max((w for w, _ in classes if w <= _LEVEL_CAP), default=1)
    heavy = bool(classes) and classes[-1][0] > _LEVEL_CAP
    for lo in range(0, len(roots), _ROW_BLOCK):
        block = roots[lo:lo + _ROW_BLOCK]
        b = len(block)
        spreads = [(w, _spread(c, -(-b // 64))) for w, c in classes]
        col = np.arange(b)
        packed = np.zeros((n, -(-b // 64) * 8), np.uint8)
        np.bitwise_or.at(packed, (block, col >> 3), np.left_shift(1, col & 7).astype(np.uint8))
        # ring[d % span] is the frontier of level d, None if empty
        ring: list[Optional[np.ndarray]] = [None] * span
        ring[0] = packed.view(np.uint64)
        unseen = ~ring[0]
        unseen[:, -1] &= np.uint64(2**64 - 1) >> np.uint64(-b % 64)  # padding: never unseen
        planes: list[np.ndarray] = []
        for level in range(1, _LEVEL_CAP + 1):
            reached = None
            for w, spread in spreads:
                source = ring[(level - w) % span] if w <= _LEVEL_CAP else None
                if source is not None:
                    part = _reach(source, spread)
                    reached = part if reached is None else np.bitwise_or(reached, part, out=reached)
            # the slot of level - span, read above, takes this level's frontier
            frontier, ring[level % span] = ring[level % span], None
            if reached is not None:
                new = np.bitwise_and(reached, unseen, out=frontier)
                if new.any():
                    ring[level % span] = new
                    unseen ^= new
                    while level.bit_length() > len(planes):  # weighted levels may skip
                        planes.append(np.zeros_like(unseen))
                    for i, plane in enumerate(planes):
                        if level >> i & 1:
                            plane |= new
            if all(f is None for f in ring) or not unseen.any():
                break
        deep = np.empty(0, np.int64)
        if (heavy or any(f is not None for f in ring)) and unseen.any():
            seen = ~unseen
            reached = np.zeros_like(unseen)
            for _, spread in spreads:
                reached |= _reach(seen, spread)
            reached &= unseen
            deep = np.flatnonzero(_unpack(np.bitwise_or.reduce(reached, axis=0)[None], b)[0])
        if len(deep) < b:
            dist = _unpack(unseen, b) * np.uint8(255)  # UNREACHED once read as int8
            for i, plane in enumerate(planes):
                dist |= _unpack(plane, b) * np.uint8(1 << i)
            signed, rows = dist.view(np.int8), out[lo:lo + b]
            for v in range(0, n, _WRITE_CHUNK):
                rows[:, v:v + _WRITE_CHUNK] = signed[v:v + _WRITE_CHUNK].T
        if len(deep):
            out[lo + deep] = _dijkstra_rows(n, edges.codes, weight, block[deep])
    return out


def parent_rows(csr: tuple[np.ndarray, np.ndarray], dist: np.ndarray) -> np.ndarray:
    """Canonical BFS parents of hop rows: out[i, v] is the minimum-id
    neighbor of v one hop closer to row i's root, the parent that `bfs`
    gives from that one root and the step `trace_parent_path` takes;
    UNREACHED at the root and where the row does not reach.

    `dist` holds exact hop rows over the CSR graph, as `hop_distance_matrix`
    gives them.  A vertex at distance 1 takes the row's root, its only 0.
    The others scan neighbor lists one rank at a time (every vertex's j-th
    smallest neighbor) over the vertices some row still needs a parent
    for, until every vertex at distance 2 or more has one.  Rows go
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
        np.copyto(parent, np.argmax(dist_t == 0, axis=0), where=dist_t == 1)
        need = dist_t > 1
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


def hop_distance_matrix(g: Graph | Spanner, sources: Optional[Sequence[int]] = None) -> np.ndarray:
    """Hop distances from each source (default: all vertices) over the kept
    `csr` of a Graph or a Spanner, as an int32 matrix from the
    packed-bitset BFS (`_bfs_rows`); UNREACHED where cut off.  Rows follow
    the order of `sources`."""
    return _bfs_rows(g, sources, np.int32)


def emulator_distance_matrix(h: Emulator, sources: Sequence[int]) -> np.ndarray:
    """Exact weighted distances from each source in an emulator as an int64
    matrix; UNREACHED where cut off.  Rows follow the order of `sources`.
    They come from the level kernel (`_bfs_rows`) over the emulator's
    `weight_classes`; roots past the level cap take rows of one batched
    scipy Dijkstra.  ValueError if the weights are too large for exact
    distances and some row is asked for."""
    return _bfs_rows(h, sources, np.int64)


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
