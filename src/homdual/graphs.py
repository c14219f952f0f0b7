"""Simple undirected graphs over vertex sets 0..n-1, stored as row bitmasks.

Vertex sets are plain Python ints used as bitmasks, which keeps
neighborhood intersections at one machine op per word.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .errors import GraphError


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _mirror(rows: list[int]) -> None:
    """Complete each row, given only its lower part (the bits below its own
    index), with its upper part: one set bit at a time, or by transposing
    the lower triangle in tiles where ``_tiles_pay`` says that is cheaper."""
    n = len(rows)
    edges = sum(map(int.bit_count, rows))
    if _tiles_pay(n, edges):
        _mirror_tiles(rows)
        return
    for j, column in enumerate(rows):  # row j is still its lower part here
        if column:
            bit = 1 << j
            while column:
                low = column & -column
                rows[low.bit_length() - 1] |= bit
                column ^= low


def _tile_bits(n: int) -> int:
    """Side T of the square tiles in which ``_mirror_tiles`` transposes an
    n-vertex graph: the power of two at or above n, from 8 to 256."""
    return min(256, max(8, 1 << (n - 1).bit_length()))


def _tiles_pay(n: int, edges: int) -> bool:
    """Whether ``_mirror_tiles`` beats the per-edge mirror on an n-vertex
    graph: above n^2/(2T) + 4n edges. Its n^2/(2T) strip rows and n
    unpacked rows cost about what one and four edges cost the per-edge
    walk, measured from 9 to 12,000 vertices."""
    T = _tile_bits(n)
    return 2 * T * edges > n * (n + 8 * T)


def _transpose_rounds(T: int) -> list[tuple[int, int]]:
    """(distance, mask) of each round of the mask-swap transpose of a T x T
    bit matrix held as one integer, entry (r, c) at bit rT + c (Warren,
    Hacker's Delight, 7-3). The round of width s swaps the upper right and
    lower left s x s blocks of every 2s x 2s block: its mask marks the
    entries with r & s = 0 and c & s != 0, and each one's partner, entry
    (r + s, c - s), lies s(T - 1) bits above it."""
    rounds = []
    s = T // 2
    while s:
        row = int(("1" * s + "0" * s) * (T // (2 * s)), 2).to_bytes(T // 8, "little")
        mask = (row * s + bytes(T // 8 * s)) * (T // (2 * s))
        rounds.append((s * (T - 1), int.from_bytes(mask, "little")))
        s //= 2
    return rounds


_TRANSPOSE_ROUNDS = {1 << k: _transpose_rounds(1 << k) for k in range(3, 9)}


def _mirror_tiles(rows: list[int]) -> None:
    """Add to each row its upper part, given every row's lower part, by
    transposing the lower triangle in T x T tiles (T = ``_tile_bits(n)``),
    a strip of T columns at a time.

    The strip at column lo packs bits lo..lo+T-1 of rows lo, ..., n-1, T
    bits a row, into whole tiles, and each tile is transposed in place by
    the rounds of ``_transpose_rounds``. Row r of the transposed tile of
    rows lo + JT.. then holds bits lo + JT.. of row lo + r's upper part, so
    row r of every tile, joined, is that upper part from bit lo on. The
    strip's T rows get it at once; later strips read only later rows,
    which are still lower parts.
    """
    n = len(rows)
    T = _tile_bits(n)
    width, area = T // 8, T * T // 8  # bytes of a tile row, of a tile
    rounds, low = _TRANSPOSE_ROUNDS[T], (1 << T) - 1
    for lo in range(0, n, T):
        tiles = -(-(n - lo) // T)
        cut = map(operator.and_, map(operator.rshift, islice(rows, lo, None), repeat(lo)),
                  repeat(low))
        strip = bytearray().join(chain(map(int.to_bytes, cut, repeat(width), repeat("little")),
                                       repeat(bytes(width), tiles * T - (n - lo))))
        for at in range(0, len(strip), area):
            x = int.from_bytes(strip[at:at + area], "little")
            for d, m in rounds:
                t = (x ^ x >> d) & m
                x ^= t ^ t << d
            strip[at:at + area] = x.to_bytes(area, "little")
        # row r of every tile, read from byte r * width on
        row = struct.Struct(f"{width}s{area - width}x" * (tiles - 1) + f"{width}s").unpack_from
        hi = min(lo + T, n)
        joined = map(b"".join, map(row, repeat(strip), range(0, (hi - lo) * width, width)))
        upper = map(operator.lshift, map(int.from_bytes, joined, repeat("little")), repeat(lo))
        rows[lo:hi] = map(operator.or_, rows[lo:hi], upper)


class Graph:
    """Immutable simple graph: ``rows[v]`` is the neighbor bitmask of v."""

    __slots__ = ("n", "rows", "_hash", "_triangles", "_twins")

    def __init__(self, n: int, rows: Sequence[int]):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        rows = tuple(rows)
        if len(rows) != n:
            raise GraphError("row count does not match vertex count")
        for v, row in enumerate(rows):
            if row >> n:  # a negative row shifts to -1
                raise GraphError(f"row {v} has out-of-range neighbors")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        # the rows are symmetric iff they are the mirror of their lower parts;
        # a shift, not a mask, keeps a sparse row's lower part cheap
        mirrored = [row ^ (row >> v << v) for v, row in enumerate(rows)]
        _mirror(mirrored)
        if mirrored != list(rows):
            for v in range(n):
                for u in bits(rows[v]):
                    if not rows[u] >> v & 1:
                        raise GraphError(f"adjacency not symmetric at {{{u},{v}}}")
        self.n = n
        self.rows = rows
        self._hash = hash((n, rows))
        self._triangles = None
        self._twins = None

    @classmethod
    def _symmetric(cls, n: int, rows: Sequence[int], triangles: Optional[int] = None) -> "Graph":
        """``Graph(n, rows)`` without its checks, for rows the library made
        symmetric, loop-free and within 0..n-1; ``triangles`` is the triangle
        mask if the caller knows it, else ``triangle_mask`` finds it."""
        G = cls.__new__(cls)
        G.n, G.rows, G._triangles, G._twins = n, tuple(rows), triangles, None
        G._hash = hash((n, G.rows))
        return G

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def max_degree(self) -> int:
        return max((r.bit_count() for r in self.rows), default=0)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.rows[v] >> (v + 1) << (v + 1)
            for u in bits(row):
                out.append((v, u))
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def triangle_mask(self) -> int:
        """Bitmask of the vertices on a triangle, found on the first call, and
        no part of equality or hashing."""
        if self._triangles is None:
            self._triangles = _triangle_walk(self.rows)
        return self._triangles

    def twin_representatives(self) -> int:
        """Bitmask of the vertices whose row no lower-index vertex shares: the
        lowest vertex of each twin class; computed once, kept on the
        instance, and no part of equality or hashing."""
        if self._twins is None:
            first: dict[int, int] = {}
            for v, row in enumerate(self.rows):
                first.setdefault(row, v)
            self._twins = mask_of(first.values())
        return self._twins

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, rejecting loops and bad endpoints."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop edge ({u},{v}) rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u  # both bits of each edge: the rows are symmetric
    return Graph._symmetric(n, rows)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph._symmetric(n, [full ^ (1 << v) for v in range(n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def empty_graph(n: int) -> Graph:
    return Graph._symmetric(n, [0] * n)


def induced_subgraph(G: Graph, S: int) -> tuple[Graph, list[int]]:
    """Induced subgraph on bitmask ``S``; returns (graph, old-vertex list)."""
    if S & ~G.full_mask:
        raise GraphError("vertex set not within graph")
    verts = list(bits(S))
    index = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in bits(G.rows[v] & S):
            rows[i] |= 1 << index[u]
    return Graph._symmetric(len(verts), rows), verts


def _triangle_walk(rows: Sequence[int], within: Optional[int] = None) -> int:
    """Bitmask of the vertices on a triangle of the graph on ``rows`` (or
    of its subgraph induced by ``within``): v's neighbours in the OR of its
    upper neighbours' rows close triangles with v, and every vertex of a
    triangle is found so from its lowest vertex or the middle one."""
    found = 0
    for v in range(len(rows)) if within is None else bits(within):
        row = rows[v] if within is None else rows[v] & within
        above, u, reach = row >> (v + 1), v, 0
        while above:  # bits(above), inlined and shifting: a hot loop
            step = (above & -above).bit_length()
            u += step
            reach |= rows[u]
            above >>= step
        found |= reach & row
    return found


def connected_components(G: Graph, within: Optional[int] = None) -> list[int]:
    """Vertex masks of the connected components (optionally inside a mask)."""
    rows = G.rows
    remaining = G.full_mask if within is None else within
    comps = []
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            nxt = 0
            while frontier:  # bits(frontier), inlined: this is a hot loop
                low = frontier & -frontier
                nxt |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def is_connected(G: Graph, within: Optional[int] = None) -> bool:
    mask = G.full_mask if within is None else within
    if mask == 0:
        return False
    return connected_components(G, mask)[0] == mask


def is_bipartite(G: Graph, within: Optional[int] = None) -> bool:
    """Whether G (optionally G[within]) has no odd cycle. Per component, an
    edge inside a breadth-first layer closes an odd cycle, and without one
    the layers' parity is a 2-colouring."""
    rows = G.rows
    rest = G.full_mask if within is None else within
    while rest:
        for ring in layers(rows, rest & -rest, rest):
            rest ^= ring
            for v in bits(ring):
                if rows[v] & ring:
                    return False
    return True


def layers(rows: Sequence[int], start: int, within: int, depth: int = -1) -> list[int]:
    """Breadth-first frontier masks from the vertex mask ``start`` inside
    ``within``: layer d holds the vertices at distance d from ``start``, and
    the walk takes at most ``depth`` steps (no limit when negative). The
    layers are disjoint, so their sum is the ball."""
    out = [start]
    seen = frontier = start
    while depth:
        nxt = 0
        while frontier:  # bits(frontier), inlined: this is a hot loop
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        if not frontier:
            break
        out.append(frontier)
        seen |= frontier
        depth -= 1
    return out


@dataclass(frozen=True)
class BallFamily:
    """Pairwise disjoint connected vertex sets of bounded radius: a family
    is refused unless its balls lie in the graph, are pairwise disjoint and
    each is a set of radius at most ``radius_bound``, by the predicate
    ``enumerate_balls`` uses. No ball has a negative radius."""

    graph: Graph
    balls: tuple[int, ...]
    radius_bound: int

    def __post_init__(self):
        G, r, seen = self.graph, self.radius_bound, 0
        for b in self.balls:
            if b >> G.n:
                raise GraphError("ball not within graph")
            if b & seen:
                raise GraphError("balls overlap")
            seen |= b
            if r < 0 or not _radius_at_most(G.rows, b, r, b):  # empty and disconnected fail
                raise GraphError(f"not a ball of radius at most {r}")


def quotient(G: Graph, P: BallFamily) -> Graph:
    """Quotient by the family: one vertex per ball, edges via crossing edges.

    Vertices covered by no ball are dropped.
    """
    if P.graph is not G and P.graph != G:
        raise GraphError("ball family does not belong to this graph")
    owner = [-1] * G.n  # owner[v]: the ball holding v, or -1
    for i, b in enumerate(P.balls):
        for v in bits(b):
            owner[v] = i
    rows = []
    for b in P.balls:
        nb = 0
        for v in bits(b):
            nb |= G.rows[v]
        row = 0
        for w in bits(nb & ~b):
            if owner[w] >= 0:
                row |= 1 << owner[w]
        rows.append(row)
    return Graph._symmetric(len(P.balls), rows)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union, the parts placed one after another in order."""
    total = 0
    rows: list[int] = []
    for g in graphs:
        rows += [row << total for row in g.rows]
        total += g.n
    return Graph._symmetric(total, rows)


def _radius_at_most(rows: Sequence[int], S: int, r: int, centres: int) -> bool:
    """Whether some vertex of S & ``centres`` reaches all of S within r steps
    inside S."""
    rest = S & centres
    while rest:
        low = rest & -rest
        if sum(layers(rows, low, S, r)) == S:
            return True
        rest ^= low
    return False


def enumerate_balls(G: Graph, r: int) -> list[int]:
    """All vertex masks that are balls of radius at most ``r``, in the order
    of a walk over the connected sets: depth first from each start vertex v,
    with the vertices before v banned, a set S is followed by the sets grown
    from S + u for each boundary vertex u in increasing order, and the u
    already tried are banned for the later ones.

    Each set carries its candidate centres, the vertices whose closed r-ball
    in G holds all of it. A centre of a ball S is one, and the candidates
    only shrink as S grows, so the walk drops a set without candidates and
    everything grown from it. A set is a ball when a candidate inside it
    reaches all of it inside it, which at r = 1 it does in one step.
    """
    if r < 0:
        return []
    if r == 0:
        return [1 << v for v in range(G.n)]
    rows = G.rows
    full = G.full_mask
    reach = [sum(layers(rows, 1 << v, full, r)) for v in range(G.n)]
    out = []
    banned = 0
    for v in range(G.n):
        out.append(1 << v)
        # frames: (set, its neighbourhood, boundary vertices left to try,
        # never none, banned, candidate centres)
        todo = rows[v] & ~banned
        stack = [(1 << v, rows[v], todo, banned, reach[v])] if todo else []
        while stack:
            S, near, todo, b, cand = stack.pop()
            low = todo & -todo
            if todo ^ low:
                stack.append((S, near, todo ^ low, b | low, cand))
            u = low.bit_length() - 1
            cand &= reach[u]
            if not cand:
                continue
            S |= low
            near |= rows[u]
            inside = cand & S
            if inside and (r == 1 or _radius_at_most(rows, S, r, inside)):
                out.append(S)
            todo = near & ~S & ~b
            if todo:
                stack.append((S, near, todo, b, cand))
        banned |= 1 << v
    return out
