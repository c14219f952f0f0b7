"""Simple undirected graphs over vertex sets 0..n-1, stored as row bitmasks.

Vertex sets are plain Python ints used as bitmasks, which keeps
neighborhood intersections at one machine op per word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import GraphError

BALL_FAMILY_LIMIT = 12


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


class Graph:
    """Immutable simple graph: ``rows[v]`` is the neighbor bitmask of v."""

    __slots__ = ("n", "rows", "_hash", "_triangles", "_twins")

    def __init__(self, n: int, rows: Sequence[int]):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        rows = tuple(rows)
        if len(rows) != n:
            raise GraphError("row count does not match vertex count")
        # one walk over each vertex's upper neighbours keeps the AND and the
        # OR of their rows. v lies in the AND iff every upper bit has its
        # mirror, and the bits split evenly between upper and lower triangle,
        # so then every lower bit is a mirror too. The OR gives the triangle
        # mask as in ``_triangle_walk``. No test here costs n bits for a
        # sparse row: range by a shift, and the AND starts from the first
        # upper neighbour's row. build_graph, parse_edge_list, parse_graph6
        # and truncated_power set both bits of each edge themselves, each
        # saying why where it does, and skip this walk through _symmetric.
        total = upper = triangles = 0
        symmetric = True
        for v, row in enumerate(rows):
            if row >> n:  # a negative row shifts to -1
                raise GraphError(f"row {v} has out-of-range neighbors")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
            total += row.bit_count()
            above = row >> (v + 1)
            if not above:
                continue
            upper += above.bit_count()
            step = (above & -above).bit_length()
            u = v + step
            meet = reach = rows[u]
            above >>= step
            while above:  # bits(above), inlined and shifting: a hot loop
                step = (above & -above).bit_length()
                u += step
                near = rows[u]
                meet &= near
                reach |= near
                above >>= step
            if not meet >> v & 1:
                symmetric = False
            triangles |= reach & row
        if not symmetric or 2 * upper != total:
            for v in range(n):
                for u in bits(rows[v]):
                    if not rows[u] >> v & 1:
                        raise GraphError(f"adjacency not symmetric at {{{u},{v}}}")
        self.n = n
        self.rows = rows
        self._hash = hash((n, rows))
        self._triangles = triangles
        self._twins = None

    @classmethod
    def _symmetric(cls, n: int, rows: Sequence[int], triangles: Optional[int] = None) -> "Graph":
        """``Graph(n, rows)`` without its walk, for rows the caller made
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
        """Bitmask of the vertices on a triangle, found by the constructor's
        walk or on the first call, and no part of equality or hashing."""
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
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


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
    return Graph(len(verts), rows), verts


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
    """Pairwise disjoint connected vertex sets of bounded radius."""

    graph: Graph
    balls: tuple[int, ...]
    radius_bound: int

    def __post_init__(self):
        validate_ball_family(self.graph, self.balls, self.radius_bound)


def validate_ball_family(G: Graph, balls: Sequence[int], r: int) -> None:
    """Refuse a family unless its balls lie in G, are pairwise disjoint and
    each is a set of radius at most r, by the predicate ``enumerate_balls``
    uses. No ball has a negative radius."""
    seen = 0
    for b in balls:
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
    return Graph(len(P.balls), rows)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union, the parts placed one after another in order."""
    total = 0
    rows: list[int] = []
    for g in graphs:
        rows += [row << total for row in g.rows]
        total += g.n
    return Graph(total, rows)


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


def _disjoint_later(G: Graph, balls: Sequence[int]) -> tuple[list[int], list[int]]:
    """(holding, later) for a walk over families of disjoint balls:
    holding[v] is the bitset of the indices of the balls that contain vertex
    v, and later[i] that of the balls after ball i disjoint from it."""
    holding = [0] * G.n
    for i, b in enumerate(balls):
        for v in bits(b):
            holding[v] |= 1 << i
    full = (1 << len(balls)) - 1
    later = []
    for i, b in enumerate(balls):
        meet = 0
        for v in bits(b):
            meet |= holding[v]
        later.append((full ^ meet) >> (i + 1) << (i + 1))
    return holding, later
