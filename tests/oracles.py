"""Independent brute-force oracles.

Everything here is deliberately naive: exhaustive enumeration with no
pruning, sharing no search code with the library, so the two can
cross-check each other on desk-scale inputs.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from homdual.graphs import Graph, bits


def brute_homomorphisms(G: Graph, H: Graph) -> list[tuple[int, ...]]:
    """Every homomorphism image tuple, in lexicographic order, by exhaustive
    map enumeration."""
    edges = G.edges()
    return [img for img in itertools.product(range(H.n), repeat=G.n)
            if all(H.has_edge(img[u], img[v]) for u, v in edges)]


def brute_homomorphism(G: Graph, H: Graph):
    """First homomorphism image tuple by exhaustive map enumeration, or None."""
    if G.n == 0:
        return ()
    if H.n == 0:
        return None
    edges = G.edges()
    for img in itertools.product(range(H.n), repeat=G.n):
        if all(H.has_edge(img[u], img[v]) for u, v in edges):
            return img
    return None


def brute_max_clique(G: Graph, mask: int) -> int:
    """The maximum clique of G[mask] as a bitmask, the largest by value among
    those of maximum size, by checking every vertex subset of the mask."""
    verts = list(bits(mask))
    cliques = [sum(1 << v for v in S)
               for k in range(len(verts) + 1) for S in itertools.combinations(verts, k)
               if all(G.has_edge(a, b) for a, b in itertools.combinations(S, 2))]
    return max(cliques, key=lambda m: (m.bit_count(), m))


def brute_triangle_mask(G: Graph) -> int:
    """Vertices on a triangle, by checking every vertex triple."""
    mask = 0
    for a, b, c in itertools.combinations(range(G.n), 3):
        if G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(a, c):
            mask |= 1 << a | 1 << b | 1 << c
    return mask


def brute_twin_representatives(G: Graph) -> int:
    """Vertices whose neighbourhood no lower-index vertex shares, comparing
    neighbourhoods vertex by vertex."""
    def nbhd(v: int) -> list[int]:
        return [w for w in range(G.n) if G.has_edge(v, w)]

    mask = 0
    for v in range(G.n):
        if all(nbhd(u) != nbhd(v) for u in range(v)):
            mask |= 1 << v
    return mask


def edge_triangle_mask(G: Graph) -> int:
    """Vertices on a triangle, edge by edge: an edge uv whose ends share a
    neighbour lies on a triangle with each common neighbour, so u, v and
    those neighbours go in. O(m) row intersections, no triangle walk."""
    mask = 0
    for u, row in enumerate(G.rows):
        for v in bits(row >> (u + 1) << (u + 1)):
            common = row & G.rows[v]
            if common:
                mask |= 1 << u | 1 << v | common
    return mask


def matches_checked_constructor(G: Graph) -> bool:
    """Whether a graph a builder took on trust is the one the checked
    constructor makes from its rows: the same rows and hash, and a triangle
    mask that ``edge_triangle_mask`` finds on those rows."""
    C = Graph(G.n, G.rows)
    return G.rows == C.rows and hash(G) == hash(C) and G.triangle_mask() == edge_triangle_mask(C)


def naive_graph6(G: Graph) -> str:
    """graph6 written straight from the format's definition (sizes up to
    258,047 vertices): the bits of the pairs (i, j), i < j, column j by
    column j and i ascending within one, padded to a multiple of six and
    cut into six-bit characters, most significant bit first."""
    n = G.n
    head = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    # column j: bit i of row j for i = 0..j-1, lowest i first
    stream = "".join(format(G.rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    stream += "0" * (-len(stream) % 6)
    body = [int(stream[k:k + 6], 2) for k in range(0, len(stream), 6)]
    return "".join(chr(63 + x) for x in head + body)


def naive_mirror(lower: list[int]) -> list[int]:
    """The rows of the symmetric graph whose row j holds bits i < j as in
    ``lower``: bit j of row i is set for each such bit, one pair at a time."""
    rows = list(lower)
    for j in range(len(lower)):
        for i in range(j):
            if lower[j] >> i & 1:
                rows[i] |= 1 << j
    return rows


# The per-line edge-list reader, as the library had it before it decoded
# runs of plain lines in bulk; it returns (n, rows) and raises these three
# stand-ins, named as the library's exceptions, so it shares no code with it.
EDGE_LIST_ORDER_CAP = 100_000


class ParseError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at {offset})")
        self.offset = offset


class SizeLimitError(Exception):
    pass


class GraphError(Exception):
    pass


def per_line_edge_list(text: str) -> tuple[int, list[int]]:
    """Lines "u v"; an optional first line "n <count>" fixes the order,
    read one line at a time."""
    n = None
    rows: list[int] = []
    outside = None
    beyond = 0  # order asked for by endpoints at or above the cap
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "n":
            if n is not None or rows or beyond:
                raise ParseError(f"line {lineno}: stray size header", lineno)
            try:  # int() also refuses more digits than its conversion limit
                if len(parts) != 2 or not parts[1].isdecimal():
                    raise ValueError
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed size header", lineno) from None
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer endpoint", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative endpoint", lineno)
        if u == v:
            raise ParseError(f"line {lineno}: loop edge {u} {v}", lineno)
        top = u if u > v else v
        if n is not None and top >= n:
            outside = outside or (u, v)
            continue
        if top >= len(rows):
            if top >= EDGE_LIST_ORDER_CAP:
                beyond = max(beyond, top + 1)
                continue
            rows.extend([0] * (top + 1 - len(rows)))
        rows[u] |= 1 << v
        rows[v] |= 1 << u  # both bits of each edge: the rows are symmetric
    order = n if n is not None else max(len(rows), beyond)
    if order > EDGE_LIST_ORDER_CAP:
        raise SizeLimitError(f"edge list order {order} exceeds cap {EDGE_LIST_ORDER_CAP}")
    if outside:
        u, v = outside
        raise GraphError(f"edge ({u},{v}) out of range for n={n}")
    if n is not None:
        rows.extend([0] * (n - len(rows)))
    return len(rows), rows


@lru_cache(maxsize=8)
def all_rooted_forests(n: int) -> list[tuple[tuple, int, int]]:
    """(parent tuple, height, closure edge bitmask) for every rooted forest
    on 0..n-1.

    Forests are parent arrays, enumerated with -1 marking a root and
    returned with None there. Closure edges are indexed as u * n + v for
    u < v. Cached because enumerating (n+1)^n arrays is the slow part and
    every graph on n vertices reuses the same list.
    """
    out = []
    for parent in itertools.product(range(-1, n), repeat=n):
        depth = [0] * n
        ok = True
        ancestors = [()] * n
        for v in range(n):
            chain = []
            u = v
            while parent[u] != -1:
                u = parent[u]
                chain.append(u)
                if len(chain) > n:
                    ok = False
                    break
            if not ok:
                break
            depth[v] = len(chain) + 1
            ancestors[v] = tuple(chain)
        if not ok:
            continue
        closure = 0
        for v in range(n):
            for u in ancestors[v]:
                a, b = min(u, v), max(u, v)
                closure |= 1 << (a * n + b)
        out.append((tuple(None if p == -1 else p for p in parent), max(depth, default=0), closure))
    return out


@lru_cache(maxsize=8)
def _forests_by_parent(n: int) -> dict[tuple, tuple[int, int]]:
    return {parent: (height, closure) for parent, height, closure in all_rooted_forests(n)}


def brute_verify_td(G: Graph, parent: tuple, value: int):
    """None if ``parent`` is no rooted forest on 0..n-1 (a cycle, or a parent
    out of range); otherwise whether the forest has height ``value`` and its
    closure holds every edge of G."""
    n = G.n
    found = _forests_by_parent(n).get(tuple(parent))
    if found is None:
        return None
    height, closure = found
    return height == value and _edge_bits(G) & ~closure == 0


def _edge_bits(G: Graph) -> int:
    """The edges of G in the closure bitmask indexing of ``all_rooted_forests``."""
    need = 0
    for u, v in G.edges():
        a, b = min(u, v), max(u, v)
        need |= 1 << (a * G.n + b)
    return need


def brute_tree_depth(G: Graph) -> int:
    """Minimum closure-forest height, by scanning every rooted forest."""
    n = G.n
    if n == 0:
        return 0
    need = _edge_bits(G)
    best = n
    for _, height, closure in all_rooted_forests(n):
        if need & ~closure == 0 and height < best:
            best = height
    return best


def plain_tree_depth(G: Graph) -> tuple[int, tuple]:
    """(value, parent tuple) by the unpruned delete-a-vertex recursion over
    every vertex subset: a disconnected set takes the maximum over its
    components, a connected one 1 + min over v of td(S - v), rooted at the
    first minimising v. Exponential; for up to about 12 vertices."""
    def components(S: int) -> list[int]:
        comps, rest = [], S
        while rest:
            comp = rest & -rest
            grown = True
            while grown:
                grown = False
                for v in range(G.n):
                    if rest >> v & 1 and not comp >> v & 1 and G.rows[v] & comp:
                        comp |= 1 << v
                        grown = True
            comps.append(comp)
            rest &= ~comp
        return comps

    @lru_cache(maxsize=None)
    def td(S: int) -> tuple[int, int]:
        """(tree-depth, root) of a connected S; root -1 for one vertex."""
        if S & (S - 1) == 0:
            return 1, -1
        best = None
        for v in range(G.n):
            if S >> v & 1:
                t = 1 + max((td(C)[0] for C in components(S & ~(1 << v))), default=0)
                if best is None or t < best[0]:
                    best = (t, v)
        return best

    parent = [None] * G.n

    def build(S: int, above) -> None:
        for C in components(S):
            root = td(C)[1]
            if root < 0:
                parent[C.bit_length() - 1] = above
            else:
                parent[root] = above
                build(C & ~(1 << root), root)

    build((1 << G.n) - 1, None)
    return max((td(C)[0] for C in components((1 << G.n) - 1)), default=0), tuple(parent)


def brute_densest(G: Graph) -> Fraction:
    """max |E(G[S])| / |S| over nonempty S, 0 on the empty graph."""
    best = Fraction(0)
    for S in range(1, 1 << G.n):
        edges = 0
        for v in bits(S):
            edges += (G.rows[v] & S).bit_count()
        edges //= 2
        best = max(best, Fraction(edges, S.bit_count()))
    return best


def brute_max_excess(G: Graph, num: int, den: int) -> tuple[int, int]:
    """max of den * |E(G[S])| - num * |S| over all vertex sets S (the empty
    set gives 0), and the intersection of the sets attaining it."""
    best, common = 0, 0
    for S in range(1 << G.n):
        edges = 0
        for v in bits(S):
            edges += (G.rows[v] & S).bit_count()
        excess = den * (edges // 2) - num * S.bit_count()
        if excess > best:
            best, common = excess, S
        elif excess == best:
            common &= S
    return best, common


def brute_degeneracy(G: Graph) -> tuple[int, list[int]]:
    """Min-degree peeling by rescanning every remaining vertex at each step;
    ties go to the lower index."""
    remaining = set(range(G.n))
    order, d = [], 0
    while remaining:
        v = min(remaining, key=lambda x: (sum(1 for u in remaining if G.has_edge(x, u)), x))
        d = max(d, sum(1 for u in remaining if G.has_edge(v, u)))
        order.append(v)
        remaining.remove(v)
    return d, order


def brute_greedy_balls(G: Graph, r: int) -> list[int]:
    """Greedy packing of radius-r balls: centres by descending degree, then
    index; each ball is grown by plain BFS among the vertices not yet
    covered."""
    covered: set[int] = set()
    balls = []
    for c in sorted(range(G.n), key=lambda v: (-G.degree(v), v)):
        if c in covered:
            continue
        dist = {c: 0}
        queue = [c]
        for x in queue:
            if dist[x] == r:
                continue
            for y in range(G.n):
                if G.has_edge(x, y) and y not in covered and y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        balls.append(sum(1 << v for v in dist))
        covered |= set(dist)
    return balls


def brute_chromatic(G: Graph) -> int:
    """Smallest k admitting a proper coloring, by trying every assignment."""
    if G.n == 0:
        return 0
    for k in range(1, G.n + 1):
        for colors in itertools.product(range(k), repeat=G.n):
            if all(colors[u] != colors[v] for u, v in G.edges()):
                return k
    raise AssertionError("unreachable: n colors always suffice")


def brute_distances(G: Graph, source: int, within: int) -> dict[int, int]:
    """Distance from ``source`` to each vertex it reaches inside the mask
    ``within``, by a queue of vertices and a dict of distances."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in range(G.n):
            if within >> v & 1 and v not in dist and G.has_edge(u, v):
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def brute_odd_girth(G: Graph):
    """Length of the shortest odd closed walk, which is the shortest odd
    cycle, read off the diagonals of the boolean adjacency powers A^k for
    k = 1..n; math.inf if none has a closed walk."""
    n = G.n
    A = [[G.has_edge(u, v) for v in range(n)] for u in range(n)]
    power = A
    for k in range(1, n + 1):
        if k % 2 and any(power[v][v] for v in range(n)):
            return k
        step = [[False] * n for _ in range(n)]  # A^(k+1) = A^k A
        for u in range(n):
            for w in range(n):
                if power[u][w]:
                    for v in range(n):
                        if A[w][v]:
                            step[u][v] = True
        power = step
    return math.inf


def brute_is_connected_subset(G: Graph, S: int) -> bool:
    """Connectivity of G[S] by naive closure from the lowest vertex."""
    if S == 0:
        return False
    verts = list(bits(S))
    reach = {verts[0]}
    changed = True
    while changed:
        changed = False
        for v in verts:
            if v in reach:
                continue
            if any(G.has_edge(v, u) for u in reach):
                reach.add(v)
                changed = True
    return len(reach) == len(verts)


def enumerate_connected_sets(G: Graph) -> Iterator[int]:
    """All nonempty vertex masks inducing connected subgraphs, each once, in
    the order of ``enumerate_balls``' walk, which filters this one.

    Depth first from each start vertex v, with the vertices before v banned:
    a set S is followed by the sets grown from S + u for each boundary vertex
    u in increasing order, and the u already tried are banned for the later
    ones.
    """
    rows = G.rows
    banned = 0
    for v in range(G.n):
        S = 1 << v
        yield S
        # frames: (set, its neighbourhood, boundary vertices left to try, banned)
        stack = [(S, rows[v], rows[v] & ~S & ~banned, banned)]
        while stack:
            S, near, todo, b = stack.pop()
            if not todo:
                continue
            low = todo & -todo
            stack.append((S, near, todo ^ low, b | low))
            S |= low
            near |= rows[low.bit_length() - 1]
            yield S
            stack.append((S, near, near & ~S & ~b, b))
        banned |= 1 << v


def brute_p_centered(G: Graph, colors, p: int):
    """(True, None), or (False, S) for the first vertex mask S, in increasing
    order, that is connected, has fewer than p colors and no color used
    exactly once: the centered condition checked on every vertex subset."""
    for S in range(1, 1 << G.n):
        counts: dict[int, int] = {}
        for v in range(G.n):
            if S >> v & 1:
                counts[colors[v]] = counts.get(colors[v], 0) + 1
        if len(counts) < p and 1 not in counts.values() \
                and brute_is_connected_subset(G, S):
            return False, S
    return True, None


def brute_grad(G: Graph, r: int) -> Fraction:
    """Rank-r grad: max quotient density over every family of pairwise
    disjoint balls, with balls found by testing every vertex subset for a
    center within distance r inside it (breadth-first search)."""
    def ecc_at_most(S: list[int], c: int) -> bool:
        dist = {c: 0}
        queue = [c]
        for u in queue:
            for v in S:
                if v not in dist and G.has_edge(u, v):
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return len(dist) == len(S) and max(dist.values()) <= r

    balls = []
    for S in range(1, 1 << G.n):
        verts = [v for v in range(G.n) if S >> v & 1]
        if any(ecc_at_most(verts, c) for c in verts):
            balls.append(verts)

    def joined(a: list[int], b: list[int]) -> bool:
        return any(G.has_edge(u, v) for u in a for v in b)

    best = Fraction(0)

    def extend(start: int, family: list[list[int]]) -> None:
        nonlocal best
        if family:
            edges = sum(joined(a, b) for a, b in itertools.combinations(family, 2))
            best = max(best, Fraction(edges, len(family)))
        for k in range(start, len(balls)):
            if all(not set(balls[k]) & set(b) for b in family):
                extend(k + 1, family + [balls[k]])

    extend(0, [])
    return best


def brute_truncated_power(U: Graph, H: Graph, p: int) -> list[int]:
    """Rows of the p-truncated H-power of U, straight from the definition.

    A vertex is (v, x): a template vertex v and one base vertex per p-subset
    through v, subsets in lexicographic order. Vertices are numbered v-major,
    the tuples x in lexicographic order. (v, x) ~ (w, y) iff v ~ w in H and,
    at every subset holding both v and w, x and y name adjacent base
    vertices; so y ranges over a product of neighbour lists.
    """
    subsets = list(itertools.combinations(range(H.n), p))
    through = [[I for I in subsets if v in I] for v in range(H.n)]
    vertices = [(v, x) for v in range(H.n)
                for x in itertools.product(range(U.n), repeat=len(through[v]))]
    index = {vx: z for z, vx in enumerate(vertices)}
    rows = [0] * len(vertices)
    for z, (v, x) in enumerate(vertices):
        for w in range(H.n):
            if not H.rows[v] >> w & 1:
                continue
            choices = []
            for I in through[w]:
                if v in I:
                    a = x[through[v].index(I)]
                    choices.append([b for b in range(U.n) if U.rows[a] >> b & 1])
                else:
                    choices.append(range(U.n))
            for y in itertools.product(*choices):
                rows[z] |= 1 << index[(w, y)]
    return rows


def brute_core(G: Graph) -> Graph:
    """A smallest induced subgraph that G maps into, trying vertex subsets
    by size, then lexicographically, with ``brute_homomorphism``; G itself
    when it has none."""
    for size in range(1, G.n + 1):
        for subset in itertools.combinations(range(G.n), size):
            rows = [sum(1 << i for i, u in enumerate(subset) if G.has_edge(v, u))
                    for v in subset]
            sub = Graph(size, rows)
            if brute_homomorphism(G, sub) is not None:
                return sub
    return G


def brute_exact_power(G: Graph, p: int) -> list[int]:
    """Rows of the exact p-power: x ~ y iff some sequence of p - 1 distinct
    vertices, other than x and y, walks from x to y along edges."""
    rows = [0] * G.n
    for x in range(G.n):
        for y in range(G.n):
            if x == y:
                continue
            others = [v for v in range(G.n) if v not in (x, y)]
            for middle in itertools.permutations(others, p - 1):
                walk = (x, *middle, y)
                if all(G.has_edge(a, b) for a, b in zip(walk, walk[1:])):
                    rows[x] |= 1 << y
                    break
    return rows


@lru_cache(maxsize=None)
def _forest_tree_depth(n: int, rows: tuple[int, ...]) -> int:
    return brute_tree_depth(Graph(n, rows))


def brute_low_td_violation(G: Graph, colors, p: int):
    """The first (classes, component mask, tree-depth) where i <= p color
    classes induce a component of tree-depth above i, or None: class sets
    by size and then lexicographically, components by lowest vertex, each
    component's tree-depth by the rooted-forest scan."""
    k = max(colors, default=-1) + 1
    for i in range(1, min(p, k) + 1):
        for classes in itertools.combinations(range(k), i):
            rest = [v for v in range(G.n) if colors[v] in classes]
            while rest:
                comp = [rest[0]]
                for v in comp:  # grows while it is read: a breadth-first closure
                    comp += [u for u in rest if u not in comp and G.has_edge(u, v)]
                comp.sort()
                rest = [v for v in rest if v not in comp]
                rows = tuple(sum(1 << j for j, u in enumerate(comp) if G.has_edge(u, v))
                             for v in comp)
                td = _forest_tree_depth(len(comp), rows)
                if td > i:
                    return classes, sum(1 << v for v in comp), td
    return None


def brute_low_td_coloring(G: Graph, p: int):
    """The first color tuple with no low tree-depth violation, over k = 1,
    2, ... and, for each k, lexicographically over all k^n tuples that use
    exactly the colors 0..k-1 in order of first appearance."""
    for k in range(1, G.n + 1):
        for colors in itertools.product(range(k), repeat=G.n):
            if list(dict.fromkeys(colors)) == list(range(k)) \
                    and brute_low_td_violation(G, colors, p) is None:
                return colors
    return ()
