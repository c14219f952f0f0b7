"""Tree-depth with witnesses, grads, orientations and degeneracy."""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .errors import GraphError, InternalCheckError
from .graphs import (
    BallFamily,
    Graph,
    bits,
    connected_components,
    enumerate_balls,
    layers,
    quotient,
)

TD_LIMIT = 16
BALL_FAMILY_LIMIT = 12


@dataclass(frozen=True)
class RootedForest:
    """Parent pointers (None = root) over vertices 0..n-1.

    ``depth[v]`` is the number of vertices on the root-to-v path (roots have
    depth 1), worked out once here; a cycle or a parent outside 0..n-1 is a
    ``GraphError``.
    """

    parent: tuple[Optional[int], ...]
    depth: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.parent)
        depth = [0] * n  # 0: not reached yet, -1: on the chain being walked
        for v in range(n):
            chain = []
            x = v
            while x is not None and depth[x] == 0:
                depth[x] = -1
                chain.append(x)
                x = self.parent[x]
                if x is not None and not 0 <= x < n:
                    raise GraphError(f"parent {x} is not a vertex of 0..{n - 1}")
            if x is not None and depth[x] < 0:
                raise GraphError("parent relation has a cycle")
            d = 0 if x is None else depth[x]
            for y in reversed(chain):
                d += 1
                depth[y] = d
        object.__setattr__(self, "depth", tuple(depth))

    @property
    def n(self) -> int:
        return len(self.parent)

    def height(self) -> int:
        return max(self.depth, default=0)


@dataclass(frozen=True)
class TdCertificate:
    value: int
    forest: RootedForest
    optimal: bool = True


def verify_td(G: Graph, cert: TdCertificate) -> bool:
    """Check the witness has the claimed height and its closure holds G:
    each edge's deeper end, walked up its parent chain by the depth
    difference, lands on the other end. O(m * depth), with no graph built."""
    F = cert.forest
    if F.n != G.n or F.height() != cert.value:
        return False
    parent, depth = F.parent, F.depth
    for u, v in G.edges():
        if depth[u] < depth[v]:
            u, v = v, u
        for _ in range(depth[u] - depth[v]):
            u = parent[u]
        if u != v:
            return False
    return True


def _td_max_edges(n: int, t: int) -> int:
    """Most edges of a graph of tree-depth <= t on n >= t - 1 vertices: it
    lies in a closure of height t, so it is (t - 1)-degenerate."""
    return (t - 1) * n - t * (t - 1) // 2


def tree_depth(G: Graph) -> TdCertificate:
    """Exact tree-depth via the delete-a-vertex recursion, with witness.

    A memoised decision search "td(S) <= k" over connected vertex masks,
    pruned by edge counts; each connected mask's witness root is the first
    vertex v whose deletion leaves tree-depth td(S) - 1. Beyond ``TD_LIMIT``
    vertices a greedy certificate is returned, flagged non-optimal.
    """
    if G.n > TD_LIMIT:
        return _greedy_td(G)
    rows = G.rows
    bounds: dict[int, list[int]] = {}  # S -> [lo, hi, edges], lo <= td(S) <= hi

    def bounds_of(S: int) -> list[int]:
        b = bounds.get(S)
        if b is None:
            n, m, rest = S.bit_count(), 0, S
            while rest:  # bits(S), inlined: this is a hot loop
                low = rest & -rest
                m += (rows[low.bit_length() - 1] & S).bit_count()
                rest ^= low
            m //= 2
            lo = 1
            while _td_max_edges(n, lo) < m:
                lo += 1
            b = bounds[S] = [lo, n, m]
        return b

    def at_most(S: int, k: int) -> bool:
        """td(G[S]) <= k, for a connected nonempty mask S."""
        n = S.bit_count()
        if k >= n:
            return True
        if k < 2:  # S is connected and has an edge
            return False
        b = bounds_of(S)
        if k >= b[1]:
            return True
        if k < b[0]:
            return False
        cap = _td_max_edges(n - 1, k - 1)  # S - v must fit under it
        for v in bits(S):
            if b[2] - (rows[v] & S).bit_count() > cap:
                continue
            known = bounds.get(S ^ (1 << v))  # S - v, if seen as a connected mask
            if known is not None and known[0] >= k:
                continue
            if root_fits(S, v, k):
                b[1] = k
                return True
        b[0] = k + 1
        return False

    def root_fits(S: int, v: int, k: int) -> bool:
        """v can root a forest of height k over the connected mask S."""
        return all(at_most(C, k - 1) for C in connected_components(G, S ^ (1 << v)))

    def td(S: int) -> int:
        b = bounds_of(S)
        if b[0] < b[1]:
            # td(S - v) <= td(S) <= td(S - v) + 1 for any v
            t = max(td(C) for C in connected_components(G, S & (S - 1)))
            b[0], b[1] = max(b[0], t), min(b[1], t + 1)
            at_most(S, b[0])
        return b[1]

    def first_root(S: int) -> int:
        t = td(S)
        return next(v for v in bits(S) if root_fits(S, v, t))

    val = max((td(S) for S in connected_components(G)), default=0)
    return _td_certificate(G, first_root, val)


def _greedy_td(G: Graph) -> TdCertificate:
    """Upper-bound witness: each component is rooted at a vertex of maximum
    degree in it (the lowest such index), flagged non-optimal."""
    rows = G.rows
    return _td_certificate(
        G, lambda S: max(bits(S), key=lambda x: ((rows[x] & S).bit_count(), -x)), None)


def _td_certificate(G: Graph, root: Callable[[int], int], value: Optional[int]) -> TdCertificate:
    """The forest that roots each component S of what is left at ``root(S)``
    and hangs the components of S minus that vertex below it, checked by
    ``verify_td``. ``value`` is the proven tree-depth, or None for an upper
    bound read off the forest's height and flagged non-optimal."""
    parent: list[Optional[int]] = [None] * G.n
    stack: list[tuple[int, Optional[int]]] = [(G.full_mask, None)]
    while stack:
        mask, above = stack.pop()
        for S in connected_components(G, mask):
            v = root(S)
            parent[v] = above
            if S != 1 << v:
                stack.append((S ^ (1 << v), v))
    forest = RootedForest(tuple(parent))
    cert = TdCertificate(forest.height() if value is None else value, forest, value is not None)
    if not verify_td(G, cert):
        raise InternalCheckError("tree-depth witness fails its own check")
    return cert


@functools.lru_cache(maxsize=1 << 16)
def tree_depth_value(G: Graph) -> int:
    """Cached tree-depth value (no witness); desk-scale graphs only."""
    return tree_depth(G).value


@dataclass(frozen=True)
class GradResult:
    value: Fraction
    witness: BallFamily
    exact: bool = True


def grad_r(G: Graph, r: int) -> GradResult:
    """Greatest reduced average density at rank r.

    Exhaustive over all disjoint ball families for n <= BALL_FAMILY_LIMIT:
    a depth-first walk (children add a later ball, in increasing index)
    keeps the first densest family in walk order, counting each family's
    quotient edges as its parent's plus the earlier balls joined to the new
    one. The walk stops once the best density reaches ``_grad_ceiling(G)``,
    which no family exceeds: no later family is then strictly denser, so
    the value and witness are those of the whole walk. Larger graphs get a
    greedy packing lower bound flagged inexact.
    """
    if r < 0:
        raise GraphError(f"rank must be nonnegative (got {r})")
    if G.n > BALL_FAMILY_LIMIT:
        return _grad_greedy(G, r)
    if G.n == 0:
        return GradResult(Fraction(0), BallFamily(G, (), r))
    balls = enumerate_balls(G, r)
    holding = [0] * G.n  # holding[v]: the balls that contain v
    for i, b in enumerate(balls):
        for v in bits(b):
            holding[v] |= 1 << i
    beside = [0] * G.n  # beside[v]: the balls meeting a neighbour of v
    for v, row in enumerate(G.rows):
        for u in bits(row):
            beside[v] |= holding[u]
    # later[i]: the balls after ball i disjoint from it; touch[i]: the balls
    # meeting a neighbour of ball i, which for the balls of a family (all
    # disjoint from ball i) means an edge to it
    full = (1 << len(balls)) - 1
    later, touch = [], []
    for i, b in enumerate(balls):
        meet = joined = 0
        for v in bits(b):
            meet |= holding[v]
            joined |= beside[v]
        later.append((full ^ meet) >> (i + 1) << (i + 1))
        touch.append(joined)
    ceiling = _grad_ceiling(G)
    top_num, top_den = ceiling.numerator, ceiling.denominator
    best_num, best_den, best = 0, 1, 1
    stack = [(full, 0, 0)]  # (balls left to add, family, its edges)
    while stack:
        avail, picked, edges = stack.pop()
        while avail:
            low = avail & -avail
            avail ^= low
            i = low.bit_length() - 1
            fam = picked | low
            gain = edges + (touch[i] & picked).bit_count()
            parts = fam.bit_count()
            if gain * best_den > best_num * parts:
                best_num, best_den, best = gain, parts, fam
                if gain * top_den >= top_num * parts:
                    stack.clear()
                    break
            child = avail & later[i]
            if child:
                # descend first; the remaining siblings wait on the stack
                if avail:
                    stack.append((avail, picked, edges))
                avail, picked, edges = child, fam, gain
    best_fam = tuple(balls[i] for i in bits(best))
    fam = BallFamily(G, best_fam, r)
    value = Fraction(best_num, best_den)
    if value != Fraction(quotient(G, fam).edge_count(), len(best_fam)):
        raise InternalCheckError("grad witness quotient does not attain the value")
    if value > ceiling:
        raise InternalCheckError(f"grad {value} exceeds its ceiling {ceiling}")
    return GradResult(value, fam)


def _grad_ceiling(G: Graph) -> Fraction:
    """An upper bound on the quotient density of every ball family of a
    nonempty G, at every rank: the maximum over t <= n of
    min((t - 1) / 2, (g + t) / t), where g = max |E(W)| - |W| over nonempty
    vertex sets W.

    A quotient on t parts has at most t(t - 1)/2 edges, and at most g + t:
    each quotient edge needs its own edge of G between two parts, and a
    connected part S holds at least |S| - 1 edges inside it, so with W the
    union of the parts, |E(W)| >= q + |W| - t.

    g is the sum of |E(C)| - |C| over the components C of G that hold a
    cycle, or -1 (a single vertex) if G is a forest. Adding to W a vertex
    with a neighbour in W never lowers |E(W)| - |W|, so some best W is a
    union of whole components; one with a cycle adds |E(C)| - |C| >= 0 and
    a tree adds -1.
    """
    excess = [sum(G.rows[v].bit_count() for v in bits(C)) // 2 - C.bit_count()
              for C in connected_components(G)]
    cyclic = [e for e in excess if e >= 0]
    g = sum(cyclic) if cyclic else -1
    num, den = 0, 1
    for t in range(1, G.n + 1):
        a, b = (t - 1, 2) if (t - 1) * t <= 2 * (g + t) else (g + t, t)
        if a * den > num * b:
            num, den = a, b
    return Fraction(num, den)


def _grad_greedy(G: Graph, r: int) -> GradResult:
    """Lower bound: greedy BFS-ball packing around high-degree centers.

    Flagged exact when already proven: the value reaches ``_grad_ceiling``,
    which bounds every rank, or r = 0 and it is the densest-subgraph
    density, which is grad_0 itself.
    """
    order = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
    covered = 0
    balls = []
    for c in order:
        if covered >> c & 1:
            continue
        ball = sum(layers(G.rows, 1 << c, G.full_mask & ~covered, r))
        balls.append(ball)
        covered |= ball
    fam = BallFamily(G, tuple(balls), r)
    q = quotient(G, fam)
    value = Fraction(q.edge_count(), max(len(balls), 1))
    best_sub = _densest_subgraph_mask(G)
    dense = _density(G, best_sub)
    if dense > value:
        # rank-0 density is always a valid rank-r lower bound
        fam = BallFamily(G, tuple(1 << v for v in bits(best_sub)), r)
        value = dense
    return GradResult(value, fam, exact=(r == 0 and value == dense) or value == _grad_ceiling(G))


# --- edge shares, used by the density and orientation routines ---

def _spread(G: Graph, num: int, den: int) -> tuple[list[int], int]:
    """Split each edge's ``den`` units between its two ends so that no vertex
    takes more than ``num``.

    Returns (lower, over): lower[i] is what edge i of ``G.edges()`` sends to
    its lower end. over is 0 when the split succeeds; otherwise it is the
    vertex mask R reached by the last search. R holds every vertex above
    ``num`` and none below, and no edge from outside R sends units into R, so
    den * |E(R)| - num * |R| is the total excess, which no vertex set beats.
    """
    n = G.n
    half = den // 2
    lower: list[int] = []
    load = [0] * n
    inc: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(G.edges()):
        lower.append(half)
        load[u] += half
        load[v] += den - half
        inc[u].append((i, v, True))  # (edge, other end, this end is the lower one)
        inc[v].append((i, u, False))
    while True:
        # one sweep: a BFS from every vertex above num, stepping from x to y
        # along an edge that still sends units into x
        back: list[Optional[tuple[int, int, bool]]] = [None] * n
        seen = [False] * n
        queue = [v for v in range(n) if load[v] > num]
        for v in queue:
            seen[v] = True
        moved = False
        for x in queue:
            for i, y, low in inc[x]:
                if seen[y] or not (lower[i] if low else den - lower[i]):
                    continue
                seen[y] = True
                back[y] = (x, i, low)
                queue.append(y)
                if load[y] >= num:
                    continue
                # move as much as the back path from y to its source allows
                amount, z = num - load[y], y
                while back[z] is not None:
                    z, j, zlow = back[z]
                    amount = min(amount, lower[j] if zlow else den - lower[j])
                amount = min(amount, load[z] - num)
                if amount <= 0:
                    continue
                load[z] -= amount
                load[y] += amount
                z = y
                while back[z] is not None:
                    z, j, zlow = back[z]
                    lower[j] += -amount if zlow else amount
                moved = True
        if not moved:
            return lower, sum(1 << v for v in queue)


def _densest_subgraph_mask(G: Graph) -> int:
    best_mask = 1 if G.n else 0
    num, den = 0, 1
    while True:
        _, S = _spread(G, num, den)
        if not S:
            return best_mask
        e = sum((G.rows[v] & S).bit_count() for v in bits(S)) // 2
        k = S.bit_count()
        if e * den <= num * k:
            raise InternalCheckError(
                f"subgraph of density {e}/{k} does not improve on {num}/{den}")
        num, den, best_mask = e, k, S


def _density(G: Graph, S: int) -> Fraction:
    """|E(G[S])| / |S|, and 0 for the empty set."""
    if S == 0:
        return Fraction(0)
    return Fraction(sum((G.rows[v] & S).bit_count() for v in bits(S)) // 2, S.bit_count())


def grad_0_flow(G: Graph) -> Fraction:
    """Exact maximum subgraph density max |E(H)|/|V(H)|, by Dinkelbach steps
    over edge-share splits."""
    return _density(G, _densest_subgraph_mask(G))


@dataclass(frozen=True)
class Orientation:
    """Each undirected edge directed exactly one way (tail, head) pairs."""

    graph: Graph
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        covered = {frozenset(a) for a in self.arcs}
        expected = {frozenset(e) for e in self.graph.edges()}
        if covered != expected:
            raise GraphError("orientation does not cover the edge set exactly")

    def max_indegree(self) -> int:
        indeg = [0] * self.graph.n
        for _, h in self.arcs:
            indeg[h] += 1
        return max(indeg, default=0)


def min_indegree_orientation(G: Graph) -> tuple[Orientation, int]:
    """Orientation with maximum indegree ceil(grad_0): each edge is one unit
    spread onto its head, with at most that many units per vertex."""
    k = math.ceil(grad_0_flow(G))
    heads, over = _spread(G, k, 1)
    if over:
        raise InternalCheckError(
            f"no orientation with indegree <= {k}: {over.bit_count()} vertices hold too many edges")
    arcs = [(v, u) if share else (u, v) for (u, v), share in zip(G.edges(), heads)]
    orient = Orientation(G, tuple(arcs))
    indegree = orient.max_indegree()
    if indegree != k:
        raise InternalCheckError(f"orientation has max indegree {indegree}, not {k}")
    return orient, indegree


def degeneracy(G: Graph) -> tuple[int, list[int]]:
    """Classic min-degree peeling: (degeneracy, peeling order).

    Each step removes the remaining vertex of least (degree, index), popped
    from a heap of (degree, vertex) entries pushed whenever a degree drops;
    a vertex's older entries hold larger degrees, so they come out only
    after it is gone, and are skipped. The degeneracy is at most
    floor(2 * grad_0); the tests check that bound.
    """
    deg = [G.degree(v) for v in range(G.n)]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    remaining = G.full_mask
    order = []
    d = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if not remaining >> v & 1:
            continue
        d = max(d, dv)
        order.append(v)
        remaining ^= 1 << v
        for u in bits(G.rows[v] & remaining):
            deg[u] -= 1
            heapq.heappush(heap, (deg[u], u))
    return d, order


def expansion_profile(G: Graph, r_max: int) -> list[Fraction]:
    """Per-graph grad measurements for ranks 0..r_max (nondecreasing).

    Exact ranks must already be nondecreasing. An inexact (greedy) rank
    keeps the running maximum instead, since a rank-(r-1) ball family is
    also a rank-r family.
    """
    profile: list[Fraction] = []
    best: Optional[GradResult] = None
    for r in range(r_max + 1):
        res = grad_r(G, r)
        if best is not None and best.value > res.value:
            if res.exact:
                raise InternalCheckError("expansion profile must be nondecreasing")
            res = GradResult(best.value, BallFamily(G, best.witness.balls, r), exact=False)
        best = res
        profile.append(res.value)
    return profile
