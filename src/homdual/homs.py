"""Homomorphism search, cores, hom-equivalence and isomorphism tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .errors import GraphError, SizeLimitError
from .graphs import Graph, _triangle_walk, bits, induced_subgraph

PRESENT = "present"
ABSENT = "absent"


@dataclass(frozen=True)
class VertexMap:
    """A total map V(source) -> V(target)."""

    source: Graph
    target: Graph
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.source.n:
            raise GraphError(f"{len(self.image)} images for {self.source.n} vertices")
        if not all(0 <= a < self.target.n for a in self.image):
            raise GraphError(f"an image lies outside 0..{self.target.n - 1}")


def check_homomorphism(f: VertexMap) -> bool:
    """True iff every edge of the source maps to an edge of the target."""
    G, H, img = f.source, f.target, f.image
    for u, v in G.edges():
        if not H.has_edge(img[u], img[v]):
            return False
    return True


@dataclass(frozen=True)
class HomResult:
    """Search outcome: a map, or none."""

    status: str  # PRESENT | ABSENT
    map: Optional[VertexMap] = None

    @property
    def present(self) -> bool:
        return self.status == PRESENT


def _max_clique_mask(G: Graph, within: int) -> int:
    """Maximum clique (bitmask) of G[within]: exact up to 16 vertices (the
    numerically largest one), greedy above."""
    rows = G.rows
    if within.bit_count() > 16:
        degs = [(row & within).bit_count() for row in rows]
        start = max(bits(within), key=lambda v: (degs[v], -v))
        clique = 1 << start
        while True:
            cand = within & ~clique
            for v in bits(clique):
                cand &= rows[v]
            if not cand:
                return clique
            clique |= 1 << max(bits(cand), key=lambda v: (degs[v], -v))
    best = 0
    stack = [(0, within)]  # branch and bound: take the top vertex, then skip it
    while stack:
        clique, cand = stack.pop()
        if clique.bit_count() + cand.bit_count() <= best.bit_count():
            continue
        if not cand:
            best = clique
            continue
        v = cand.bit_length() - 1
        stack.append((clique, cand & ~(1 << v)))
        stack.append((clique | (1 << v), cand & rows[v]))
    return best


def _search_order(G: Graph, clique: int, within: int) -> list[int]:
    """Deterministic assignment order of the vertices of ``within`` for
    ``_search``: the vertices of ``clique`` first, then BFS by descending
    degree in G[within].

    Ties go to the lower index, so the order on a vertex mask is the order
    on its induced subgraph, relabelled. Putting a dense seed first lets
    forward checking refute impossible instances (e.g. a K4 into a K4-free
    target) early.
    """
    rows = G.rows
    degs = [(row & within).bit_count() for row in rows]
    seed = sorted(bits(clique), key=lambda v: (-degs[v], v))
    order = []
    placed = reach = 0
    while placed != within:
        if len(order) < len(seed):
            u = seed[len(order)]
        else:  # a neighbour of the placed vertices, or the next component
            frontier = reach & ~placed or within & ~placed
            u = max(bits(frontier), key=lambda v: (degs[v], -v))
        order.append(u)
        placed |= 1 << u
        reach |= rows[u] & within
    return order


def _start_domains(G: Graph, H: Graph, in_triangle: int) -> Optional[list[int]]:
    """Images each vertex of G may take before branching, or None if some
    vertex has none, where ``in_triangle`` holds the vertices on a triangle
    of the subgraph searched. A homomorphism is injective on cliques, so
    such a vertex maps to a vertex on a triangle of H; only images that no
    homomorphism uses are removed, so the searches find the same maps.
    """
    if not in_triangle:
        return [H.full_mask] * G.n
    targets = H.triangle_mask()
    if not targets:
        return None
    return [targets if in_triangle >> v & 1 else H.full_mask for v in range(G.n)]


def _search(order: Sequence[int], domains: list[int], table: Sequence[int],
            rows: Sequence[int], budget: Optional[int] = None,
            reject: Optional[Callable[[int, list[int]], bool]] = None,
            lookahead: bool = False) -> Iterator[list[int]]:
    """The one backtracking loop, on an explicit stack.

    Depth i assigns ``order[i]`` each image left in its domain (a bitmask),
    in increasing index. Image a leaves each neighbour of ``order[i]`` (in
    the source graph's ``rows``) placed later only the images in
    ``table[a]``; a domain emptied refutes a. If that passes and
    ``lookahead`` is set, one round of arc consistency follows: each such
    neighbour w leaves each of its neighbours not yet placed only its
    support, the OR of ``table[b]`` over the images b left to w; a domain
    emptied refutes a too. If those pass, ``reject(i, image)``, when given,
    may still refute a on the images placed so far; once it returns False
    the search descends from a (or yields). Yields the image list (indexed
    by vertex and reused between yields) at each solution. Every assignment
    tried counts one node; past ``budget`` nodes it raises
    ``SizeLimitError``.

    The look-ahead removes only images that no solution extending the
    images placed uses, so it keeps every solution and their order, and
    visits a subset of the nodes visited without it, in the same order.
    """
    n = len(order)
    image = [0] * len(domains)
    if n == 0:
        yield image
        return
    free = [0] * n  # free[i]: the vertices placed after depth i
    later = [()] * n  # later[i]: the neighbours of order[i] among them
    f = 0
    for i in range(n - 1, -1, -1):
        near = rows[order[i]] & f
        if near:
            later[i] = list(bits(near))
        free[i] = f
        f |= 1 << order[i]
    doms = [domains] * n  # doms[i]: the domains at depth i
    todo = [0] * n  # todo[i]: the images depth i has still to try
    todo[0] = domains[order[0]]
    nodes = i = 0
    while i >= 0:
        rest = todo[i]
        if not rest:
            i -= 1
            continue
        low = rest & -rest
        todo[i] = rest ^ low
        nodes += 1
        if budget is not None and nodes > budget:
            raise SizeLimitError(f"search stopped at its budget of {budget} nodes")
        a = low.bit_length() - 1
        image[order[i]] = a
        new, ok = doms[i], True
        if later[i]:
            new = list(new)
            row = table[a]
            for w in later[i]:
                d = new[w] & row
                if not d:
                    ok = False
                    break
                new[w] = d
            if ok and lookahead:
                ok = _look_ahead(new, later[i], table, rows, free[i])
        if not ok or reject is not None and reject(i, image):
            continue
        if i + 1 == n:
            yield image
        else:
            i += 1
            doms[i] = new
            todo[i] = new[order[i]]


def _look_ahead(doms: list[int], later: Sequence[int], table: Sequence[int],
                rows: Sequence[int], free: int) -> bool:
    """The look-ahead round of ``_search`` on the domains ``doms`` (narrowed
    in place); False if it empties a domain."""
    for w in later:
        near = rows[w] & free
        if not near:
            continue
        support, rest = 0, doms[w]
        while rest:  # bits(rest), inlined: the search's inner loop
            low = rest & -rest
            support |= table[low.bit_length() - 1]
            rest ^= low
        for x in bits(near):
            d = doms[x] & support
            if not d:
                return False
            doms[x] = d
    return True


def find_homomorphism(G: Graph, H: Graph, budget: Optional[int] = None) -> HomResult:
    """Decide G -> H by backtracking with forward checking.

    Deterministic: fixed assignment order, images tried in increasing index.
    ``budget`` bounds the number of assignments tried; exceeding it raises
    ``SizeLimitError``, so a stop is never read as "no homomorphism".

    Twins of H (vertices with equal rows, never adjacent) are
    interchangeable, and every start domain and forward-check row is a union
    of twin classes. So the first map found uses only the lowest vertex of
    each class, and the search tries only those: it reaches the same first
    map along a subset of the nodes, in the same order. The look-ahead
    round of ``_search`` after each forward check does the same, so any
    budget that lets the search without it decide lets this one decide too.
    """
    image = _find_within(G, G.full_mask, H, budget)
    if image is None:
        return HomResult(ABSENT)
    return HomResult(PRESENT, VertexMap(G, H, tuple(image)))


def _find_within(G: Graph, within: int, H: Graph,
                 budget: Optional[int] = None) -> Optional[list[int]]:
    """The search of ``find_homomorphism``, run on the induced subgraph
    G[within] in place: the image list indexed by G's vertices, set on
    ``within``, or None if there is no map. Every helper restricts degrees,
    triangles and forward checks to the mask and breaks ties by index, so
    the search visits the nodes it visits on ``induced_subgraph(G,
    within)``, relabelled: the same first map, after the same number of
    nodes."""
    if not within:
        return [0] * G.n
    if H.n == 0:
        return None
    # G keeps its own mask, often found already by a search into G
    in_triangle = G.triangle_mask() if within == G.full_mask else _triangle_walk(G.rows, within)
    domains = _start_domains(G, H, in_triangle)
    if domains is None:
        return None
    twins = H.twin_representatives()
    domains = [d & twins for d in domains]
    clique = _max_clique_mask(G, within)
    order = _search_order(G, clique, within)
    return next(_search(order, domains, H.rows, G.rows, budget, lookahead=True), None)


def enumerate_homomorphisms(G: Graph, H: Graph) -> Iterator[VertexMap]:
    """All homomorphisms G -> H, in lexicographic image order."""
    domains = _start_domains(G, H, G.triangle_mask())
    if domains is None:
        return
    for image in _search(range(G.n), domains, H.rows, G.rows):
        yield VertexMap(G, H, tuple(image))


def forb_member(G: Graph, f_set: Sequence[Graph], budget: Optional[int] = None) -> bool:
    """True iff no member of ``f_set`` maps into G."""
    return not any(find_homomorphism(F, G, budget).present for F in f_set)


def hom_equivalent(G: Graph, H: Graph) -> bool:
    return find_homomorphism(G, H).present and find_homomorphism(H, G).present


def core(G: Graph) -> tuple[Graph, list[int]]:
    """The core of G: smallest induced subgraph hom-equivalent to G.

    One retraction pass: for v from n-1 down to 0, drop v when the kept
    graph maps into itself minus v. What is left is a core, since a map
    K -> K - v would have let v go when it was tried. Canonical choice:
    the vertex set this pass keeps. Returns (core, kept vertices of G), as
    ``induced_subgraph`` does.
    """
    S = G.full_mask
    K = G
    for v in range(G.n - 1, -1, -1):
        sub, _ = induced_subgraph(G, S & ~(1 << v))
        if find_homomorphism(K, sub).present:
            S &= ~(1 << v)
            K = sub
    return K, list(bits(S))


def is_isomorphic(G: Graph, H: Graph) -> bool:
    """Exact isomorphism: an injective homomorphism between graphs of equal
    order and edge count is a bijection that sends the edges onto the
    edges, so it is an isomorphism. The search keeps degrees and rejects an
    image already taken."""
    if G.n != H.n or G.edge_count() != H.edge_count():
        return False
    degG = [G.degree(v) for v in range(G.n)]
    degH = [H.degree(a) for a in range(H.n)]
    if sorted(degG) != sorted(degH):
        return False
    by_degree: dict[int, int] = {}
    for a, d in enumerate(degH):
        by_degree[d] = by_degree.get(d, 0) | 1 << a
    domains = [by_degree[d] for d in degG]
    return next(_search(range(G.n), domains, H.rows, G.rows,
                        reject=lambda v, image: image[v] in image[:v]), None) is not None
