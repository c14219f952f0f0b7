"""Homomorphism search, cores, hom-equivalence and isomorphism tests."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .errors import SizeLimitError
from .graphs import Graph, bits, induced_subgraph

CORE_LIMIT = 10
ISO_LIMIT = 10

PRESENT = "present"
ABSENT = "absent"
BUDGET = "budget"


@dataclass(frozen=True)
class VertexMap:
    """A total map V(source) -> V(target)."""

    source: Graph
    target: Graph
    image: tuple[int, ...]

    def __post_init__(self):
        assert len(self.image) == self.source.n
        assert all(0 <= a < self.target.n for a in self.image)

    def __call__(self, v: int) -> int:
        return self.image[v]


def check_homomorphism(f: VertexMap) -> bool:
    """True iff every edge of the source maps to an edge of the target."""
    G, H, img = f.source, f.target, f.image
    for u, v in G.edges():
        if not H.has_edge(img[u], img[v]):
            return False
    return True


def compose(f: VertexMap, g: VertexMap) -> VertexMap:
    """g after f: source of f into target of g."""
    assert f.target == g.source
    return VertexMap(f.source, g.target, tuple(g.image[a] for a in f.image))


@dataclass(frozen=True)
class HomResult:
    """Three-valued search outcome so a budget stop is never read as 'no hom'."""

    status: str  # PRESENT | ABSENT | BUDGET
    map: Optional[VertexMap] = None

    @property
    def present(self) -> bool:
        return self.status == PRESENT


def _max_clique_mask(G: Graph) -> int:
    """Exact maximum clique (bitmask) for small graphs, greedy otherwise."""
    degs = [G.degree(v) for v in range(G.n)]
    if G.n > 16:
        start = max(range(G.n), key=lambda v: (degs[v], -v))
        clique = 1 << start
        while True:
            cand = G.full_mask & ~clique
            for v in bits(clique):
                cand &= G.rows[v]
            if not cand:
                return clique
            clique |= 1 << max(bits(cand), key=lambda v: (degs[v], -v))
    best = 0

    def rec(clique: int, cand: int) -> None:
        nonlocal best
        if clique.bit_count() + cand.bit_count() <= best.bit_count():
            return
        if not cand:
            if clique.bit_count() > best.bit_count():
                best = clique
            return
        v = cand.bit_length() - 1
        rec(clique | (1 << v), cand & G.rows[v])
        rec(clique, cand & ~(1 << v))

    rec(0, G.full_mask)
    return best


def _search_order(G: Graph) -> list[int]:
    """Deterministic assignment order: a maximum clique first, then BFS by
    descending degree.

    Putting a dense seed first lets forward checking refute impossible
    instances (e.g. a K4 into a K4-free target) early.
    """
    if G.n == 0:
        return []
    degs = [G.degree(v) for v in range(G.n)]
    cmask = _max_clique_mask(G)
    order = sorted(bits(cmask), key=lambda v: (-degs[v], v))
    placed = cmask
    while placed != G.full_mask:
        frontier = 0
        for v in bits(placed):
            frontier |= G.rows[v]
        frontier &= ~placed
        if not frontier:  # next component
            frontier = ~placed & G.full_mask
        u = max(bits(frontier), key=lambda v: (degs[v], -v))
        order.append(u)
        placed |= 1 << u
    return order


def _start_domains(G: Graph, H: Graph) -> Optional[list[int]]:
    """Images each vertex of G may take before branching, or None if some
    vertex has none. A homomorphism is injective on cliques, so a vertex on
    a triangle of G maps to a vertex on a triangle of H; only images that
    no homomorphism uses are removed, so the searches find the same maps.
    """
    in_triangle = G.triangle_mask()
    if not in_triangle:
        return [H.full_mask] * G.n
    targets = H.triangle_mask()
    if not targets:
        return None
    return [targets if in_triangle >> v & 1 else H.full_mask for v in range(G.n)]


def find_homomorphism(G: Graph, H: Graph, budget: Optional[int] = None) -> HomResult:
    """Decide G -> H by backtracking with forward checking.

    Deterministic: fixed assignment order, images tried in increasing index.
    ``budget`` bounds the number of assignments tried; exceeding it yields
    the explicit BUDGET status.
    """
    if G.n == 0:
        return HomResult(PRESENT, VertexMap(G, H, ()))
    if H.n == 0:
        return HomResult(ABSENT)
    cand = _start_domains(G, H)
    if cand is None:
        return HomResult(ABSENT)
    order = _search_order(G)
    pos = [0] * G.n
    for i, v in enumerate(order):
        pos[v] = i
    image = [0] * G.n
    nodes = 0

    def rec(i: int, cands: list[int]) -> Optional[str]:
        nonlocal nodes
        if i == G.n:
            return PRESENT
        v = order[i]
        later = [w for w in bits(G.rows[v]) if pos[w] > i]
        for a in bits(cands[v]):
            nodes += 1
            if budget is not None and nodes > budget:
                return BUDGET
            image[v] = a
            new = list(cands)
            ok = True
            row = H.rows[a]
            for w in later:
                new[w] &= row
                if not new[w]:
                    ok = False
                    break
            if ok:
                r = rec(i + 1, new)
                if r is not None:
                    return r
        return None

    r = rec(0, cand)
    if r == PRESENT:
        return HomResult(PRESENT, VertexMap(G, H, tuple(image)))
    if r == BUDGET:
        return HomResult(BUDGET)
    return HomResult(ABSENT)


def enumerate_homomorphisms(G: Graph, H: Graph) -> Iterator[VertexMap]:
    """All homomorphisms G -> H, in lexicographic image order."""
    if H.n == 0:
        if G.n == 0:
            yield VertexMap(G, H, ())
        return
    cand = _start_domains(G, H)
    if cand is None:
        return
    image = [0] * G.n

    def rec(v: int, cands: list[int]) -> Iterator[VertexMap]:
        if v == G.n:
            yield VertexMap(G, H, tuple(image))
            return
        for a in bits(cands[v]):
            image[v] = a
            new = list(cands)
            ok = True
            for w in bits(G.rows[v]):
                if w > v:
                    new[w] &= H.rows[a]
                    if not new[w]:
                        ok = False
                        break
            if ok:
                yield from rec(v + 1, new)

    yield from rec(0, cand)


def forb_member(G: Graph, f_set: Sequence[Graph], budget: Optional[int] = None) -> Optional[bool]:
    """True iff no member of ``f_set`` maps into G; None if a budget ran out."""
    unknown = False
    for F in f_set:
        r = find_homomorphism(F, G, budget=budget)
        if r.status == PRESENT:
            return False
        if r.status == BUDGET:
            unknown = True
    return None if unknown else True


def hom_equivalent(G: Graph, H: Graph, budget: Optional[int] = None) -> bool:
    a = find_homomorphism(G, H, budget=budget)
    b = find_homomorphism(H, G, budget=budget)
    if BUDGET in (a.status, b.status):
        raise SizeLimitError("hom-equivalence undecided within budget")
    return a.present and b.present


def core(G: Graph, limit: int = CORE_LIMIT) -> Graph:
    """The core of G: smallest induced subgraph hom-equivalent to G.

    Canonical choice: the lexicographically smallest vertex set among
    minimum-size retracts. Labels carry the original vertex indices.
    """
    if G.n > limit:
        raise SizeLimitError(f"core computation capped at {limit} vertices")
    if G.n == 0:
        return G
    verts = list(range(G.n))
    for size in range(1, G.n + 1):
        for subset in combinations(verts, size):
            S = 0
            for v in subset:
                S |= 1 << v
            sub, old = induced_subgraph(G, S)
            # G[S] -> G always holds via inclusion; G -> G[S] decides.
            if find_homomorphism(G, sub).present:
                return Graph(sub.n, sub.rows, [str(v) for v in old])
    raise AssertionError("unreachable: G maps onto itself")


def is_isomorphic(G: Graph, H: Graph, limit: int = ISO_LIMIT) -> bool:
    """Exact isomorphism by backtracking with degree-sequence pruning."""
    if max(G.n, H.n) > limit:
        raise SizeLimitError(f"isomorphism test capped at {limit} vertices")
    if G.n != H.n or G.edge_count() != H.edge_count():
        return False
    n = G.n
    degG = [G.degree(v) for v in range(n)]
    degH = [H.degree(v) for v in range(n)]
    if sorted(degG) != sorted(degH):
        return False
    image = [-1] * n
    used = 0

    def rec(v: int) -> bool:
        nonlocal used
        if v == n:
            return True
        for a in range(n):
            if used >> a & 1 or degG[v] != degH[a]:
                continue
            ok = True
            for u in bits(G.rows[v]):
                if u < v and not H.has_edge(image[u], a):
                    ok = False
                    break
            if ok:
                # non-edges must be preserved too (bijection)
                for u in range(v):
                    if not G.has_edge(u, v) and H.has_edge(image[u], a):
                        ok = False
                        break
            if ok:
                image[v] = a
                used |= 1 << a
                if rec(v + 1):
                    return True
                used &= ~(1 << a)
        return False

    return rec(0)
