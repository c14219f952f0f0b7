"""Exact powers, exact-distance graphs, odd-girth and chromatic number."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import GraphError, InternalCheckError, SizeLimitError
from .graphs import Graph, bits, complete_graph, layers
from .homs import _max_clique_mask, _search, _search_order

EXACT_POWER_LIMIT = 7
CHROMATIC_LIMIT = 20

INFINITY = math.inf  # sentinel for "no odd cycle"


def exact_power(G: Graph, p: int) -> Graph:
    """Edge {x,y} iff some simple path of length exactly p joins x and y."""
    if p < 1:
        raise GraphError("power must be >= 1")
    if p > EXACT_POWER_LIMIT:
        raise SizeLimitError(f"exact power capped at length {EXACT_POWER_LIMIT}")
    if p == 1:
        return G
    rows = [0] * G.n
    for x in range(G.n):
        # walk the simple paths of length p - 1 from x; the unvisited
        # neighbours of each end are joined to x by a path of length p
        stack = [(x, 1 << x, p)]
        while stack:
            v, visited, left = stack.pop()
            if left == 1:
                rows[x] |= G.rows[v] & ~visited
                continue
            for u in bits(G.rows[v] & ~visited):
                stack.append((u, visited | 1 << u, left - 1))
    return Graph._symmetric(G.n, rows)


def exact_distance_graph(G: Graph, p: int) -> Graph:
    """Edge {x,y} iff the distance between x and y in G is exactly p."""
    if p < 1:
        raise GraphError("distance must be >= 1")
    rows = [0] * G.n
    for x in range(G.n):
        ring = layers(G.rows, 1 << x, G.full_mask, p)
        if len(ring) > p:
            rows[x] = ring[p]
    return Graph._symmetric(G.n, rows)


def odd_girth(G: Graph):
    """Length of the shortest odd cycle; math.inf if bipartite.

    An edge inside breadth-first layer d of a root closes an odd walk of
    length 2d + 1, and the shortest odd cycle gives one from each of its
    vertices; each root walks only the layers that could beat the best so
    far. A walk without a depth limit that finds no such edge proves the
    root's component bipartite, so its other roots are skipped and a
    bipartite graph costs one walk per component.
    """
    best = INFINITY
    bipartite = 0  # the components proven bipartite
    for root in range(G.n):
        if bipartite >> root & 1:
            continue
        depth = -1 if best == INFINITY else (best - 3) // 2
        rings = layers(G.rows, 1 << root, G.full_mask, depth)
        for d, ring in enumerate(rings):
            if any(G.rows[v] & ring for v in bits(ring)):
                best = 2 * d + 1
                break
        else:
            if depth < 0:
                bipartite |= sum(rings)
    return best


def chromatic_number(G: Graph) -> int:
    """Exact chromatic number: the least k, from the clique size upward,
    with a homomorphism G -> K_k.

    The search pins the vertices of one clique to colours 0..omega-1, which
    every k-colouring can be renamed to meet.
    """
    if G.n == 0:
        return 0
    if G.n > CHROMATIC_LIMIT:
        raise SizeLimitError(f"exact chromatic number capped at {CHROMATIC_LIMIT} vertices")
    clique = _max_clique_mask(G, G.full_mask)
    order = _search_order(G, clique, G.full_mask)
    omega = clique.bit_count()
    for k in range(omega, G.n + 1):
        domains = [(1 << k) - 1] * G.n
        for color, v in enumerate(order[:omega]):
            domains[v] = 1 << color
        if next(_search(order, domains, complete_graph(k).rows, G.rows), None) is not None:
            return k
    raise InternalCheckError(f"no colouring of {G.n} vertices with {G.n} colours")


def odd_power_experiment(corpus: Sequence[Graph], p: int,
                         n_claim: Optional[int] = None) -> dict:
    """Chromatic maxima of exact p-powers over corpus members with
    odd-girth above p; the hypothesis filter skips the rest.
    """
    if p % 2 == 0:
        raise GraphError("the odd-power experiment needs odd p")
    items = []
    max_path = 0
    max_dist = 0
    for idx, G in enumerate(corpus):
        og = odd_girth(G)
        if not og > p:
            items.append({"index": idx, "odd_girth": og, "skipped": True})
            continue
        chi_path = chromatic_number(exact_power(G, p))
        chi_dist = chromatic_number(exact_distance_graph(G, p))
        delta_bound = G.max_degree() ** p + 1
        if chi_path > delta_bound:
            raise InternalCheckError(
                f"chromatic number {chi_path} of the exact power exceeds {delta_bound}")
        max_path = max(max_path, chi_path)
        max_dist = max(max_dist, chi_dist)
        items.append({
            "index": idx,
            "odd_girth": og if og != INFINITY else "infinity",
            "skipped": False,
            "chi_exact_power": chi_path,
            "chi_exact_distance": chi_dist,
            "delta_bound": delta_bound,
        })
    report = {
        "p": p,
        "items": items,
        "max_chi_exact_power": max_path,
        "max_chi_exact_distance": max_dist,
    }
    if n_claim is not None:
        report["n_claim"] = n_claim
        report["claim_holds"] = max_path <= n_claim and max_dist <= n_claim
    return report
