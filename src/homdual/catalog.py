"""Exhaustive small-graph catalogs, up to isomorphism, with filters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import SizeLimitError
from .graphs import Graph, bits, empty_graph, is_connected, mask_of
from .homs import is_isomorphic

GENERATE_LIMIT = 8


@dataclass(frozen=True)
class GraphFilters:
    max_degree: Optional[int] = None
    connected: bool = False
    triangle_free: bool = False


def _invariant(G: Graph) -> tuple:
    """Cheap isomorphism-invariant bucket key: order, size, the sorted
    degrees and the sorted neighbour-degree lists."""
    rows = G.rows
    degs = [row.bit_count() for row in rows]
    nbr_degs = sorted(tuple(sorted(degs[u] for u in bits(row))) for row in rows)
    return (G.n, sum(degs) // 2, tuple(sorted(degs)), tuple(nbr_degs))


def generate_all_graphs(n_max: int, filters: Optional[GraphFilters] = None,
                        keep: Optional[Callable[[Graph], bool]] = None) -> list[Graph]:
    """All graphs with at most n_max vertices, one per isomorphism class.

    Incremental vertex extension with invariant bucketing plus exact
    isomorphism checks. The monotone filters (degree, triangle-free) hold
    on every base, so they prune the new vertex's neighbour set before a
    graph is built; connectivity applies at the end.

    ``keep`` must be an isomorphism-invariant predicate closed under
    induced subgraphs. A new class whose first graph fails it stays in its
    bucket, so later copies are still refused, but is neither output nor
    extended. Every graph extends its base, an induced subgraph, so no
    passing graph comes from a failing base, and the result is the
    catalog without ``keep`` filtered afterwards: the same graphs in the
    same order.
    """
    if n_max > GENERATE_LIMIT:
        raise SizeLimitError(f"graph generation capped at {GENERATE_LIMIT} vertices")
    f = filters or GraphFilters()
    cap, triangle_free = f.max_degree, f.triangle_free
    E = empty_graph(0)
    levels: list[list[Graph]] = [[E] if keep is None or keep(E) else []]
    for n in range(1, n_max + 1):
        buckets: dict[tuple, list[Graph]] = {}
        accepted: list[Graph] = []
        for base in levels[n - 1]:
            if cap is not None:  # the new vertex joins at most cap vertices, each below cap
                free = mask_of(v for v in range(n - 1) if base.degree(v) < cap)
            for nb in range(1 << (n - 1)):
                if cap is not None and (nb & ~free or nb.bit_count() > cap):
                    continue
                if triangle_free and any(base.rows[v] & nb for v in bits(nb)):
                    continue
                rows = [base.rows[v] | ((nb >> v & 1) << (n - 1)) for v in range(n - 1)]
                rows.append(nb)
                G = Graph._symmetric(n, rows)
                key = _invariant(G)
                bucket = buckets.setdefault(key, [])
                if any(is_isomorphic(G, other) for other in bucket):
                    continue
                bucket.append(G)
                if keep is None or keep(G):
                    accepted.append(G)
        levels.append(accepted)
    out: list[Graph] = []
    for n in range(n_max + 1):
        for G in levels[n]:
            if f.connected and not is_connected(G):
                continue
            out.append(G)
    return out
