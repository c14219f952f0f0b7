"""Centered and low tree-depth colorings, and the product construction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from .errors import GraphError, InternalCheckError, SizeLimitError
from .graphs import (
    Graph,
    bits,
    complete_graph,
    connected_components,
    induced_subgraph,
    layers,
)
from .homs import _search
from .sparsity import (
    TD_LIMIT,
    TdCertificate,
    _td_max_edges,
    degeneracy,
    tree_depth,
    tree_depth_value,
    verify_td,
)

CLASS_SET_LIMIT = 1 << 16  # color sets per walk of class_unions
LOWTD_EXHAUSTIVE_LIMIT = 11


@dataclass(frozen=True)
class Coloring:
    """Vertex -> color map with colors 0..k-1, every class nonempty."""

    graph: Graph
    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.colors) != self.graph.n:
            raise GraphError(f"{len(self.colors)} colors for {self.graph.n} vertices")
        if self.graph.n and set(self.colors) != set(range(self.k)):
            raise GraphError(f"colors are not exactly 0..{self.k - 1}")

    def class_masks(self) -> list[int]:
        """The vertex mask of every color class, in one pass."""
        masks = [0] * self.k
        for v, q in enumerate(self.colors):
            masks[q] |= 1 << v
        return masks


def make_coloring(G: Graph, colors: Sequence[Hashable]) -> Coloring:
    """Normalize arbitrary color values to dense 0..k-1 by first appearance."""
    remap: dict[Hashable, int] = {}
    dense = [remap.setdefault(c, len(remap)) for c in colors]
    return Coloring(G, tuple(dense), len(remap))


def _check_p(p: int) -> None:
    if p < 1:
        raise GraphError(f"p must be at least 1 (got {p})")


def class_unions(masks: Sequence[int], sizes: Sequence[int], p: int,
                 what: str) -> Iterator[tuple[tuple[int, ...], int]]:
    """(class indices, union of their masks) for every set of the disjoint
    class masks whose size is in ``sizes``: by size, then in lexicographic
    order. The one class-set walk: refused before it starts, naming
    ``what`` and p, when the sets number more than ``CLASS_SET_LIMIT``."""
    sets = 0
    for size in sizes:
        sets += math.comb(len(masks), size)
        if sets > CLASS_SET_LIMIT:
            raise SizeLimitError(
                f"{what} capped at {CLASS_SET_LIMIT} color sets "
                f"(k = {len(masks)} colors at p = {p} give more)")
    return ((classes, sum(map(masks.__getitem__, classes)))
            for size in sizes for classes in combinations(range(len(masks)), size))


def verify_p_centered(G: Graph, c: Coloring, p: int) -> tuple[bool, Optional[int]]:
    """Check that every connected vertex set with fewer than p colors has a
    color used exactly once in it.

    Returns (True, None) or (False, violating vertex mask). For each set C of
    min(p - 1, k) color classes, every component K of G[C] is checked: K
    fails if no color appears once in it; otherwise its first uniquely
    colored vertex is removed and the components left are checked in turn.
    A violating set lies inside some such K and never holds the removed
    vertex, so this is complete. ``CLASS_SET_LIMIT`` caps the number of
    color sets.
    """
    _check_p(p)
    size = min(p - 1, c.k)
    masks = c.class_masks()
    for classes, S in class_unions(masks, (size,), p, "centered verification"):
        stack = connected_components(G, S)
        while stack:
            K = stack.pop()
            unique = [masks[q] & K for q in classes if (masks[q] & K).bit_count() == 1]
            if not unique:
                return False, K
            v = min(unique)
            stack += connected_components(G, K ^ v)
    return True, None


def centered_from_td(G: Graph, cert: TdCertificate) -> Coloring:
    """Level coloring of a tree-depth witness: color = forest depth - 1.

    Passes the centered check for every p, because the unique minimum-level
    vertex of a connected subset inside one tree is uniquely colored.
    """
    if not verify_td(G, cert):
        raise GraphError("invalid tree-depth certificate")
    return make_coloring(G, [d - 1 for d in cert.forest.depth])


@dataclass(frozen=True)
class LowTdViolation:
    classes: tuple[int, ...]
    component: int  # vertex mask in G
    td: int  # above TD_LIMIT vertices, a greedy upper bound


def verify_low_td(G: Graph, c: Coloring, p: int) -> tuple[bool, Optional[LowTdViolation]]:
    """Every i <= p color classes must induce components of tree-depth <= i;
    returns the first (classes, component) found deeper than that, if any.
    A component on at most i vertices passes, and so, by counting its
    edges, does one on at most ``TD_LIMIT`` vertices that is a star (at
    i >= 2) or a tree on fewer than 2^i vertices, which a centroid splits
    in halves: tree-depth at most ceil(log2(c + 1)) on c vertices.

    Above ``TD_LIMIT`` vertices a component's tree-depth is a greedy upper
    bound, which proves a pass when it is at most i but no violation; a
    violation there needs more edges than tree-depth i allows, and without
    them the check raises ``SizeLimitError``. It also raises when the class
    sets number more than ``CLASS_SET_LIMIT``.
    """
    _check_p(p)
    for classes, S in class_unions(c.class_masks(), range(1, min(p, c.k) + 1), p,
                                   "low tree-depth verification"):
        i = len(classes)
        for comp in connected_components(G, S):
            order = comp.bit_count()
            if order <= i:
                continue  # tree-depth is at most the order
            if order <= TD_LIMIT:
                degrees = [(G.rows[v] & comp).bit_count() for v in bits(comp)]
                if sum(degrees) == 2 * order - 2 and (
                        order < 1 << i or i >= 2 and max(degrees) == order - 1):
                    continue  # a tree on fewer than 2^i vertices, or a star
            sub, _ = induced_subgraph(G, comp)
            td = tree_depth_value(sub)
            if td <= i:
                continue
            if sub.n > TD_LIMIT and _td_max_edges(sub.n, i) >= sub.edge_count():
                raise SizeLimitError(
                    f"classes {classes} induce a component on {sub.n} > {TD_LIMIT} "
                    f"vertices whose greedy tree-depth bound {td} exceeds {i}")
            return False, LowTdViolation(classes, comp, td)
    return True, None


@dataclass(frozen=True)
class LowTdColoring:
    coloring: Coloring
    exhaustive: bool


def find_low_td_coloring(G: Graph, p: int) -> LowTdColoring:
    """Smallest coloring passing the low tree-depth check at threshold p.

    Exhaustive (provably minimal) for |V| <= ``LOWTD_EXHAUSTIVE_LIMIT``;
    larger graphs get a greedy distance-p coloring on degeneracy order,
    minimality not guaranteed.
    """
    return LowTdColoring(max_low_td_colors([G], p)[1][0], G.n <= LOWTD_EXHAUSTIVE_LIMIT)


def max_low_td_colors(corpus: Iterable[Graph], p: int) -> tuple[int, list[Coloring]]:
    """(M, colorings): a passing coloring per graph with at most M colors, M
    the least count at least 1 that every graph up to ``LOWTD_EXHAUSTIVE_LIMIT``
    vertices can meet and every larger graph's greedy coloring meets.

    Splitting a class of a passing coloring keeps it passing: any i classes
    of the finer coloring lie inside at most i classes of the coarser one,
    and tree-depth is monotone under subgraphs. So for M <= |V(G)|, G has a
    passing coloring with at most M colors exactly when it has one with
    exactly M. With M the running maximum, a graph on at most M vertices
    cannot raise it and takes one color per vertex, and any other graph up
    to ``LOWTD_EXHAUSTIVE_LIMIT`` vertices tries exactly k = M, M + 1, ...
    colors until a round passes: the first k is M if the graph needs at
    most M colors, and its own least count otherwise. Larger graphs take
    their greedy coloring.
    """
    _check_p(p)
    best = 1
    colorings = []
    for G in corpus:
        if G.n <= best:
            c = Coloring(G, tuple(range(G.n)), G.n)
        elif G.n > LOWTD_EXHAUSTIVE_LIMIT:
            c = _greedy_low_td(G, p)
        else:
            for k in range(best, G.n + 1):  # n colors, one vertex a class, always pass
                c = _exhaustive_low_td(G, p, k)
                if c is not None:
                    break
            else:
                raise InternalCheckError(
                    f"no low tree-depth coloring of {G.n} vertices with {G.n} colors")
        best = max(best, c.k)
        colorings.append(c)
    return best, colorings


def _exhaustive_low_td(G: Graph, p: int, k: int) -> Optional[Coloring]:
    """The first proper coloring with exactly k colors, in lexicographic
    order over the canonical ones (each color at most one above every color
    before it), that passes the low tree-depth check; the rounds for smaller
    k have refuted those with fewer. Relabelling by first appearance makes
    any coloring canonical, no larger, and passing the same checks, so no
    other coloring needs a check.

    The search colors vertices in index order and cuts a partial coloring
    that no such candidate extends: one that is not canonical, one with too
    few vertices left to reach k colors, and, at p >= 2, one holding a path
    on 4 vertices in only two colors. That path has tree-depth 3, while any
    two classes of a passing coloring induce tree-depth at most 2 (a star
    forest), so a passing coloring is a star coloring. When vertex v takes
    color a, the new paths run through v: for a neighbour x of v colored b
    that has a neighbour y colored a, the path is cut if v has another
    neighbour colored b (v inside it) or y does (v at its end). The cuts
    remove only colorings that are no candidates or that fail the check, so
    the first passing coloring is unchanged.
    """
    n, rows = G.n, G.rows
    domains = [(1 << min(v + 1, k)) - 1 for v in range(n)]
    classes = [[0] * k for _ in range(n)]  # classes[v][q]: vertices below v colored q
    used = [0] * n  # used[v]: colors on the vertices below v, 0..used[v] - 1
    star = p >= 2

    def reject(v: int, colors: list[int]) -> bool:
        cls, a, top = classes[v], colors[v], used[v]
        top_after = top + (a == top)
        if a > top or top_after + n - 1 - v < k:
            return True
        if star:
            A = cls[a]
            below = rows[v] & ((1 << v) - 1)
            for x in bits(below):
                ys = rows[x] & A
                if ys:
                    B = cls[colors[x]] ^ (1 << x)
                    if below & B or any(rows[y] & B for y in bits(ys)):
                        return True
        if v + 1 < n:
            classes[v + 1][:] = cls
            classes[v + 1][a] |= 1 << v
            used[v + 1] = top_after
        return False

    for colors in _search(range(n), domains, complete_graph(k).rows, rows, reject=reject):
        cand = Coloring(G, tuple(colors), k)
        if verify_low_td(G, cand, p)[0]:
            return cand
    return None


def _greedy_low_td(G: Graph, p: int) -> Coloring:
    """First-fit distance-p coloring on reversed degeneracy order: vertices
    within distance p of each other take distinct colors. It passes the low
    tree-depth check at p with no need to run it: if i <= p classes had a
    component on more than i vertices, that component would hold a
    connected set of i + 1 vertices, pairwise within distance i <= p, and so
    of i + 1 colors. A component on at most i vertices has tree-depth at
    most i."""
    _, order = degeneracy(G)
    colors = [-1] * G.n
    for v in reversed(order):
        near = sum(layers(G.rows, 1 << v, G.full_mask, p)[1:])
        banned = {colors[u] for u in bits(near)}
        q = 0
        while q in banned:
            q += 1
        colors[v] = q
    return make_coloring(G, colors)


def product_centered(G: Graph, cbar: Coloring, p: int) -> Coloring:
    """Product of a low tree-depth coloring with level colorings of the
    subgraphs induced by each p-subset of its classes.

    The output passes the centered check at threshold p.
    """
    ok, _ = verify_low_td(G, cbar, p)
    if not ok:
        raise GraphError("base coloring fails the low tree-depth condition")
    per_subset = []
    for _, S in class_unions(cbar.class_masks(), (min(p, cbar.k),), p, "the product coloring"):
        sub, old = induced_subgraph(G, S)
        cert = tree_depth(sub)
        cp = centered_from_td(sub, cert)
        col = [0] * G.n  # 0 is a safe sentinel: real levels are shifted by 1
        for i, v in enumerate(old):
            col[v] = cp.colors[i] + 1
        per_subset.append(col)
    tuples = [
        (cbar.colors[v],) + tuple(col[v] for col in per_subset)
        for v in range(G.n)
    ]
    return make_coloring(G, tuples)
