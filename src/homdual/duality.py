"""Local homomorphisms, truncated powers, and the restricted-duality pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Optional, Sequence

from .errors import GraphError, InternalCheckError, SizeLimitError
from .graphs import (
    Graph,
    bits,
    complete_graph,
    connected_components,
    disjoint_union,
    induced_subgraph,
    is_bipartite,
    is_connected,
    path_graph,
)
from .homs import (
    VertexMap,
    _find_within,
    check_homomorphism,
    core,
    enumerate_homomorphisms,
    find_homomorphism,
    forb_member,
    hom_equivalent,
    is_isomorphic,
)
from .catalog import generate_all_graphs
from .sparsity import tree_depth_value
from .coloring import Coloring, class_unions, max_low_td_colors, verify_low_td

POWER_ORDER_CAP = 100_000
DEFAULT_REP_ORDER = 6


def local_hom_check(G: Graph, phi: Sequence[int], p: int,
                    U: Graph) -> tuple[bool, Optional[frozenset]]:
    """Is every vertex set with at most p distinct phi-values mappable to U?

    It suffices to check the preimage of each p-subset of the range, since
    any qualifying set sits inside one of those. Each preimage is a union
    of phi's class masks. When U has an edge, a preimage inducing a
    bipartite graph maps onto its two ends and needs no search; any other is
    searched in place on G's rows: the search ``find_homomorphism`` runs on
    the induced subgraph, with the same nodes and no graph built per subset.
    Returns (True, None) or (False, failing value set); ``CLASS_SET_LIMIT``
    caps the value sets walked.
    """
    if len(phi) != G.n:
        raise GraphError("phi must be total on the vertices")
    classes: dict = {}
    for v, a in enumerate(phi):
        classes[a] = classes.get(a, 0) | 1 << v
    values = sorted(classes)
    sizes = (min(p, len(values)),) if values else ()
    has_edge = any(U.rows)
    for J, pre in class_unions([classes[a] for a in values], sizes, p, "the local check"):
        if has_edge and is_bipartite(G, pre):
            continue
        if _find_within(G, pre, U) is None:
            return False, frozenset(values[j] for j in J)
    return True, None


@dataclass(frozen=True)
class TruncatedPower:
    """The p-truncated H-power of a base graph U.

    Vertices of the power encode pairs (v in V(H), assignment of base
    vertices to the p-subsets of V(H) through v), packed into integers via
    mixed radix with subsets in lexicographic order, most significant first.
    """

    base: Graph
    template: Graph
    p: int
    D: Graph
    alpha: VertexMap
    subsets: tuple[tuple[int, ...], ...]  # all p-subsets of V(H), lex order
    through: tuple[tuple[tuple[int, ...], ...], ...]  # per v: the subsets through v
    block: int  # assignments per template vertex: |V(U)| ** B
    coords: int  # B = binom(|V(H)|-1, p-1)

    def encode(self, v: int, digits: Sequence[int]) -> int:
        u = self.base.n
        idx = 0
        for d in digits:
            idx = idx * u + d
        return v * self.block + idx


def _digit_masks(u: int, B: int) -> list[list[int]]:
    """digit[j][a]: the local indices 0..u**B - 1 whose j-th digit (most
    significant first) is a. Digit j is constant on runs of u ** (B-1-j)
    indices, repeating with period u ** (B-j). Every reader of a power
    vertex's digits goes through these masks; ``TruncatedPower.encode``
    writes them."""
    full = (1 << u ** B) - 1
    digit = []
    for j in range(B):
        run = u ** (B - 1 - j)
        spread = full // ((1 << (run * u)) - 1)  # bit 0 of every period
        digit.append([(((1 << run) - 1) << (a * run)) * spread for a in range(u)])
    return digit


def _digit_unions(rows: Sequence[int], u: int, B: int) -> list[list[int]]:
    """unions[j][a]: the OR of the rows (one per local index of a block,
    in order) whose j-th digit is a. A u-ary prefix tree: level j + 1 holds
    one union per digit prefix of length j + 1, its last digit varying
    fastest, and each level ORs runs of u entries of the level below it;
    about 3 * u ** B ORs in all."""
    unions = [[]] * B
    level = list(rows)
    for j in reversed(range(B)):
        unions[j] = [reduce(or_, level[a::u], 0) for a in range(u)]
        level = [reduce(or_, level[i:i + u], 0) for i in range(0, len(level), u)]
    return unions


def power_order(u_count: int, h_count: int, p: int) -> int:
    """Order h * u^B of the power over a u-vertex base and an h-vertex
    template, B = C(h - 1, p - 1): the one size rule for a power, capping
    the order and the h * B entries of ``through``, which the order bounds
    only over a base of two or more vertices."""
    b = math.comb(h_count - 1, p - 1)
    if u_count > 1 and b * u_count.bit_length() > 64:
        raise SizeLimitError(
            f"power order around {h_count} * {u_count}^{b} vastly exceeds any cap")
    order = h_count * (u_count ** b)
    if order > POWER_ORDER_CAP:
        raise SizeLimitError(f"power order {order} exceeds cap {POWER_ORDER_CAP}")
    if h_count * b > POWER_ORDER_CAP:
        raise SizeLimitError(
            f"power coordinate table {h_count} * {b} exceeds cap {POWER_ORDER_CAP}")
    return order


def truncated_power(U: Graph, H: Graph, p: int) -> TruncatedPower:
    """Build the p-truncated H-power of U, with checked color projection.

    Edges join vertices over adjacent template vertices whose assignments
    agree (are adjacent in the base) on every shared subset.
    """
    h, u = H.n, U.n
    if not 1 <= p <= h:
        raise GraphError(f"need 1 <= p <= |V(H)| (got p={p}, |V(H)|={h})")
    if u == 0:
        raise GraphError("base graph must be nonempty")
    order = power_order(u, h, p)
    B = math.comb(h - 1, p - 1)
    subsets = tuple(combinations(range(h), p))
    through: list[list[tuple[int, ...]]] = [[] for _ in range(h)]
    for I in subsets:  # in lexicographic order, so each list is too
        for v in I:
            through[v].append(I)
    if any(len(t) != B for t in through):
        raise InternalCheckError(f"a template vertex lies on other than {B} subsets")
    block = u ** B
    full = (1 << block) - 1

    digit = _digit_masks(u, B)
    # near[j][a]: local indices whose j-th digit is a base neighbour of a
    near = [[sum(masks[b] for b in bits(U.rows[a])) for a in range(u)] for masks in digit]

    rows = [0] * order
    for v, w in H.edges():
        for x, y in ((v, w), (w, v)):
            # split x's block by its digits on the subsets x shares with y:
            # each part (m, r) holds x's local indices m with one digit
            # tuple there, and r the indices of y that agree with all of it
            parts = [(full, full)]
            for j, I in enumerate(through[x]):
                if y in I:
                    table = near[through[y].index(I)]
                    parts = [(m & digit[j][a], r & table[a])
                             for m, r in parts for a in range(u) if r & table[a]]
            base, offset = x * block, y * block
            for m, r in parts:
                r <<= offset
                for i in bits(m):
                    rows[base + i] |= r

    # symmetric: each template edge is built both ways from the base's checked
    # rows. At p >= 3 a triangle-free base gives a triangle-free power, since
    # a triangle lies over three template vertices, and the coordinate at a
    # p-subset holding them maps it onto a triangle of the base.
    D = Graph._symmetric(order, rows, 0 if p >= 3 and not U.triangle_mask() else None)
    if D.n != order:
        raise InternalCheckError(f"power has {D.n} vertices, expected {order}")
    for v in range(h):
        allowed = 0
        for w in bits(H.rows[v]):
            allowed |= full << (w * block)
        if any(row & ~allowed for row in D.rows[v * block:(v + 1) * block]):
            raise InternalCheckError(
                f"power edges leave the template neighbourhood of vertex {v}")
    alpha = VertexMap(D, H, tuple(z // block for z in range(order)))
    return TruncatedPower(U, H, p, D, alpha, subsets, tuple(map(tuple, through)), block, B)


def power_local_property(TP: TruncatedPower) -> bool:
    """Validate that the power is locally homomorphic to its base along the
    color projection: for each p-subset of template vertices, the coordinate
    map at that subset is itself a homomorphism of the preimage into the base.

    Per subset I, Z[a] holds the preimage vertices with coordinate a at I:
    over each v in I, the digit mask of I's position through v, shifted to
    v's block. A vertex of Z[a] may only have preimage neighbours in the
    Z[b] with b adjacent to a, so the union of Z[a]'s rows is tested once:
    the OR over v in I of ``_digit_unions``' union of v's rows with that
    digit a. Small powers are additionally cross-checked with the generic
    search.
    """
    D, U, block = TP.D, TP.base, TP.block
    digit = _digit_masks(U.n, TP.coords)
    unions = [_digit_unions(D.rows[v * block:(v + 1) * block], U.n, TP.coords)
              for v in range(TP.template.n)]
    for I in TP.subsets:
        Z = [0] * U.n
        R = [0] * U.n  # R[a]: the union of the rows of Z[a]
        for v in I:
            j = TP.through[v].index(I)
            for a in range(U.n):
                Z[a] |= digit[j][a] << v * block
                R[a] |= unions[v][j][a]
        pre = sum(Z)
        for a in range(U.n):
            allowed = 0
            for b in bits(U.rows[a]):
                allowed |= Z[b]
            if R[a] & pre & ~allowed:
                return False
    if D.n <= 200:
        ok, _ = local_hom_check(D, list(TP.alpha.image), TP.p, U)
        if not ok:
            raise InternalCheckError("local search refutes a power the masks accepted")
    return True


def lift_homomorphism(G: Graph, gamma: VertexMap, TP: TruncatedPower) -> VertexMap:
    """Lift gamma: G -> H to a homomorphism into the power, coordinatewise.
    The p-subsets of V(H) come in lexicographic order, the order of every
    ``TP.through[v]``; each nonempty gamma-preimage is searched in place as
    ``local_hom_check`` searches, and its map gives every vertex of the preimage
    its next digit; ``CLASS_SET_LIMIT`` caps the subsets walked. The
    projection composes back to gamma.
    """
    if gamma.source != G or gamma.target != TP.template:
        raise GraphError("gamma must map G into the power's template")
    if not check_homomorphism(gamma):
        raise GraphError("gamma is not a homomorphism")
    masks = [0] * TP.template.n
    for x, v in enumerate(gamma.image):
        masks[v] |= 1 << x
    digits: list[list[int]] = [[] for _ in range(G.n)]
    for I, pre in class_unions(masks, (TP.p,), TP.p, "the lift"):
        if pre:
            image = _find_within(G, pre, TP.base)
            if image is None:
                raise GraphError(f"the preimage of subset {I} does not map to the base")
            for x in bits(pre):
                digits[x].append(image[x])
    f = VertexMap(G, TP.D, tuple(TP.encode(v, digits[x]) for x, v in enumerate(gamma.image)))
    if not check_homomorphism(f):
        raise InternalCheckError("lifted map is not a homomorphism into the power")
    if any(TP.alpha.image[f.image[x]] != gamma.image[x] for x in range(G.n)):
        raise InternalCheckError("lifted map does not project back to gamma")
    return f


def locbound_equivalence(G: Graph, U: Graph, H: Graph, p: int) -> tuple[bool, bool]:
    """Both sides of the power-vs-local-homomorphism equivalence:
    lhs = G maps into the power, rhs = some gamma: G -> H is locally
    homomorphic to U at threshold p. The two must agree.
    """
    TP = truncated_power(U, H, p)
    lhs = find_homomorphism(G, TP.D).present
    rhs = any(local_hom_check(G, gamma.image, p, U)[0]
              for gamma in enumerate_homomorphisms(G, H))
    return lhs, rhs


def representatives(p: int, n_max: int = DEFAULT_REP_ORDER) -> list[Graph]:
    """Cores of all graphs up to n_max vertices with tree-depth <= p: the
    catalog graphs that are their own cores. A core is a subgraph, so it
    lies in the same range, and the catalog holds one graph per isomorphism
    class. Desk-scale stand-in for the finite representative set of bounded
    tree-depth classes. Tree-depth is monotone under subgraphs, so the
    catalog prunes by it as it grows and only the survivors are tested for
    being cores.
    """
    catalog = generate_all_graphs(n_max, keep=lambda G: tree_depth_value(G) <= p)
    reps = [G for G in catalog if G.n and len(core(G)[1]) == G.n]
    reps.sort(key=lambda g: (g.n, g.edge_count(), g.rows))
    return reps


def _corpus_base(corpus: Sequence[Graph], colorings: Sequence[Coloring],
                 f_set: Sequence[Graph], p: int) -> list[Graph]:
    """The cores, one per isomorphism class, of the components of every
    union of min(p, k) classes of each member's k-coloring, sorted as
    ``representatives`` sorts; ``CLASS_SET_LIMIT`` caps the unions walked.

    A member lifts into the power over them along its coloring: each
    p-subset's preimage lies in one such union, so its components map into
    these cores. A connected F on at most p vertices that mapped into them
    would map into one core, a subgraph of a member, and so into the member.
    A bipartite component's core is known without a search: K1 on one
    vertex, K2 on more (it maps onto any of its edges). No other core is
    bipartite, so the isomorphism classes kept do not change.
    """
    small: set[int] = set()  # the orders of the bipartite cores found: 1, 2 or both
    comps: dict[Graph, None] = {}  # an ordered set: labelled copies are cored once
    for G, c in zip(corpus, colorings):
        if forb_member(G, f_set):
            for _, S in class_unions(c.class_masks(), (min(p, c.k),), p, "the base walk"):
                for comp in connected_components(G, S):
                    if is_bipartite(G, comp):
                        small.add(min(comp.bit_count(), 2))
                    else:
                        comps[induced_subgraph(G, comp)[0]] = None
    parts = [path_graph(k) for k in sorted(small)]  # K1 and K2 are paths
    for K, _ in map(core, comps):
        if not any(is_isomorphic(K, R) for R in parts):
            parts.append(K)
    parts.sort(key=lambda g: (g.n, g.edge_count(), g.rows))
    return parts


@dataclass(frozen=True)
class DualBuild:
    D: Graph
    power: TruncatedPower
    provenance: dict


def build_dual(corpus: Sequence[Graph], f_set: Sequence[Graph]) -> DualBuild:
    """Construct a dual graph for the forbidden family over a finite corpus.

    Pipeline: threshold p from the largest forbidden graph; the template
    size is the most colors a low tree-depth coloring of a corpus graph
    needs at p (``max_low_td_colors``); the base is the union of the cores
    that the members' own colorings need (``_corpus_base``); and the
    truncated power is the dual.
    """
    if not f_set:
        raise GraphError("forbidden family must be nonempty")
    for F in f_set:
        if not is_connected(F):
            raise GraphError("forbidden graphs must be connected")
    p = max(F.n for F in f_set)
    n_colors, colorings = max_low_td_colors(corpus, p)
    reps = _corpus_base(corpus, colorings, f_set, p)
    if not reps:
        raise GraphError("no representative avoids the forbidden family")
    U = disjoint_union(reps)
    template_size = max(n_colors, p)  # the power needs p <= |V(H)|
    # checked before K_{template_size}, which can be huge: the greedy
    # coloring of a 1,201-vertex star at p = 3 takes 1,201 colors
    power_order(U.n, template_size, p)
    H = complete_graph(template_size)
    TP = truncated_power(U, H, p)
    if not power_local_property(TP):
        raise InternalCheckError("the truncated power fails the local property")
    provenance = {
        "p": p,
        "n_colors": n_colors,
        "template_size": template_size,
        "base_order": U.n,
        "base_parts": len(reps),
        "dual_order": TP.D.n,
        "dual_edges": TP.D.edge_count(),
    }
    return DualBuild(TP.D, TP, provenance)


@dataclass(frozen=True)
class DualityReport:
    verdict: bool
    forbidden_ok: tuple[bool, ...]
    items: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.verdict else "fail",
            "forbidden_ok": list(self.forbidden_ok),
            "items": list(self.items),
        }


_STAGES = ("forbidden graph {} into the dual", "forbidden graphs into corpus graph {}",
           "corpus graph {} into the dual")


def verify_duality(corpus: Sequence[Graph], f_set: Sequence[Graph], D: Graph,
                   budget: Optional[int] = None) -> DualityReport:
    """Check the duality contract on a corpus: no forbidden graph maps to the
    dual, and membership in the forbidden-free class coincides with mapping
    into the dual. Witness maps are recorded where they exist.

    A search stopped at ``budget`` decides neither side, so it raises
    ``SizeLimitError``, prefixed with the stage it stopped in.
    """
    forbidden_ok = []
    items = []
    stage = i = 0  # an index into _STAGES, and the graph index it names
    try:
        for i, F in enumerate(f_set):
            forbidden_ok.append(not find_homomorphism(F, D, budget).present)
        for i, G in enumerate(corpus):
            stage = 1
            member = forb_member(G, f_set, budget)
            stage = 2
            r = find_homomorphism(G, D, budget)
            items.append({
                "index": i,
                "forb_member": member,
                "hom_to_dual": r.present,
                "witness": list(r.map.image) if r.present else None,
                "consistent": member == r.present,
            })
    except SizeLimitError as exc:
        raise SizeLimitError(f"{_STAGES[stage].format(i)}: {exc}") from exc
    verdict = all(forbidden_ok) and all(item["consistent"] for item in items)
    return DualityReport(verdict, tuple(forbidden_ok), tuple(items))


def regular_partition_report(G: Graph, c: Coloring, p: int,
                             reps: Sequence[Graph]) -> dict:
    """For every union of at most p color classes, match each component to a
    hom-equivalent representative. An unmatched component means the
    representative set is too small.
    """
    ok, _ = verify_low_td(G, c, p)
    if not ok:
        raise GraphError("coloring fails the low tree-depth condition")
    entries = []
    unmatched = []
    for classes, S in class_unions(c.class_masks(), range(1, min(p, c.k) + 1), p,
                                   "the partition report"):
        for comp in connected_components(G, S):
            sub, _ = induced_subgraph(G, comp)
            match = None
            for ridx, R in enumerate(reps):
                if hom_equivalent(sub, R):
                    match = ridx
                    break
            entry = {
                "classes": list(classes),
                "component": sorted(bits(comp)),
                "representative": match,
            }
            entries.append(entry)
            if match is None:
                unmatched.append(entry)
    return {
        "ok": not unmatched,
        "entries": entries,
        "unmatched": unmatched,
    }
