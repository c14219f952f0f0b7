import dataclasses
import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homdual import duality
from homdual.catalog import generate_all_graphs
from homdual.coloring import (
    find_low_td_coloring,
    make_coloring,
    max_low_td_colors,
    verify_low_td,
    verify_p_centered,
)
from homdual.duality import (
    DualBuild,
    TruncatedPower,
    build_dual,
    lift_homomorphism,
    local_hom_check,
    locbound_equivalence,
    power_local_property,
    power_order,
    regular_partition_report,
    representatives,
    truncated_power,
    verify_duality,
)
from homdual.errors import GraphError, InternalCheckError, SizeLimitError
from homdual.graphs import (
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    mask_of,
    path_graph,
)
from homdual.homs import (
    VertexMap,
    _find_within,
    check_homomorphism,
    core,
    find_homomorphism,
    forb_member,
    is_isomorphic,
)
from homdual.sparsity import tree_depth_value

from oracles import brute_homomorphism, brute_truncated_power, matches_checked_constructor


# --- local homomorphism checks ----------------------------------------------

def test_local_hom_check():
    C5, K2 = cycle_graph(5), complete_graph(2)
    # every 4 vertices of C5 induce a forest, which is bipartite
    assert local_hom_check(C5, [0, 1, 2, 3, 4], 4, K2) == (True, None)
    # at p = 5 the whole odd cycle must map, and cannot
    ok, bad = local_hom_check(C5, [0, 1, 2, 3, 4], 5, K2)
    assert not ok and bad == frozenset(range(5))
    # under a proper 3-coloring, any 2 classes induce a bipartite subgraph
    assert local_hom_check(C5, [0, 1, 0, 1, 2], 2, K2) == (True, None)
    # a value set smaller than p means the whole graph is checked
    ok, bad = local_hom_check(complete_graph(3), [0, 0, 0], 2, K2)
    assert not ok and bad == frozenset([0])


def test_local_hom_check_errors():
    with pytest.raises(GraphError):
        local_hom_check(path_graph(3), [0, 1], 1, complete_graph(2))


def value_sets(phi, p):
    """The value sets ``local_hom_check`` tries, in its order."""
    values = sorted(set(phi))
    if len(values) > p:
        return list(combinations(values, p))
    return [tuple(values)] if values else []


STOPPED = "stopped"  # a search stopped at its budget


def or_stopped(search, *args):
    """``search(*args)``, or STOPPED if the search stopped at its budget."""
    try:
        return search(*args)
    except SizeLimitError:
        return STOPPED


def per_subset_route(G, phi, p, U):
    """``local_hom_check`` as one ``find_homomorphism`` per induced
    subgraph: the result, and per preimage tried (mask, vertices, result,
    smallest budget that decides it)."""
    tried = []
    for I in value_sets(phi, p):
        pre = mask_of(v for v in range(G.n) if phi[v] in I)
        sub, old = induced_subgraph(G, pre)
        need = 0
        while (r := or_stopped(find_homomorphism, sub, U, need)) is STOPPED:
            need += 1
        tried.append((pre, old, r, need))
        if not r.present:
            return (False, frozenset(I)), tried
    return (True, None), tried


def canonical_colourings(n, k):
    """Every colouring of n vertices with values 0..k-1, each value at most
    one above every value before it."""
    out = [()]
    for _ in range(n):
        out = [c + (a,) for c in out for a in range(min(k, max(c, default=-1) + 2))]
    return out


def lift_digits(TP, z):
    """The coordinates of power vertex z, one per subset through its
    template vertex, most significant first."""
    i, out = z % TP.block, []
    for _ in range(TP.coords):
        i, d = divmod(i, TP.base.n)
        out.append(d)
    return out[::-1]


def test_local_hom_check_matches_per_subset_route(catalog5):
    """The in-place search decides every preimage as the search on the
    induced subgraph does: the same status and first map, the same
    smallest deciding budget, so the same result and failing set. Where
    the colouring is a homomorphism to K3, the lift exists exactly when
    the check passes, and each of its digits is the first map of the
    preimage of that digit's subset."""
    targets = [complete_graph(1), complete_graph(2), complete_graph(3), path_graph(3),
               cycle_graph(5)]
    K3 = complete_graph(3)
    powers = {(U, p): truncated_power(U, K3, p) for U in targets for p in (1, 2, 3)}
    for G in catalog5:
        for phi in canonical_colourings(G.n, 3):
            gamma = VertexMap(G, K3, phi)
            for U in targets:
                for p in (1, 2, 3):
                    want, tried = per_subset_route(G, phi, p, U)
                    assert local_hom_check(G, phi, p, U) == want
                    for pre, old, r, need in tried:
                        image = _find_within(G, pre, U, need)
                        assert (image is not None) == r.present
                        if r.present:
                            assert tuple(image[v] for v in old) == r.map.image
                        if need:
                            assert or_stopped(_find_within, G, pre, U, need - 1) is STOPPED
                    if not check_homomorphism(gamma):
                        continue
                    TP = powers[U, p]
                    if not want[0]:
                        with pytest.raises(GraphError, match="does not map to the base"):
                            lift_homomorphism(G, gamma, TP)
                        continue
                    digits = [lift_digits(TP, z) for z in lift_homomorphism(G, gamma, TP).image]
                    for I in TP.subsets:
                        pre = mask_of(v for v in range(G.n) if phi[v] in I)
                        sub, old = induced_subgraph(G, pre)
                        image = find_homomorphism(sub, U).map.image
                        for i, x in enumerate(old):
                            assert digits[x][TP.through[phi[x]].index(I)] == image[i]


# sha256 over (rows, p, base rows, verdict, failing value set) of
# local_hom_check on the <= 7-vertex catalog with the identity colouring,
# p = 1..7 and the bases K1, 2K1, K2, K3, C5, recorded when every preimage
# was searched, before bipartite ones were settled without a search
LOCAL_CHECK_DIGEST = "361c1d29756e2bc061cd12e11030655ff830321c22140c4c30fe660b552a77a1"


def test_local_hom_check_unchanged(catalog7):
    bases = [complete_graph(1), empty_graph(2), complete_graph(2), complete_graph(3),
             cycle_graph(5)]
    h = hashlib.sha256()
    refused = 0
    for G in catalog7:
        for p in range(1, 8):
            for U in bases:
                ok, bad = local_hom_check(G, list(range(G.n)), p, U)
                refused += not ok
                h.update(f"{G.rows} {p} {U.rows} {ok} {sorted(bad) if bad else None}\n".encode())
    assert refused == 27442
    assert h.hexdigest() == LOCAL_CHECK_DIGEST


def test_local_hom_check_builds_no_graph_per_subset(monkeypatch):
    G, K2 = cycle_graph(7), complete_graph(2)

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built for a preimage")

    monkeypatch.setattr(duality, "induced_subgraph", refuse)
    monkeypatch.setattr(duality, "find_homomorphism", refuse)
    monkeypatch.setattr(Graph, "__init__", refuse)
    assert local_hom_check(G, list(range(7)), 6, K2) == (True, None)
    assert local_hom_check(G, list(range(7)), 7, K2) == (False, frozenset(range(7)))


@st.composite
def graphs_and_colourings(draw):
    """A graph on at most 7 vertices and a colouring with values 0..4."""
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                       max_size=len(pairs)))) if keep]
    phi = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
    return build_graph(n, edges), phi


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(graphs_and_colourings(), st.integers(min_value=1, max_value=3),
       st.sampled_from([complete_graph(1), complete_graph(2), complete_graph(3),
                        path_graph(3)]))
def test_local_hom_check_matches_brute_force(case, p, U):
    """Against exhaustive map enumeration on every preimage, in the order
    the check takes the value sets."""
    G, phi = case
    want = (True, None)
    for I in value_sets(phi, p):
        sub, _ = induced_subgraph(G, mask_of(v for v in range(G.n) if phi[v] in I))
        if brute_homomorphism(sub, U) is None:
            want = (False, frozenset(I))
            break
    assert local_hom_check(G, phi, p, U) == want


# --- truncated powers ---------------------------------------------------------

def test_power_order():
    assert power_order(2, 3, 2) == 12
    assert power_order(1, 5, 1) == 5
    assert power_order(3, 4, 4) == 12  # single subset: B = 1
    with pytest.raises(SizeLimitError):
        power_order(3, 40, 20)


def test_truncated_power_shape():
    TP = truncated_power(complete_graph(2), complete_graph(3), 2)
    assert TP.D.n == 12 and TP.coords == 2 and TP.block == 4
    assert check_homomorphism(TP.alpha)
    assert TP.subsets == ((0, 1), (0, 2), (1, 2))
    assert TP.through[1] == ((0, 1), (1, 2))


def test_truncated_power_rejects_bad_parameters(monkeypatch):
    with pytest.raises(GraphError):
        truncated_power(complete_graph(2), complete_graph(3), 0)
    with pytest.raises(GraphError):
        truncated_power(complete_graph(2), complete_graph(3), 4)
    with pytest.raises(GraphError):
        truncated_power(empty_graph(0), complete_graph(3), 2)
    monkeypatch.setattr(duality, "POWER_ORDER_CAP", 100)
    with pytest.raises(SizeLimitError):
        truncated_power(complete_graph(3), complete_graph(6), 2)


def test_encode_decode_roundtrip():
    # decode each vertex through the digit masks, the one layout
    TP = truncated_power(path_graph(3), complete_graph(3), 2)
    digit = duality._digit_masks(TP.base.n, TP.coords)
    for z in range(TP.D.n):
        v, i = divmod(z, TP.block)
        assert all(sum(m >> i & 1 for m in masks) == 1 for masks in digit)
        digits = [next(a for a, m in enumerate(masks) if m >> i & 1) for masks in digit]
        assert TP.encode(v, digits) == z


def test_power_local_property():
    for U in (complete_graph(1), complete_graph(2), path_graph(3)):
        for H, p in ((complete_graph(3), 2), (complete_graph(2), 2),
                     (complete_graph(4), 3)):
            assert power_local_property(truncated_power(U, H, p))


def test_truncated_power_matches_oracle():
    # every nonempty base on at most 3 vertices, every p with order <= 5,000;
    # the power skips the constructor's checks, so each must also be the graph
    # the checked constructor makes, triangle mask included: known to be 0
    # at p >= 3 over a triangle-free base, left lazy otherwise
    templates = [complete_graph(k) for k in range(1, 6)] + [path_graph(4), cycle_graph(5)]
    cases = 0
    known = set()
    for U in generate_all_graphs(3):
        if U.n == 0:
            continue
        for H in templates:
            for p in range(1, H.n + 1):
                if power_order(U.n, H.n, p) > 5000:
                    continue
                TP = truncated_power(U, H, p)
                assert list(TP.D.rows) == brute_truncated_power(U, H, p), (U, H, p)
                known.add((TP.D._triangles is not None, p >= 3 and not U.triangle_mask()))
                assert matches_checked_constructor(TP.D), (U, H, p)
                cases += 1
    assert cases == 168
    assert known == {(True, True), (False, False)}


def test_criterion_nine_power_rows_unchanged():
    # the triangle-free subcubic dual: K1 + K2 raised to the 3-truncated
    # K5-power; the row digest was recorded before the power was rebuilt
    # on integer masks
    U = disjoint_union([complete_graph(1), complete_graph(2)])
    D = truncated_power(U, complete_graph(5), 3).D
    assert (D.n, D.edge_count()) == (3645, 58320)
    assert D._triangles == 0 and matches_checked_constructor(D)
    h = hashlib.sha256()
    for row in D.rows:
        h.update(row.to_bytes((D.n + 7) // 8, "little"))
    assert h.hexdigest() == \
        "4de8bb5c5a8d215962da7c741afccc0d8090252b565b0069975248b46bc36d55"


def _with_edge(TP, z, y):
    rows = list(TP.D.rows)
    rows[z] |= 1 << y
    rows[y] |= 1 << z
    D = Graph(TP.D.n, rows)
    return dataclasses.replace(TP, D=D, alpha=VertexMap(D, TP.template, TP.alpha.image))


def test_power_local_property_rejects_extra_edge():
    # every non-edge over adjacent template vertices breaks some shared
    # coordinate, so adding any one of them must fail the check
    TP = truncated_power(path_graph(3), complete_graph(3), 2)
    alpha, added = TP.alpha.image, 0
    for z in range(TP.D.n):
        for y in range(z + 1, TP.D.n):
            if TP.template.has_edge(alpha[z], alpha[y]) and not TP.D.has_edge(z, y):
                assert not power_local_property(_with_edge(TP, z, y)), (z, y)
                added += 1
    assert added == 3 * 81 - TP.D.edge_count()
    # above the 200-vertex cross-check: one vertex pair whose shared
    # coordinates (both 0) are not adjacent in the path
    TP = truncated_power(path_graph(3), complete_graph(5), 2)
    assert TP.D.n == 405
    z, y = TP.encode(0, [0, 0, 0, 0]), TP.encode(1, [0, 0, 0, 0])
    assert not TP.D.has_edge(z, y)
    assert power_local_property(TP)
    assert not power_local_property(_with_edge(TP, z, y))


def test_truncated_power_self_checks_raise(monkeypatch):
    K2, P3 = complete_graph(2), path_graph(3)
    real_graph, real_comb = duality.Graph, duality.math.comb

    class Crossing:  # joins the blocks of the non-adjacent ends of P3
        @staticmethod
        def _symmetric(n, rows, triangles=None):
            rows = list(rows)
            rows[0] |= 1 << (n - 1)
            rows[n - 1] |= 1
            return real_graph._symmetric(n, rows, triangles)

    class Padded:  # one vertex more than the power asked for
        @staticmethod
        def _symmetric(n, rows, triangles=None):
            return real_graph._symmetric(n + 1, list(rows) + [0], triangles)

    monkeypatch.setattr(duality, "Graph", Crossing)
    with pytest.raises(InternalCheckError, match="template neighbourhood"):
        truncated_power(K2, P3, 1)
    monkeypatch.setattr(duality, "Graph", Padded)
    with pytest.raises(InternalCheckError, match="vertices"):
        truncated_power(K2, P3, 1)
    monkeypatch.undo()
    monkeypatch.setattr(duality.math, "comb", lambda n, k: real_comb(n, k) + 1)
    with pytest.raises(InternalCheckError, match="subsets"):
        truncated_power(K2, complete_graph(3), 2)


def test_power_local_property_cross_check_raises(monkeypatch):
    TP = truncated_power(complete_graph(2), complete_graph(3), 2)
    monkeypatch.setattr(duality, "local_hom_check", lambda *a: (False, frozenset()))
    with pytest.raises(InternalCheckError):
        power_local_property(TP)


def test_build_dual_local_property_raises(monkeypatch):
    monkeypatch.setattr(duality, "power_local_property", lambda TP: False)
    with pytest.raises(InternalCheckError):
        build_dual([complete_graph(1)], [complete_graph(2)])


def test_projection_of_single_vertex_base():
    # with a one-vertex base the power collapses onto the template
    for H in (complete_graph(3), cycle_graph(5), path_graph(4)):
        TP = truncated_power(complete_graph(1), H, 1)
        assert is_isomorphic(TP.D, H)


# --- lifting -------------------------------------------------------------------

def test_lift_homomorphism():
    C5, K3 = cycle_graph(5), complete_graph(3)
    TP = truncated_power(complete_graph(2), K3, 2)
    gamma = VertexMap(C5, K3, (0, 1, 0, 1, 2))
    f = lift_homomorphism(C5, gamma, TP)
    assert check_homomorphism(f)
    assert tuple(TP.alpha.image[f.image[x]] for x in range(5)) == gamma.image


def test_lift_rejects_non_homomorphism():
    C5, K3 = cycle_graph(5), complete_graph(3)
    TP = truncated_power(complete_graph(2), K3, 2)
    with pytest.raises(GraphError):
        lift_homomorphism(C5, VertexMap(C5, K3, (0, 0, 1, 1, 2)), TP)
    with pytest.raises(GraphError):
        lift_homomorphism(C5, VertexMap(C5, complete_graph(4), (0, 1, 0, 1, 2)), TP)


def test_class_set_walks_share_one_cap():
    """Every class-set walk is refused before it starts past
    ``CLASS_SET_LIMIT``, with one message shape; the local check and the
    lift, once uncapped, are refused the same way."""
    P40, E20 = path_graph(40), empty_graph(20)
    star = build_graph(1201, [(0, i) for i in range(1, 1201)])
    TP = truncated_power(complete_graph(1), empty_graph(70000), 1)  # C(70000, 1) subsets
    calls = [
        (lambda: verify_p_centered(E20, make_coloring(E20, range(20)), 11),
         "centered verification capped at 65536 color sets (k = 20 colors at p = 11 give more)"),
        (lambda: verify_low_td(P40, make_coloring(P40, range(40)), 20),
         "low tree-depth verification capped at 65536 color sets "
         "(k = 40 colors at p = 20 give more)"),
        (lambda: build_dual([star], [complete_graph(3)]),
         "the base walk capped at 65536 color sets (k = 1201 colors at p = 3 give more)"),
        (lambda: local_hom_check(P40, list(range(40)), 20, complete_graph(2)),
         "the local check capped at 65536 color sets (k = 40 colors at p = 20 give more)"),
        (lambda: lift_homomorphism(E20, VertexMap(E20, TP.template, tuple(range(20))), TP),
         "the lift capped at 65536 color sets (k = 70000 colors at p = 1 give more)"),
    ]
    for call, message in calls:
        with pytest.raises(SizeLimitError) as exc:
            call()
        assert str(exc.value) == message


def test_one_vertex_base_bounds_the_coordinate_table():
    """Over K1 the power's order is the template's, so the order cap leaves
    the h * B subsets through the template vertices unbounded; they are
    capped on their own, before any subset is listed."""
    K1 = complete_graph(1)
    with pytest.raises(SizeLimitError, match=r"power coordinate table 200 \* 19701 exceeds"):
        truncated_power(K1, complete_graph(200), 3)
    TP = truncated_power(K1, complete_graph(20), 3)  # h * B = 20 * 171
    assert TP.D.n == 20 and TP.coords == 171
    assert TP.through == tuple(tuple(I for I in TP.subsets if v in I) for v in range(20))


def test_lift_homomorphism_self_checks_raise(monkeypatch):
    C5, K3 = cycle_graph(5), complete_graph(3)
    TP = truncated_power(complete_graph(2), K3, 2)
    gamma = VertexMap(C5, K3, (0, 1, 0, 1, 2))
    # a projection shifted by one template vertex no longer composes to gamma
    shifted = VertexMap(TP.D, K3, tuple((a + 1) % 3 for a in TP.alpha.image))
    with pytest.raises(InternalCheckError, match="project"):
        lift_homomorphism(C5, gamma, dataclasses.replace(TP, alpha=shifted))
    real_check = duality.check_homomorphism
    monkeypatch.setattr(duality, "check_homomorphism",
                        lambda f: f.target != TP.D and real_check(f))
    with pytest.raises(InternalCheckError, match="not a homomorphism"):
        lift_homomorphism(C5, gamma, TP)


def test_lift_refuses_gamma_not_locally_homomorphic():
    """A proper 3-colouring of C5 at p = 3 puts the whole odd cycle in one
    preimage, which has no map to K2: the lift refuses and names the
    subset."""
    C5, K3 = cycle_graph(5), complete_graph(3)
    TP = truncated_power(complete_graph(2), K3, 3)
    gamma = VertexMap(C5, K3, (0, 1, 0, 1, 2))
    assert local_hom_check(C5, gamma.image, 3, complete_graph(2)) == \
        (False, frozenset(range(3)))
    with pytest.raises(GraphError, match=r"subset \(0, 1, 2\) does not map to the base"):
        lift_homomorphism(C5, gamma, TP)


# sha256 over every lift (or refusal) of a canonical homomorphism from the
# <= 5-vertex catalog to K3 and K4, over the bases K1, K2, P3 and C5 at every
# p, recorded when the lift read its digits from per-subset witness
# dictionaries
LIFT_DIGEST = "aa2d0443654ba1e4f40e2055ce7c34a15087c56daa8ab6c6f3825e3a7fb15a71"


def test_lifts_unchanged(catalog5):
    lines = []
    for H in (complete_graph(3), complete_graph(4)):
        for U in (complete_graph(1), complete_graph(2), path_graph(3), cycle_graph(5)):
            for p in range(1, H.n + 1):
                TP = truncated_power(U, H, p)
                for G in catalog5:
                    for phi in canonical_colourings(G.n, H.n):
                        gamma = VertexMap(G, H, phi)
                        if not check_homomorphism(gamma):
                            continue
                        try:
                            image = lift_homomorphism(G, gamma, TP).image
                        except GraphError:
                            image = "refused"
                        lines.append(f"{H.n} {U.rows} {p} {G.rows} {gamma.image} {image}")
    assert sum(line.endswith("refused") for line in lines) == 2758
    assert len(lines) == 8734 + 2758
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LIFT_DIGEST


# --- the power / local-homomorphism equivalence ---------------------------------

def test_locbound_equivalence_examples():
    assert locbound_equivalence(cycle_graph(5), complete_graph(2),
                                complete_graph(3), 2) == (True, True)
    assert locbound_equivalence(empty_graph(2), complete_graph(1),
                                complete_graph(2), 2) == (True, True)
    # an odd cycle with large odd girth does not fit a bipartite-local bound
    assert locbound_equivalence(complete_graph(3), complete_graph(1),
                                complete_graph(3), 2) == (False, False)
    # a triangle against a bipartite base still fits at p = 2: pairs of
    # color classes only ever induce single edges
    assert locbound_equivalence(complete_graph(3), complete_graph(2),
                                complete_graph(3), 2) == (True, True)


def test_locbound_sides_agree(catalog4):
    for G in catalog4:
        if G.n > 3:
            continue
        for U in (complete_graph(1), complete_graph(2)):
            for H in (complete_graph(2), complete_graph(3)):
                lhs, rhs = locbound_equivalence(G, U, H, 2)
                assert lhs == rhs, (G, U, H)


# --- representatives and the dual pipeline --------------------------------------

def test_representatives_known_sets():
    reps = representatives(1, 5)
    assert len(reps) == 1 and is_isomorphic(reps[0], complete_graph(1))
    reps = representatives(2, 5)
    assert [r.n for r in reps] == [1, 2]
    assert is_isomorphic(reps[1], complete_graph(2))
    reps = representatives(3, 6)
    assert len(reps) == 3
    for r, expect in zip(reps, (1, 2, 3)):
        assert is_isomorphic(r, complete_graph(expect))


def test_representatives_unchanged():
    """Rows of every representative set for p 1-5 and n 1-6, as recorded when
    cores came from a subset-by-size search deduplicated by isomorphism."""
    h = hashlib.sha256()
    for p in range(1, 6):
        for n in range(1, 7):
            for R in representatives(p, n):
                h.update(f"{p} {n} {R.n} {list(R.rows)}\n".encode())
    assert h.hexdigest() == \
        "3532bfbdaddfbb01ba82757a21563e1c633892bc07921f755c5cfaa3d2ba997b"


def test_corpus_base_covers_c7(subcubic7):
    """The base holds the cores the members' colorings need, at any order.
    With C5 forbidden (p = 5), C7 is a C5-free core of tree-depth 4 on 7
    vertices: the base is K1 + K2 + C7, and the 50-vertex dual takes C7
    (item 89) with every other item of the corpus."""
    C5, C7 = cycle_graph(5), cycle_graph(7)
    assert tree_depth_value(C7) == 4 and len(core(C7)[1]) == 7 and forb_member(C7, [C5])
    build = build_dual(subcubic7, [C5])
    assert build.provenance["p"] == 5 and build.D.n == 50
    parts = (complete_graph(1), complete_graph(2), C7)
    assert build.provenance["base_parts"] == 3
    assert is_isomorphic(build.power.base, disjoint_union(parts))
    report = verify_duality(subcubic7, [C5], build.D)
    assert report.verdict and report.forbidden_ok == (True,)
    item = report.items[89]
    assert is_isomorphic(subcubic7[89], C7)
    assert item["forb_member"] and item["hom_to_dual"] and item["consistent"]


def test_every_member_lifts_along_its_own_coloring(subcubic7):
    """Every member of the corpus lifts into the dual along the coloring
    the build sized its template with: K3 forbidden on the connected
    subcubic graphs on at most 7 vertices, C5 on the same, and K4 on those
    on at most 5."""
    K3, C5, K4 = complete_graph(3), cycle_graph(5), complete_graph(4)
    subcubic5 = [G for G in subcubic7 if G.n <= 5]
    for f_set, corpus, members in [([K3], subcubic7, 54), ([C5], subcubic7, 41),
                                   ([K4], subcubic5, 19)]:
        TP = build_dual(corpus, f_set).power
        n_colors, colorings = max_low_td_colors(corpus, TP.p)
        assert n_colors <= TP.template.n
        lifted = 0
        for G, c in zip(corpus, colorings):
            if forb_member(G, f_set):
                f = lift_homomorphism(G, VertexMap(G, TP.template, c.colors), TP)
                assert check_homomorphism(f), (f_set, G)
                lifted += 1
        assert lifted == members, f_set


def test_k4_dual_matches_checked_constructor(subcubic7):
    """The K4-forbidden dual on the connected subcubic graphs on at most 5
    vertices: its base has a triangle, so the power's mask is found lazily,
    and it must be the checked constructor's. The power is built afresh,
    since the build's own checks have already asked for the mask."""
    corpus = [G for G in subcubic7 if G.n <= 5]
    built = build_dual(corpus, [complete_graph(4)]).power
    D = truncated_power(built.base, built.template, built.p).D
    assert D._triangles is None
    assert matches_checked_constructor(D)
    assert (D.n, D.triangle_mask().bit_count()) == (44, 12)


def test_build_dual_degenerate():
    build = build_dual([complete_graph(1)], [complete_graph(2)])
    assert build.power.p == 2
    assert build.power.base.n == 1  # only K1 avoids an edge
    assert build.provenance["template_size"] == 2
    assert build.D.n == 2 and build.D.edge_count() == 0


def test_build_dual_checks_power_cap_before_template(monkeypatch):
    real = duality.complete_graph

    def small_only(n):  # K3 is built for the forbidden family
        if n > 3:
            raise AssertionError(f"K_{n} built before the power cap was checked")
        return real(n)

    monkeypatch.setattr(duality, "complete_graph", small_only)
    # the greedy coloring of the star at p = 3 is a rainbow: 1,201 colors,
    # whose C(1201, 3) class sets the base walk refuses to take
    star = build_graph(1201, [(0, i) for i in range(1, 1201)])
    with pytest.raises(SizeLimitError, match="the base walk capped at 65536 color sets"):
        build_dual([star], [complete_graph(3)])
    # a triangle-free subcubic graph on 7 vertices that needs five colours
    # at p = 3: the power over its base K1 + K2 has 5 * 3^6 vertices, one
    # above a lowered cap
    G = build_graph(7, [(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (1, 6), (2, 5), (2, 6), (3, 6)])
    assert find_low_td_coloring(G, 3).coloring.k == 5
    monkeypatch.setattr(duality, "POWER_ORDER_CAP", 3644)
    with pytest.raises(SizeLimitError, match="power order 3645 exceeds cap 3644"):
        build_dual([G], [complete_graph(3)])


def test_build_dual_checks_coordinate_table_before_template(monkeypatch):
    """The power's size rule refuses the coordinate table before K_h is
    built: forbidding K2 leaves K1 as the only member and the base, and the
    star's greedy coloring at p = 2 is a rainbow of 317 colors, so the power
    over K1 has order 317 but 317 * 316 subsets through its vertices."""
    built = []
    real = duality.complete_graph

    def spy(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(duality, "complete_graph", spy)
    star = build_graph(317, [(0, i) for i in range(1, 317)])
    with pytest.raises(SizeLimitError, match=r"^power coordinate table 317 \* 316 exceeds cap 100000$"):
        build_dual([star, complete_graph(1)], [complete_graph(2)])
    assert built == []


def test_build_dual_rejects_bad_forbidden_sets():
    with pytest.raises(GraphError):
        build_dual([complete_graph(1)], [])
    # K1 maps into every nonempty graph, so no representative is left
    with pytest.raises(GraphError, match="no representative avoids"):
        build_dual([complete_graph(1)], [complete_graph(1)])
    disconnected = disjoint_union([path_graph(2), path_graph(2)])
    with pytest.raises(GraphError):
        build_dual([complete_graph(1)], [disconnected])


def test_build_dual_triangle_free_small():
    corpus = [path_graph(n) for n in range(1, 5)] + [cycle_graph(4), cycle_graph(5)]
    f_set = [complete_graph(3)]
    build = build_dual(corpus, f_set)
    assert build.power.p == 3
    assert find_homomorphism(complete_graph(3), build.D).status == "absent"
    report = verify_duality(corpus, f_set, build.D)
    assert report.verdict and all(report.forbidden_ok)
    assert all(item["consistent"] for item in report.items)


def test_verify_duality_catches_bad_dual():
    # a dual containing the forbidden graph itself cannot pass
    report = verify_duality([path_graph(2)], [complete_graph(3)],
                            complete_graph(3))
    assert not report.verdict
    assert report.forbidden_ok == (False,)
    assert report.to_dict()["verdict"] == "fail"


def test_verify_duality_budget_stop_names_stage():
    """A search stopped at its budget decides neither side of the duality,
    so ``verify_duality`` raises and names the stage it stopped in; with
    room to finish, the same calls return a report."""
    C5, C7, K3 = cycle_graph(5), cycle_graph(7), complete_graph(3)
    corpus = [complete_graph(1), C7]
    for f_set, D, budget, stage in [
            ([C5], K3, 4, "forbidden graph 0 into the dual"),  # C5 -> K3: 5 nodes
            ([C5], C5, 10, "forbidden graphs into corpus graph 1"),  # C5 -> C7: 21
            ([K3], C5, 5, "corpus graph 1 into the dual")]:  # C7 -> C5: 8
        with pytest.raises(SizeLimitError,
                           match=f"^{stage}: search stopped at its budget of {budget} nodes$"):
            verify_duality(corpus, f_set, D, budget)
        assert verify_duality(corpus, f_set, D, budget * 10) == verify_duality(corpus, f_set, D)


def test_verify_duality_flags_inconsistent_member():
    # K3 is a forbidden member, and maps into any graph with a triangle
    corpus = [complete_graph(3), path_graph(2)]
    report = verify_duality(corpus, [complete_graph(4)], complete_graph(3))
    by_index = {item["index"]: item for item in report.items}
    assert by_index[0]["forb_member"] and by_index[0]["hom_to_dual"]
    assert by_index[0]["consistent"]
    witness = by_index[1]["witness"]
    assert witness is not None and len(witness) == 2


# --- regular partitions ----------------------------------------------------------

def test_regular_partition_report():
    from homdual.coloring import make_coloring

    P4 = path_graph(4)
    c = make_coloring(P4, [0, 1, 2, 0])
    reps = [complete_graph(1), complete_graph(2)]
    rep = regular_partition_report(P4, c, 2, reps)
    assert rep["ok"] and not rep["unmatched"]
    assert all(e["representative"] is not None for e in rep["entries"])
    # a representative set with no edge cannot cover the path's components
    rep = regular_partition_report(P4, c, 2, [complete_graph(1)])
    assert not rep["ok"] and rep["unmatched"]
    with pytest.raises(GraphError):
        regular_partition_report(P4, make_coloring(P4, [0, 1, 0, 1]), 2, reps)
