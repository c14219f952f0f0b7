import hashlib
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homdual import homs
from homdual.errors import GraphError, SizeLimitError
from homdual.graphs import (
    Graph,
    _triangle_walk,
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
    ABSENT,
    PRESENT,
    VertexMap,
    check_homomorphism,
    core,
    enumerate_homomorphisms,
    find_homomorphism,
    forb_member,
    hom_equivalent,
    is_isomorphic,
)

from oracles import (
    brute_core,
    brute_homomorphism,
    brute_homomorphisms,
    brute_max_clique,
    brute_triangle_mask,
    brute_twin_representatives,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def grotzsch():
    """Mycielskian of C5: triangle-free, 11 vertices, chromatic number 4."""
    rim = [(i, (i + 1) % 5) for i in range(5)]
    twins = [(5 + i, (i + d) % 5) for i in range(5) for d in (1, -1)]
    hub = [(10, 5 + i) for i in range(5)]
    return build_graph(11, rim + twins + hub)


def triangle_free_targets():
    return [cycle_graph(5), petersen(), grotzsch()]


def doubled_c5():
    """C5 with vertex i doubled into the non-adjacent twins i and i + 5."""
    return build_graph(10, [(i + a, (i + 1) % 5 + b)
                            for i in range(5) for a in (0, 5) for b in (0, 5)])


def twin_rich_targets():
    """K_{2,3}, K_{3,3}, C4, the star K_{1,4} and the doubled C5."""
    k23 = build_graph(5, [(u, v) for u in range(2) for v in range(2, 5)])
    k33 = build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    star = build_graph(5, [(0, v) for v in range(1, 5)])
    return [k23, k33, cycle_graph(4), star, doubled_c5()]


STOPPED = "stopped"  # a search stopped at its budget


def find_or_stop(G, H, budget=None):
    """``find_homomorphism`` as (status, image), with STOPPED for a search
    stopped at its budget."""
    try:
        r = find_homomorphism(G, H, budget)
    except SizeLimitError:
        return STOPPED, None
    return r.status, r.map.image if r.present else None


def plain_find(G, H, budget=None, twins=False):
    """``find_homomorphism`` without the look-ahead and, unless ``twins``,
    without the twin restriction: the same order, forward checks and start
    domains. (status, image), with STOPPED for a search stopped at its
    budget."""
    if G.n == 0:
        return PRESENT, ()
    if H.n == 0:
        return ABSENT, None
    domains = homs._start_domains(G, H, G.triangle_mask())
    if domains is None:
        return ABSENT, None
    if twins:
        domains = [d & H.twin_representatives() for d in domains]
    clique = homs._max_clique_mask(G, G.full_mask)
    order = homs._search_order(G, clique, G.full_mask)
    try:
        for image in homs._search(order, domains, H.rows, G.rows, budget):
            return PRESENT, tuple(image)
    except SizeLimitError:
        return STOPPED, None
    return ABSENT, None


def test_vertex_map_and_check():
    P3, K2 = path_graph(3), complete_graph(2)
    f = VertexMap(P3, K2, (0, 1, 0))
    assert check_homomorphism(f)
    assert f.image[1] == 1
    assert not check_homomorphism(VertexMap(P3, K2, (0, 0, 1)))


def test_vertex_map_rejects_bad_input():
    P3, K2 = path_graph(3), complete_graph(2)
    with pytest.raises(GraphError):
        VertexMap(P3, K2, (0, 7))  # too short, and 7 is no vertex of K2
    with pytest.raises(GraphError):
        VertexMap(P3, K2, (0, 1, 2))
    with pytest.raises(GraphError):
        VertexMap(P3, K2, (0, -1, 0))


def test_input_checks_survive_optimize_flag():
    """The checks are explicit, so ``python -O`` keeps them."""
    code = (
        "from homdual.coloring import Coloring\n"
        "from homdual.errors import GraphError\n"
        "from homdual.graphs import complete_graph, path_graph\n"
        "from homdual.homs import VertexMap\n"
        "P3 = path_graph(3)\n"
        "for make in (lambda: VertexMap(P3, complete_graph(2), (0, 7)),\n"
        "             lambda: Coloring(P3, (0, 5), 1)):\n"
        "    try:\n"
        "        make()\n"
        "    except GraphError:\n"
        "        continue\n"
        "    raise SystemExit(3)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_find_homomorphism_examples():
    assert find_homomorphism(cycle_graph(5), complete_graph(3)).status == PRESENT
    assert find_homomorphism(complete_graph(3), cycle_graph(5)).status == ABSENT
    assert find_homomorphism(cycle_graph(6), complete_graph(2)).status == PRESENT
    # into a single vertex iff edgeless
    assert find_homomorphism(empty_graph(4), complete_graph(1)).present
    assert not find_homomorphism(path_graph(2), complete_graph(1)).present
    # degenerate sizes
    assert find_homomorphism(empty_graph(0), empty_graph(0)).present
    assert not find_homomorphism(complete_graph(1), empty_graph(0)).present


def test_found_maps_are_homomorphisms():
    r = find_homomorphism(cycle_graph(7), complete_graph(3))
    assert r.present and check_homomorphism(r.map)
    assert r.map.source == cycle_graph(7)


def test_odd_cycle_order():
    """C_{2k+1} maps to C_{2l+1} exactly when k >= l."""
    for k in range(1, 5):
        for l in range(1, 5):
            r = find_homomorphism(cycle_graph(2 * k + 1), cycle_graph(2 * l + 1))
            assert r.present == (k >= l), (k, l)


def test_find_homomorphism_matches_oracle(catalog5):
    for G in catalog5:
        for H in catalog5 + triangle_free_targets():
            if G.n == 5 and H.n > 5:
                continue  # 10^5+ maps each; the triangle filter test covers these
            r = find_homomorphism(G, H)
            assert r.status in (PRESENT, ABSENT)
            assert r.present == (brute_homomorphism(G, H) is not None), (G, H)
            assert not r.present or check_homomorphism(r.map)


def test_find_homomorphism_witnesses_pinned(catalog5):
    """Status and image of every search over the <= 5-vertex catalog into
    the catalog and three triangle-free targets, as one digest: a change to
    the assignment order or the image order shows here."""
    lines = []
    for G in catalog5:
        for H in catalog5 + triangle_free_targets():
            r = find_homomorphism(G, H)
            lines.append(f"{r.status} {r.map.image if r.present else ''}")
    assert len(lines) == 2968
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f1ee84b445b6679bc2395ee237ebf4d2bb714b91ac2d17f4d501e46a00b7c7d1"


def test_deep_sources_do_not_recurse():
    P, K2 = path_graph(1200), complete_graph(2)
    r = find_homomorphism(P, K2)
    assert r.present and check_homomorphism(r.map)
    maps = list(enumerate_homomorphisms(P, K2))
    assert [f.image[:3] for f in maps] == [(0, 1, 0), (1, 0, 1)]


def test_triangle_filter_refutes_before_branching(catalog5):
    """A graph with a triangle has no homomorphism to a triangle-free one,
    and the search says so before it tries a single assignment."""
    for H in triangle_free_targets():
        assert H.triangle_mask() == 0
        for G in catalog5:
            if brute_triangle_mask(G):
                assert find_homomorphism(G, H, budget=1).status == ABSENT, (G, H)
                assert list(enumerate_homomorphisms(G, H)) == []
                assert forb_member(H, [G], budget=1) is True
            else:
                # every triangle-free graph on <= 5 vertices maps to C5
                r = find_homomorphism(G, H)
                assert r.present and check_homomorphism(r.map), (G, H)


def test_triangle_mask(catalog5, mixed_density_graphs):
    """The triangle mask, on the small catalog and on random graphs of up
    to 60 vertices, sparse to dense; ``build_graph`` leaves it to the first
    call."""
    for G in catalog5 + triangle_free_targets() + mixed_density_graphs:
        assert G.triangle_mask() == brute_triangle_mask(G), G
    paw = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert paw.triangle_mask() == 0b0111


def test_triangle_mask_leaves_equality_and_hash():
    a = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    b = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    a.triangle_mask()
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_max_clique_matches_oracle(catalog6):
    """On every vertex mask, the triangles of the induced subgraph are
    found, and the exact branch returns the numerically largest maximum
    clique."""
    for G in catalog6 + [petersen(), doubled_c5()]:
        for mask in range(1 << G.n):
            sub, verts = induced_subgraph(G, mask)
            tri = brute_triangle_mask(sub)
            in_triangle = _triangle_walk(G.rows, mask)
            assert in_triangle == mask_of(v for i, v in enumerate(verts) if tri >> i & 1)
            got = homs._max_clique_mask(G, mask)
            assert got == brute_max_clique(G, mask), (G, mask)


def test_twin_representatives(catalog5):
    for G in catalog5 + triangle_free_targets() + twin_rich_targets():
        assert G.twin_representatives() == brute_twin_representatives(G), G
    assert [H.twin_representatives() for H in twin_rich_targets()] == \
        [0b00101, 0b001001, 0b0011, 0b00011, 0b0000011111]
    assert cycle_graph(5).twin_representatives() == cycle_graph(5).full_mask


def test_twin_representatives_leave_equality_and_hash():
    a, b = doubled_c5(), doubled_c5()
    a.twin_representatives()
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def decided_only_by_find(sources, twins):
    """Checks ``find_homomorphism`` against ``plain_find``: the same first
    map, and at budgets 1, 2, 5 and 20 the same answer on each pair the
    plain search decides. Returns how many (pair, budget) cases only
    ``find_homomorphism`` decides."""
    decided_only = 0
    for G in sources:
        for H in sources + triangle_free_targets() + twin_rich_targets():
            full = find_or_stop(G, H)
            assert full == plain_find(G, H, twins=twins), (G, H)
            for budget in (1, 2, 5, 20):
                got = find_or_stop(G, H, budget)
                plain = plain_find(G, H, budget, twins)
                if plain[0] != STOPPED:
                    assert got == plain, (G, H, budget)
                elif got[0] != STOPPED:
                    assert got == full, (G, H, budget)
                    decided_only += 1
    return decided_only


def test_twin_restriction_keeps_first_map_and_decisions(catalog5):
    """Against the search over every image: the same first map, and at
    every budget each pair the plain search decides gets the same answer.
    Some pairs are decided only with the restriction."""
    assert decided_only_by_find(catalog5, twins=False) > 0


def test_look_ahead_keeps_first_map_and_decisions(catalog5):
    """Against the same search without the look-ahead: the same first map,
    and at every budget each pair it decides gets the same answer. Some
    pairs are decided only with the look-ahead."""
    assert decided_only_by_find(catalog5, twins=True) > 0


@st.composite
def small_graphs(draw, n_max):
    n = draw(st.integers(min_value=0, max_value=n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_graphs(6), small_graphs(7))
def test_find_homomorphism_matches_brute_force(G, H):
    """Existence as exhaustive map enumeration finds it, and a checked map."""
    r = find_homomorphism(G, H)
    assert r.status in (PRESENT, ABSENT)
    assert r.present == (brute_homomorphism(G, H) is not None)
    assert not r.present or check_homomorphism(r.map)


def test_enumerate_homomorphisms_keeps_twins(catalog4):
    """Enumeration lists every map, so it tries every twin."""
    H = doubled_c5()
    for G in catalog4:
        got = [f.image for f in enumerate_homomorphisms(G, H)]
        assert got == brute_homomorphisms(G, H), G


def test_budget_stop_raises():
    """A search stopped at its budget decides nothing, so it raises rather
    than answer."""
    with pytest.raises(SizeLimitError, match="search stopped at its budget of 1 nodes"):
        find_homomorphism(cycle_graph(5), complete_graph(3), budget=1)
    with pytest.raises(SizeLimitError, match="search stopped at its budget of 1 nodes"):
        forb_member(cycle_graph(9), [cycle_graph(9)], budget=1)


def test_enumerate_homomorphisms_counts(catalog4):
    assert sum(1 for _ in enumerate_homomorphisms(complete_graph(2), complete_graph(3))) == 6
    assert sum(1 for _ in enumerate_homomorphisms(path_graph(3), complete_graph(2))) == 2
    # the same maps as exhaustive enumeration, in the same (lexicographic)
    # order, also where the triangle filter narrows the start domains
    for G in catalog4:
        for H in catalog4 + [cycle_graph(5)]:
            got = [f.image for f in enumerate_homomorphisms(G, H)]
            assert got == brute_homomorphisms(G, H), (G, H)


def test_forb_member():
    f_set = [complete_graph(3)]
    assert forb_member(cycle_graph(5), f_set) is True
    assert forb_member(complete_graph(4), f_set) is False
    assert forb_member(empty_graph(0), f_set) is True
    # disconnected forbidden graphs are allowed here; they map iff every
    # component does
    F = disjoint_union([complete_graph(3), cycle_graph(5)])
    assert forb_member(cycle_graph(5), [F]) is True
    assert forb_member(complete_graph(4), [F]) is False


def test_hom_equivalent():
    assert hom_equivalent(cycle_graph(6), complete_graph(2))
    assert hom_equivalent(path_graph(4), complete_graph(2))
    assert not hom_equivalent(cycle_graph(5), complete_graph(3))
    assert not hom_equivalent(cycle_graph(5), complete_graph(2))


def test_core_examples():
    assert len(core(petersen())[1]) == 10 and len(core(doubled_c5())[1]) < 10
    assert is_isomorphic(core(cycle_graph(6))[0], complete_graph(2))
    assert is_isomorphic(core(path_graph(4))[0], complete_graph(2))
    G = disjoint_union([complete_graph(2), complete_graph(3)])
    assert is_isomorphic(core(G)[0], complete_graph(3))
    for n in range(1, 6):
        assert is_isomorphic(core(complete_graph(n))[0], complete_graph(n))
    assert is_isomorphic(core(cycle_graph(5))[0], cycle_graph(5))
    assert core(empty_graph(3))[0].n == 1


def test_core_properties(catalog5):
    rng = random.Random(7)
    extra = []
    for n in (6, 7):
        for _ in range(10):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            extra.append(build_graph(n, edges))
    for G in catalog5 + extra:
        if G.n == 0:
            continue
        C, _ = core(G)
        assert hom_equivalent(G, C)
        assert is_isomorphic(core(C)[0], C)  # idempotent
        assert C.n <= G.n


def test_core_matches_oracle(catalog6):
    """The retraction pass finds a core of the subset-by-size oracle's order,
    hom-equivalent to it."""
    rng = random.Random(17)
    extra = []
    for _ in range(6):
        edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.4]
        extra.append(build_graph(7, edges))
    for G in catalog6 + extra:
        if G.n == 0:
            continue
        (C, _), B = core(G), brute_core(G)
        assert C.n == B.n, G
        assert brute_homomorphism(C, B) is not None and brute_homomorphism(B, C) is not None


def test_core_has_no_retraction_left(catalog7):
    """The result is the induced subgraph on its kept vertices, G maps into
    it, and it maps into none of its one-vertex-deleted subgraphs."""
    for G in catalog7 + [petersen(), doubled_c5()]:
        if G.n == 0:
            continue
        C, kept = core(G)
        sub, old = induced_subgraph(G, mask_of(kept))
        assert old == kept and sub.rows == C.rows
        assert find_homomorphism(G, C).present
        for v in range(C.n):
            smaller, _ = induced_subgraph(C, C.full_mask & ~(1 << v))
            assert find_homomorphism(C, smaller).status == ABSENT, (G, v)


def test_core_above_ten_vertices():
    pendant = [(0, 11), (11, 12), (12, 13), (13, 14)]
    G = build_graph(15, grotzsch().edges() + pendant)
    assert is_isomorphic(core(G)[0], grotzsch())
    G = disjoint_union([cycle_graph(8), cycle_graph(5), cycle_graph(8)])
    assert is_isomorphic(core(G)[0], cycle_graph(5))
    assert is_isomorphic(core(path_graph(200))[0], complete_graph(2))


def test_is_isomorphic():
    # the same 4-cycle under two labelings
    square = build_graph(4, [(0, 1), (1, 3), (3, 2), (2, 0)])
    assert is_isomorphic(square, cycle_graph(4))
    assert not is_isomorphic(complete_graph(3), path_graph(3))
    assert not is_isomorphic(path_graph(3), path_graph(4))
    assert is_isomorphic(empty_graph(0), empty_graph(0))
    # same degree sequence, different graphs
    G1 = disjoint_union([cycle_graph(6)])
    G2 = disjoint_union([cycle_graph(3), cycle_graph(3)])
    assert not is_isomorphic(G1, G2)


def relabel(G, perm):
    """G with vertex v renamed perm[v]."""
    rows = [0] * G.n
    for v in range(G.n):
        for u in range(G.n):
            if G.rows[v] >> u & 1:
                rows[perm[v]] |= 1 << perm[u]
    return Graph(G.n, rows)


def switched(G, a, b, c, d):
    """G with edges ab, cd replaced by ac, bd: the same degrees."""
    rows = list(G.rows)
    for x, y in ((a, b), (c, d), (a, c), (b, d)):
        rows[x] ^= 1 << y
        rows[y] ^= 1 << x
    return Graph(G.n, rows)


def two_switch(G, rng):
    """A random switch of G: mostly another graph."""
    edges = G.edges()
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not G.has_edge(a, c) and not G.has_edge(b, d):
            return switched(G, a, b, c, d)


def to_networkx(G):
    nx = pytest.importorskip("networkx")
    N = nx.Graph()
    N.add_nodes_from(range(G.n))
    N.add_edges_from(G.edges())
    return N


def test_is_isomorphic_matches_networkx(catalog6):
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    pairs = []
    for G in catalog6:
        perm = list(range(G.n))
        rng.shuffle(perm)
        pairs.append((G, relabel(G, perm)))
        other = catalog6[rng.randrange(len(catalog6))]
        if other.n == G.n:
            pairs.append((G, relabel(other, perm)))
    # 10 to 12 vertices, where the degree sequences agree
    cubic10 = build_graph(10, [(i, (i + 1) % 10) for i in range(10)]
                          + [(i, i + 5) for i in range(5)])  # Moebius ladder
    P = petersen()
    pairs += [(P, cubic10), (P, relabel(P, [3, 7, 1, 9, 0, 5, 2, 8, 6, 4]))]
    for n in (11, 12):
        for _ in range(4):
            G = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < 0.4])
            perm = list(range(n))
            rng.shuffle(perm)
            H = relabel(G, perm)
            pairs += [(G, H), (G, two_switch(H, rng))]
    verdicts = [is_isomorphic(G, H) for G, H in pairs]
    assert verdicts == [nx.is_isomorphic(to_networkx(G), to_networkx(H)) for G, H in pairs]
    assert any(verdicts) and not all(verdicts)
    assert is_isomorphic(P, relabel(P, [3, 7, 1, 9, 0, 5, 2, 8, 6, 4]))
    assert not is_isomorphic(P, cubic10)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_graphs(8), st.data())
def test_is_isomorphic_matches_networkx_on_relabellings_and_switches(G, data):
    """Injectivity rests on the reject hook alone. A relabelling must be
    found isomorphic; a 2-switch of it (edges ab, cd replaced by ac, bd:
    the same degree sequence, often another graph, as C6 against 2K3)
    must get networkx's verdict."""
    nx = pytest.importorskip("networkx")
    H = relabel(G, data.draw(st.permutations(range(G.n))))
    assert is_isomorphic(G, H) and is_isomorphic(H, G)
    switches = [(a, b, c, d) for (a, b), (x, y) in combinations(H.edges(), 2)
                for c, d in ((x, y), (y, x))
                if len({a, b, c, d}) == 4 and not H.has_edge(a, c) and not H.has_edge(b, d)]
    if switches:
        K = switched(H, *data.draw(st.sampled_from(switches)))
        assert is_isomorphic(G, K) == nx.is_isomorphic(to_networkx(G), to_networkx(K))
