import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homdual import coloring
from homdual.coloring import (
    Coloring,
    LowTdViolation,
    centered_from_td,
    find_low_td_coloring,
    make_coloring,
    max_low_td_colors,
    product_centered,
    verify_low_td,
    verify_p_centered,
)
from homdual.errors import GraphError, SizeLimitError
from homdual.graphs import (
    bits,
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    mask_of,
    path_graph,
)
from homdual.sparsity import tree_depth

from oracles import (
    brute_is_connected_subset,
    brute_low_td_coloring,
    brute_low_td_violation,
    brute_p_centered,
)


def test_make_coloring_densifies():
    G = path_graph(3)
    c = make_coloring(G, [7, 2, 7])
    assert c.colors == (0, 1, 0) and c.k == 2
    assert c.class_masks() == [mask_of([0, 2]), mask_of([1])]
    c = make_coloring(G, [(1, 0), (0, 2), (1, 0)])  # any hashable colors
    assert c.colors == (0, 1, 0) and c.k == 2


def test_coloring_rejects_gaps():
    with pytest.raises(GraphError):
        Coloring(path_graph(2), (0, 2), 3)
    with pytest.raises(GraphError):
        Coloring(path_graph(3), (0, 5), 1)  # too few colors, and 5 >= k
    with pytest.raises(GraphError):
        Coloring(path_graph(3), (0, 1, 1, 0), 2)


def test_verify_p_centered():
    P4 = path_graph(4)
    proper = make_coloring(P4, [0, 1, 0, 1])
    assert verify_p_centered(P4, proper, 2) == (True, None)
    # the same coloring is not 3-centered: the whole path repeats both colors
    ok, counter = verify_p_centered(P4, proper, 3)
    assert not ok and counter is not None
    cols = [proper.colors[v] for v in range(4) if counter >> v & 1]
    assert len(set(cols)) < 3 and all(cols.count(c) > 1 for c in set(cols))
    # rainbow is p-centered for every p
    rainbow = make_coloring(P4, [0, 1, 2, 3])
    for p in range(1, 6):
        assert verify_p_centered(P4, rainbow, p)[0]


def test_verify_p_centered_monotone_in_p():
    """Passing at p implies passing at every smaller p."""
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        G = build_graph(n, edges)
        c = make_coloring(G, [rng.randrange(3) for _ in range(n)])
        results = [verify_p_centered(G, c, p)[0] for p in range(1, n + 2)]
        assert all(a or not b for a, b in zip(results, results[1:]))


def test_verify_p_centered_size_cap(monkeypatch):
    """The cap counts color sets C(k, min(p - 1, k)), not vertices."""
    E20 = empty_graph(20)
    rainbow = make_coloring(E20, range(20))
    with pytest.raises(SizeLimitError):
        verify_p_centered(E20, rainbow, 11)  # C(20, 10) = 184,756 sets
    assert verify_p_centered(E20, rainbow, 20) == (True, None)  # one set
    # 17 vertices, above the old vertex cap of 16
    P17 = path_graph(17)
    assert verify_p_centered(P17, make_coloring(P17, [0] * 17), 2) == (False, P17.full_mask)
    P4 = path_graph(4)
    monkeypatch.setattr(coloring, "CLASS_SET_LIMIT", 1)
    with pytest.raises(SizeLimitError):
        verify_p_centered(P4, make_coloring(P4, [0, 1, 0, 1]), 2)


def test_verify_p_centered_long_path():
    """A 40-vertex path: its tree-depth level coloring and its ruler coloring
    (color = 2-adic valuation of the 1-based position) are centered, and
    merging two ruler colors is not."""
    P40 = path_graph(40)
    level = centered_from_td(P40, tree_depth(P40))
    assert verify_p_centered(P40, level, 40) == (True, None)
    ruler = [(v + 1 & -(v + 1)).bit_length() - 1 for v in range(40)]
    c = make_coloring(P40, ruler)
    assert c.k == 6
    for p in range(1, 8):
        assert verify_p_centered(P40, c, p) == (True, None)
    merged = make_coloring(P40, [min(x, 4) for x in ruler])  # 5 and 4 merge
    ok, S = verify_p_centered(P40, merged, 6)
    assert not ok and brute_is_connected_subset(P40, S)
    assert len({merged.colors[v] for v in bits(S)}) < 6 and _no_unique(merged.colors, S)


def _no_unique(colors, S: int) -> bool:
    counts: dict[int, int] = {}
    for v in bits(S):
        counts[colors[v]] = counts.get(colors[v], 0) + 1
    return 1 not in counts.values()


def _random_case(rng: random.Random):
    """A graph on 1-8 vertices, a coloring and a threshold p: half the
    colorings are uniform, half are tree-depth level colorings with one
    vertex recolored."""
    n = rng.randint(1, 8)
    density = rng.random()
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    G = build_graph(n, edges)
    if rng.random() < 0.5:
        k = rng.randint(1, n)
        colors = [rng.randrange(k) for _ in range(n)]
    else:
        colors = list(centered_from_td(G, tree_depth(G)).colors)
        colors[rng.randrange(n)] = rng.randrange(max(colors) + 1)
    return G, make_coloring(G, colors), rng.randint(1, n + 1)


def test_verify_p_centered_matches_oracle():
    """Verdicts agree with the subset-by-subset oracle on 15,000 seeded
    cases, and every counterexample is a genuine violation."""
    rng = random.Random(4)
    fails = 0
    for _ in range(15000):
        G, c, p = _random_case(rng)
        ok, S = verify_p_centered(G, c, p)
        assert ok == brute_p_centered(G, c.colors, p)[0], (G.rows, c.colors, p)
        if ok:
            assert S is None
            continue
        fails += 1
        assert brute_is_connected_subset(G, S)
        assert len({c.colors[v] for v in bits(S)}) < p
        assert _no_unique(c.colors, S)
    assert 3000 < fails < 12000  # both verdicts are well represented


def test_p_must_be_positive():
    P3 = path_graph(3)
    c = make_coloring(P3, [0, 1, 2])
    for call in (lambda: verify_p_centered(P3, c, 0),
                 lambda: verify_low_td(P3, c, 0),
                 lambda: find_low_td_coloring(P3, -1)):
        with pytest.raises(GraphError, match="p must be at least 1"):
            call()


def test_centered_from_td_small():
    P3 = path_graph(3)
    cert = tree_depth(P3)
    c = centered_from_td(P3, cert)
    assert c.k == cert.value == 2
    for p in range(1, 5):
        assert verify_p_centered(P3, c, p)[0]
    K4 = complete_graph(4)
    c = centered_from_td(K4, tree_depth(K4))
    assert c.k == 4  # levels of a clique witness form a rainbow


def test_centered_from_td_rejects_bad_certificate():
    P4 = path_graph(4)
    cert = tree_depth(path_graph(3))
    with pytest.raises(GraphError):
        centered_from_td(P4, cert)


def test_centered_from_td_all_small_graphs(catalog5):
    for G in catalog5:
        cert = tree_depth(G)
        c = centered_from_td(G, cert)
        assert c.k == cert.value or G.n == 0
        for p in range(1, G.n + 1):
            assert verify_p_centered(G, c, p)[0], (G, p)


def test_verify_low_td():
    P4 = path_graph(4)
    ok, violation = verify_low_td(P4, make_coloring(P4, [0, 1, 2, 0]), 2)
    assert ok and violation is None
    ok, violation = verify_low_td(P4, make_coloring(P4, [0, 1, 0, 1]), 2)
    assert not ok
    assert violation.td == 3 and violation.classes == (0, 1)
    # a single class holding an edge already fails at i = 1
    ok, violation = verify_low_td(P4, make_coloring(P4, [0, 0, 1, 2]), 2)
    assert not ok and len(violation.classes) == 1


def test_verify_low_td_greedy_bound_is_no_violation():
    """td(P20) = 5, so the 5 classes of v % 5 pass; beyond TD_LIMIT the
    component has only a greedy bound (11), which proves nothing."""
    P20 = path_graph(20)
    with pytest.raises(SizeLimitError, match="greedy tree-depth bound 11"):
        verify_low_td(P20, make_coloring(P20, [v % 5 for v in range(20)]), 5)
    # a greedy bound within i proves a pass, and an edge count above what
    # tree-depth i allows proves a violation
    assert verify_low_td(P20, make_coloring(P20, [v % 12 for v in range(20)]), 12) \
        == (True, None)
    ok, violation = verify_low_td(P20, make_coloring(P20, [0] * 20), 20)
    assert not ok and violation.classes == (0,) and violation.component == P20.full_mask


def test_verify_low_td_caps_class_sets(monkeypatch):
    """A rainbow P40 at p = 20 has about 6 * 10^11 class sets: refused at
    once. The cap is read at each call."""
    P40 = path_graph(40)
    with pytest.raises(SizeLimitError, match="color sets"):
        verify_low_td(P40, make_coloring(P40, range(40)), 20)
    P4 = path_graph(4)
    rainbow = make_coloring(P4, range(4))
    assert verify_low_td(P4, rainbow, 4)[0]  # 4 + 6 + 4 + 1 = 15 sets
    monkeypatch.setattr(coloring, "CLASS_SET_LIMIT", 14)
    with pytest.raises(SizeLimitError):
        verify_low_td(P4, rainbow, 4)
    assert verify_low_td(P4, rainbow, 3)[0]  # 14 sets


def test_verify_low_td_matches_oracle():
    """Verdicts and violations (classes, component, tree-depth) agree with
    the subset-by-subset oracle on 3,000 seeded cases."""
    rng = random.Random(6)
    fails = 0
    for _ in range(3000):
        n = rng.randint(1, 6)
        density = rng.random()
        G = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < density])
        c = make_coloring(G, [rng.randrange(rng.randint(1, n)) for _ in range(n)])
        p = rng.randint(1, n)
        ok, violation = verify_low_td(G, c, p)
        expected = brute_low_td_violation(G, c.colors, p)
        assert ok == (expected is None), (G.rows, c.colors, p)
        assert violation == (expected and LowTdViolation(*expected)), (G.rows, c.colors, p)
        fails += not ok
    assert 1000 < fails < 2000  # both verdicts are well represented


def proper_colorings(G):
    """Every proper coloring of G in canonical form: each vertex takes a
    color at most one above every color before it."""
    colors = [0] * G.n

    def extend(v, top):
        if v == G.n:
            yield tuple(colors)
            return
        for a in range(top + 1):
            if all(colors[u] != a for u in bits(G.rows[v]) if u < v):
                colors[v] = a
                yield from extend(v + 1, max(top, a + 1))

    yield from extend(0, 0)


def test_verify_low_td_counting_matches_oracle():
    """Trees and stars pass by counting edges; verdicts and violations must
    still be the oracle's: every proper coloring of P2-P9 and K1,1-K1,8 and
    seeded random colorings of seeded random trees on up to 15 vertices,
    at p = 1-4; and the one-class coloring of each path and star, which
    fails at i = 1 (a star is no pass there)."""
    graphs = [path_graph(n) for n in range(2, 10)]
    graphs += [build_graph(n + 1, [(0, v) for v in range(1, n + 1)]) for n in range(1, 9)]
    cases = [(G, colors) for G in graphs for colors in proper_colorings(G)]
    assert len(cases) == 2 * sum((1, 2, 5, 15, 52, 203, 877, 4140))  # Bell numbers
    cases += [(G, [0] * G.n) for G in graphs]
    rng = random.Random(35)
    for _ in range(60):
        n = rng.randint(8, 15)
        T = build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])
        colors = [0] * n
        k = rng.randint(2, 5)
        for v in range(1, n):  # its parent is the one neighbour below it
            parent = next(bits(T.rows[v]))
            colors[v] = rng.choice([a for a in range(k) if a != colors[parent]])
        cases.append((T, colors))
    verdicts = set()
    for G, colors in cases:
        c = make_coloring(G, colors)
        for p in range(1, 5):
            ok, violation = verify_low_td(G, c, p)
            expected = brute_low_td_violation(G, c.colors, p)
            assert violation == (expected and LowTdViolation(*expected)), (G.rows, colors, p)
            verdicts.add((ok, p))
    assert verdicts == {(ok, p) for ok in (True, False) for p in range(1, 5)}
    # P7 in three colors passes at i = 3, with tree-depth 3; P8 fails there
    for n, expected in ((7, None), (8, ((0, 1, 2), (1 << 8) - 1, 4))):
        P = path_graph(n)
        ok, violation = verify_low_td(P, make_coloring(P, [v % 3 for v in range(n)]), 3)
        assert ok == (expected is None)
        assert violation == (expected and LowTdViolation(*expected))


def test_find_low_td_coloring_matches_oracle(catalog5):
    """The exhaustive search returns the oracle's coloring, the first
    canonical one with the fewest colors, on every graph up to 5 vertices."""
    for G in catalog5:
        for p in (1, 2, 3):
            res = find_low_td_coloring(G, p)
            assert res.exhaustive and res.coloring.colors == brute_low_td_coloring(G, p), (G, p)


def test_find_low_td_coloring_known_sizes():
    res = find_low_td_coloring(path_graph(4), 2)
    assert res.exhaustive and res.coloring.k == 3
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    res = find_low_td_coloring(star, 2)
    assert res.coloring.k == 2
    # cliques force a rainbow at every threshold
    for p in (1, 2, 4):
        res = find_low_td_coloring(complete_graph(4), p)
        assert res.coloring.k == 4
    res = find_low_td_coloring(empty_graph(3), 3)
    assert res.coloring.k == 1


def test_find_low_td_coloring_is_minimal():
    """Cross-check minimality against plain enumeration of all colorings."""
    for G in (path_graph(4), cycle_graph(5), complete_graph(3),
              build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])):
        for p in (1, 2, 3):
            res = find_low_td_coloring(G, p)
            best = None
            for k in range(1, G.n + 1):
                for colors in itertools.product(range(k), repeat=G.n):
                    if len(set(colors)) != k:
                        continue
                    if verify_low_td(G, make_coloring(G, list(colors)), p)[0]:
                        best = k
                        break
                if best is not None:
                    break
            assert res.coloring.k == best, (G, p)


def test_exhaustive_rounds_try_exactly_k_colors(monkeypatch, subcubic7):
    """Round k of the exhaustive search skips the colorings with fewer than
    k colors, which round k - 1 refuted; the results stay minimal."""
    rounds, tried = [], []
    exhaustive, verify = coloring._exhaustive_low_td, coloring.verify_low_td

    def spy_round(G, p, k):
        rounds.append(k)
        return exhaustive(G, p, k)

    def spy_verify(G, c, p):
        tried.append((rounds[-1], c.k))
        return verify(G, c, p)

    monkeypatch.setattr(coloring, "_exhaustive_low_td", spy_round)
    monkeypatch.setattr(coloring, "verify_low_td", spy_verify)
    for G in subcubic7[:40]:
        res = find_low_td_coloring(G, 3)
        assert res.exhaustive and verify(G, res.coloring, 3)[0]
    assert tried and all(k == used for k, used in tried)


def test_refinement_makes_color_counts_upward_closed(catalog6):
    """A passing coloring with exactly k colors exists for every k from the
    least passing count up to |V(G)| (splitting a class keeps a coloring
    passing) and for no smaller k; the least count is the oracle's."""
    for G in catalog6:
        for p in (1, 2, 3):
            least = len(set(brute_low_td_coloring(G, p)))
            for k in range(1, G.n + 1):
                c = coloring._exhaustive_low_td(G, p, k)
                assert (c is not None) == (k >= least), (G, p, k)
                assert c is None or c.k == k


def test_max_low_td_colors_matches_per_graph_maximum(subcubic7):
    """The running-maximum count equals the maximum of the per-graph least
    counts in any corpus order, and counts a graph above the exhaustive
    limit by its greedy coloring."""
    rng = random.Random(20)
    shuffled = list(subcubic7)
    rng.shuffle(shuffled)
    twelve = build_graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)
                              if rng.random() < 0.3])
    assert twelve.n > coloring.LOWTD_EXHAUSTIVE_LIMIT
    mixed = shuffled[:40] + [twelve] + shuffled[40:]
    for corpus in (subcubic7, subcubic7[::-1], shuffled, [twelve], mixed):
        for p in (1, 2, 3, 4):
            want = max([1] + [find_low_td_coloring(G, p).coloring.k for G in corpus])
            assert max_low_td_colors(corpus, p)[0] == want, (len(corpus), p)
    assert max_low_td_colors([], 3) == (1, [])
    with pytest.raises(GraphError):
        max_low_td_colors([], 0)


def test_exhaustive_low_td_colorings_pinned(subcubic7, catalog6):
    """The colorings found on the connected subcubic graphs (p = 3) and on
    every nonempty graph on at most 6 vertices (p = 1, 2, 3), as recorded
    from the recursive search the engine replaced."""
    dump = [[list(find_low_td_coloring(G, 3).coloring.colors) for G in subcubic7]]
    for p in (1, 2, 3):
        dump.append([list(find_low_td_coloring(G, p).coloring.colors)
                     for G in catalog6 if G.n])
    assert hashlib.sha256(json.dumps(dump).encode()).hexdigest() == \
        "5d7376ef45aaa076f933c18d9a0d3e2014d55af8a39308ec962af41966dd9a06"


def test_exhaustive_low_td_subcubic8_pinned(subcubic8):
    """The colorings (p = 3) of the 307 connected subcubic graphs on at most
    8 vertices, as the search found them before it cut two-colored paths."""
    dump = [list(find_low_td_coloring(G, 3).coloring.colors) for G in subcubic8]
    assert len(dump) == 307
    assert hashlib.sha256(json.dumps(dump).encode()).hexdigest() == \
        "03dc2de98fcebb3c0f87f4b054b7aa823c749fa59d4824ace89b59b40fb71ddb"


def test_star_cut_leaves_only_passing_candidates(monkeypatch, catalog6):
    """At p = 2 a coloring passes exactly when it is a star coloring, so
    once the search cuts two-colored paths on 4 vertices every candidate
    that reaches the check passes it. A one-vertex graph takes its one
    color without a search, so it reaches no check."""
    verdicts = []
    verify = coloring.verify_low_td

    def spy(G, c, p):
        ok, violation = verify(G, c, p)
        verdicts.append(ok)
        return ok, violation

    monkeypatch.setattr(coloring, "verify_low_td", spy)
    searched = [G for G in catalog6 if G.n > 1]
    for G in catalog6:
        find_low_td_coloring(G, 2)
    assert len(verdicts) == len(searched) and all(verdicts)


def test_find_low_td_coloring_greedy_fallback():
    G = cycle_graph(14)  # above the exhaustive cutoff
    res = find_low_td_coloring(G, 2)
    assert res is not None and not res.exhaustive
    assert verify_low_td(G, res.coloring, 2)[0]


def test_greedy_low_td_walks_no_class_sets(monkeypatch):
    """The greedy distance-p coloring passes by construction, so it walks no
    class set: K24 at p = 8 (1,271,625 sets) comes back as a rainbow."""
    def refuse(*args):
        raise AssertionError("the greedy coloring walked class sets")

    monkeypatch.setattr(coloring, "combinations", refuse)
    res = find_low_td_coloring(complete_graph(24), 8)
    assert res.coloring.colors == tuple(range(24)) and not res.exhaustive


def test_greedy_low_td_threshold_above_order():
    """At p > n the distance-p ball is the whole component: a rainbow."""
    P12 = path_graph(12)
    for p in (12, 13, 40):
        res = find_low_td_coloring(P12, p)
        assert res.coloring.k == 12 and not res.exhaustive
        assert verify_low_td(P12, res.coloring, p) == (True, None)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(min_value=12, max_value=14), st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.0, max_value=0.6), st.randoms(use_true_random=False))
def test_greedy_low_td_passes_oracle(n, p, density, rng):
    """Greedy colorings (above the exhaustive cutoff) have no violation by
    the subset-by-subset oracle."""
    G = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < density])
    res = find_low_td_coloring(G, p)
    assert not res.exhaustive
    assert brute_low_td_violation(G, res.coloring.colors, p) is None, (G.rows, p)


def test_product_centered():
    for G in (path_graph(4), cycle_graph(6), complete_graph(4)):
        for p in (2, 3):
            base = find_low_td_coloring(G, p).coloring
            c = product_centered(G, base, p)
            assert verify_p_centered(G, c, p)[0], (G, p)
    with pytest.raises(GraphError):
        P4 = path_graph(4)
        product_centered(P4, make_coloring(P4, [0, 1, 0, 1]), 2)


def test_product_centered_disconnected():
    G = disjoint_union([path_graph(3), complete_graph(3)])
    base = find_low_td_coloring(G, 2).coloring
    c = product_centered(G, base, 2)
    assert verify_p_centered(G, c, 2)[0]
