import hashlib
import math
import random
import sys

import pytest

from homdual import graphs
from homdual.errors import GraphError
from homdual.graphs import (
    BallFamily,
    Graph,
    bits,
    build_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_balls,
    induced_subgraph,
    is_bipartite,
    is_connected,
    layers,
    mask_of,
    path_graph,
    quotient,
)
from homdual.homs import is_isomorphic
from homdual.powers import exact_distance_graph, exact_power

from oracles import (
    brute_distances,
    brute_is_connected_subset,
    brute_odd_girth,
    enumerate_connected_sets,
    matches_checked_constructor,
)


def test_build_graph_basic():
    G = build_graph(4, [(0, 1), (1, 2), (2, 3), (1, 2)])  # duplicate collapses
    assert G.edge_count() == 3
    assert G.edges() == [(0, 1), (1, 2), (2, 3)]
    assert G.degree(1) == 2 and G.max_degree() == 2
    assert G.has_edge(2, 1) and not G.has_edge(0, 2)


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(2, [2, 0])  # asymmetric adjacency
    with pytest.raises(GraphError, match=r"\{2,0\}"):
        Graph(3, [0b110, 0b101, 0b010])  # lower mirror of {0,2} missing
    with pytest.raises(GraphError, match=r"\{0,2\}"):
        Graph(3, [0b010, 0b101, 0b011])  # upper mirror of {0,2} missing
    with pytest.raises(GraphError, match=r"\{0,1\}"):
        Graph(2, [0, 1])  # a lone lower bit
    with pytest.raises(GraphError, match=r"\{1,0\}"):
        Graph(3, [0b010, 0b100, 0b011])  # unmirrored bits, even in number
    with pytest.raises(GraphError):
        Graph(1, [1])  # loop bit
    with pytest.raises(GraphError):
        Graph(-1, [])
    with pytest.raises(GraphError, match="row 0 has out-of-range"):
        Graph(2, [0b100, 0])  # a neighbour the graph lacks
    with pytest.raises(GraphError, match="row 0 has out-of-range"):
        Graph(2, [-1, 0])  # a negative row
    with pytest.raises(GraphError, match="row 1 has out-of-range"):
        Graph(2, [0b10, -1])  # a negative row behind an upper neighbour
    with pytest.raises(GraphError, match="loop at vertex 1"):
        Graph(3, [0, 0b010, 0])  # a loop on a vertex with no upper neighbour


def test_constructor_names_any_flipped_pair(catalog5, seeded_graphs):
    """Setting or clearing one off-diagonal bit of a symmetric graph leaves
    that pair alone unmirrored, and the constructor names it."""
    for G in catalog5 + seeded_graphs:
        for i in range(G.n):
            for j in range(G.n):
                if i == j:
                    continue
                rows = list(G.rows)
                rows[i] ^= 1 << j
                with pytest.raises(GraphError, match=rf"\{{({i},{j}|{j},{i})\}}"):
                    Graph(G.n, rows)


def test_constructor_names_flipped_pair_on_tiled_graph(monkeypatch):
    """The flipped-pair message also comes when the symmetry check mirrors
    the lower parts by tiles, as it does on a dense 40-vertex graph."""
    rng = random.Random(40)
    G = build_graph(40, [(u, v) for u in range(40) for v in range(u + 1, 40)
                         if rng.random() < 0.6])
    tiled = graphs._mirror_tiles
    taken = []

    def counted(rows):
        taken.append(len(rows))
        tiled(rows)

    monkeypatch.setattr(graphs, "_mirror_tiles", counted)
    pairs = [(i, j) for i in range(G.n) for j in range(G.n) if i != j]
    for i, j in pairs:
        rows = list(G.rows)
        rows[i] ^= 1 << j
        with pytest.raises(GraphError, match=rf"\{{({i},{j}|{j},{i})\}}"):
            Graph(G.n, rows)
    assert taken == [G.n] * len(pairs)


def test_tiles_never_pay_at_four_edges_per_vertex():
    """``_mirror`` asks ``_tiles_pay`` alone: at most 4n edges never take
    the tiles. The test grows with the edge count, so e = 4n settles every
    smaller e; the smallest graphs are also checked edge count by edge count."""
    for n in range(1, 2001):
        assert not graphs._tiles_pay(n, 4 * n), n
    for n in range(1, 101):
        assert not any(graphs._tiles_pay(n, e) for e in range(4 * n + 1)), n


def test_bad_rows_refused_before_any_mirror(monkeypatch):
    """Range and loop checks run over every row before the symmetry check
    mirrors anything, so an asymmetric pair never hides them."""
    def no_mirror(rows):
        raise AssertionError("mirror ran")

    monkeypatch.setattr(graphs, "_mirror", no_mirror)
    with pytest.raises(GraphError, match="row 1 has out-of-range"):
        Graph(2, [0b10, -1])  # a negative row
    with pytest.raises(GraphError, match="loop at vertex 2"):
        Graph(3, [0b010, 0, 0b100])  # a loop behind an unmirrored pair


def _radius_one_family(G: Graph) -> BallFamily:
    """Every other ball of a greedy cover by closed neighbourhoods, so some
    vertices lie in no ball."""
    balls, used = [], 0
    for v in range(G.n):
        if not used >> v & 1:
            ball = (G.rows[v] | 1 << v) & ~used
            balls.append(ball)
            used |= ball
    return BallFamily(G, tuple(balls[::2]), 1)


def test_library_builders_match_checked_constructor(catalog6, mixed_density_graphs):
    """Every library builder takes its rows on trust; each must give the
    graph the checked constructor makes from them, triangle mask included."""
    rng = random.Random(6)
    built = [complete_graph(n) for n in range(8)] + [empty_graph(n) for n in range(8)]
    built += catalog6  # the catalog's extensions
    for G in catalog6 + mixed_density_graphs:
        built.append(induced_subgraph(G, rng.getrandbits(G.n))[0])
        built.append(quotient(G, _radius_one_family(G)))
        built.append(disjoint_union([G, G]))
        built += [exact_power(G, p) for p in (1, 2, 3)]
        built += [exact_distance_graph(G, p) for p in (1, 2, 3)]
    for H in built:
        assert matches_checked_constructor(H), H


def test_constructors():
    assert complete_graph(4).edge_count() == 6
    assert cycle_graph(5).edge_count() == 5
    assert path_graph(4).edge_count() == 3
    assert empty_graph(3).edge_count() == 0
    assert empty_graph(0).n == 0
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_induced_subgraph():
    C5 = cycle_graph(5)
    sub, old = induced_subgraph(C5, mask_of([0, 1, 2]))
    assert old == [0, 1, 2]
    assert sub == path_graph(3)
    with pytest.raises(GraphError):
        induced_subgraph(C5, 1 << 5)


def test_connected_components():
    G = disjoint_union([complete_graph(3), path_graph(2)])
    comps = connected_components(G)
    assert comps == [mask_of([0, 1, 2]), mask_of([3, 4])]
    assert not is_connected(G)
    assert is_connected(G, within=mask_of([0, 1, 2]))
    assert not is_connected(G, within=0)


def test_is_bipartite_matches_brute_odd_girth(catalog6):
    """On every vertex mask: G[S] is bipartite exactly when, by the
    adjacency-power oracle, it has no odd closed walk."""
    for G in catalog6:
        assert is_bipartite(G) == (brute_odd_girth(G) == math.inf), G.rows
        for S in range(1 << G.n):
            sub, _ = induced_subgraph(G, S)
            assert is_bipartite(G, S) == (brute_odd_girth(sub) == math.inf), (G.rows, S)


def test_layers():
    P4 = path_graph(4)
    assert layers(P4.rows, 1, P4.full_mask) == [1, 2, 4, 8]
    # restricted to a mask that cuts the path
    assert layers(P4.rows, 1, mask_of([0, 1, 3])) == [1, 2]


def _brute_layers(G, start, within):
    """Layer d: the vertices of ``within`` whose nearest vertex of ``start``
    is d steps away inside ``within``."""
    near: dict[int, int] = {}
    for s in bits(start):
        for v, d in brute_distances(G, s, within).items():
            near[v] = min(d, near.get(v, d))
    out = [0] * (max(near.values()) + 1)
    for v, d in near.items():
        out[d] |= 1 << v
    return out


def _brute_radius_center(G, S):
    return min((max(brute_distances(G, c, S).values()), c) for c in bits(S))


def test_layers_match_brute_distances(catalog6, seeded_graphs):
    """From single vertices and from sets, inside the whole graph and inside
    a random mask, and cut at every depth."""
    rng = random.Random(8)
    for G in catalog6 + seeded_graphs:
        for v in range(G.n):
            inside = rng.getrandbits(G.n) | 1 << v
            sources = rng.getrandbits(G.n) & inside | 1 << v
            for start, within in ((1 << v, G.full_mask), (1 << v, inside),
                                  (sources, inside)):
                want = _brute_layers(G, start, within)
                assert layers(G.rows, start, within) == want, (G.rows, start, within)
                for depth in range(len(want)):
                    assert layers(G.rows, start, within, depth) == want[:depth + 1]


# sha256 over the (rows, mask, bound) that BallFamily(G, (S,), r) accepts, for
# the <= 6-vertex catalog, every mask S and r from -1 to 3, recorded when a
# ball was checked by its radius and smallest centre, not by the predicate
# of enumerate_balls
BALL_ACCEPT_DIGEST = "c23f6549d721b341b5c13125e0f72e4ef9dc332dc97f42eb6c8f776a03b50cd4"


def _accepts(G, S, r):
    try:
        BallFamily(G, (S,), r)
    except GraphError:
        return False
    return True


def test_ball_family_accepts_by_brute_radius(catalog6, seeded_graphs):
    """A single set is a ball of radius at most r exactly when it is
    nonempty, connected and, by the dict-and-queue oracle, of radius at
    most r: on every mask of the small graphs, and on the set that a vertex
    reaches inside a random mask of the larger ones, at its radius and one
    below."""
    accepted = []
    for G in catalog6:
        for S in range(1 << G.n):
            ball = brute_is_connected_subset(G, S)
            radius = _brute_radius_center(G, S)[0] if ball else None
            for r in range(-1, 4):
                want = ball and radius <= r
                assert _accepts(G, S, r) == want, (G.rows, S, r)
                if want:
                    accepted.append(f"{G.rows} {S} {r}")
    assert len(accepted) == 19681
    assert hashlib.sha256("\n".join(accepted).encode()).hexdigest() == BALL_ACCEPT_DIGEST
    rng = random.Random(9)
    for G in seeded_graphs:
        for v in range(G.n):
            S = sum(1 << u for u in brute_distances(G, v, rng.getrandbits(G.n) | 1 << v))
            radius = _brute_radius_center(G, S)[0]
            assert _accepts(G, S, radius) and not _accepts(G, S, radius - 1), (G.rows, S)


def test_ball_family_validation():
    P4 = path_graph(4)
    BallFamily(P4, (mask_of([0, 1]), mask_of([2, 3])), 1)
    with pytest.raises(GraphError):
        BallFamily(P4, (mask_of([0, 1]), mask_of([1, 2])), 1)  # overlap
    with pytest.raises(GraphError):
        BallFamily(P4, (mask_of([0, 1, 2]), ), 0)  # radius too big
    with pytest.raises(GraphError):
        BallFamily(P4, (mask_of([0, 2]), ), 2)  # disconnected ball
    with pytest.raises(GraphError, match="not within graph"):
        BallFamily(path_graph(3), (1 << 5,), 1)  # a vertex the graph lacks
    with pytest.raises(GraphError, match="not within graph"):
        BallFamily(P4, (mask_of([0, 1]), 1 << 4), 1)
    # a negative bound refuses every ball, even a single vertex
    for b in (1, mask_of([0, 1]), P4.full_mask):
        with pytest.raises(GraphError, match="radius at most -1"):
            BallFamily(P4, (b,), -1)


def test_quotient():
    C6 = cycle_graph(6)
    fam = BallFamily(C6, (mask_of([0, 1]), mask_of([2, 3]), mask_of([4, 5])), 1)
    assert quotient(C6, fam) == cycle_graph(3)
    # uncovered vertices are dropped
    P3 = path_graph(3)
    fam = BallFamily(P3, (mask_of([0]), mask_of([1])), 0)
    assert quotient(P3, fam) == path_graph(2)
    fam = BallFamily(P3, (mask_of([0]), ), 0)
    assert quotient(P3, fam) == complete_graph(1)
    with pytest.raises(GraphError):
        quotient(cycle_graph(5), fam)


def test_quotient_by_singletons_is_induced_subgraph(catalog5):
    """Contracting nothing: singleton balls of S reproduce G[S]."""
    for G in catalog5:
        for S in range(1 << G.n):
            fam = BallFamily(G, tuple(1 << v for v in bits(S)), 0)
            sub, _ = induced_subgraph(G, S)
            assert is_isomorphic(quotient(G, fam), sub)


def test_quotient_matches_pairwise_definition(seeded_graphs):
    """Against the definition, every pair of balls: i ~ j iff some edge of G
    joins them. Balls of radius 0 to 2 around seeded centers, some vertices
    left uncovered."""
    rng = random.Random(16)
    for G in seeded_graphs:
        for r in range(3):
            covered, balls = 0, []
            for c in rng.sample(range(G.n), G.n):
                if covered >> c & 1 or rng.random() < 0.2:
                    continue
                ball = sum(layers(G.rows, 1 << c, G.full_mask & ~covered, r))
                balls.append(ball)
                covered |= ball
            want = [sum(1 << j for j, other in enumerate(balls)
                        if j != i and any(G.rows[v] & other for v in bits(ball)))
                    for i, ball in enumerate(balls)]
            assert quotient(G, BallFamily(G, tuple(balls), r)) == Graph(len(balls), want)


def test_disjoint_union():
    G = disjoint_union([complete_graph(2), cycle_graph(3), empty_graph(1)])
    assert G.rows == (0b10, 0b01, 0b11000, 0b10100, 0b01100, 0)
    assert disjoint_union([]).n == 0


def test_enumerate_connected_sets_counts():
    assert sorted(enumerate_connected_sets(path_graph(3))) == [1, 2, 3, 4, 6, 7]
    assert len(list(enumerate_connected_sets(complete_graph(3)))) == 7


def test_enumerate_connected_sets_matches_oracle(catalog5):
    for G in catalog5:
        got = sorted(enumerate_connected_sets(G))
        assert len(got) == len(set(got)), "a set was produced twice"
        want = [S for S in range(1, 1 << G.n) if brute_is_connected_subset(G, S)]
        assert got == want


# sha256 over (rows, sets in output order) of enumerate_connected_sets on the
# <= 7-vertex catalog, recorded with the recursive generator that the
# explicit-stack walk replaced: the walk keeps the order.
CONNECTED_SETS_DIGEST = "9c8d84a818ec788b1cb68a40bc0378501cae29c30e14a86d556fc2422df9948c"


def test_enumerate_connected_sets_order_unchanged(catalog7):
    h = hashlib.sha256()
    for G in catalog7:
        h.update(f"{G.rows} {list(enumerate_connected_sets(G))}\n".encode())
    assert h.hexdigest() == CONNECTED_SETS_DIGEST


def test_enumerate_connected_sets_keeps_no_call_stack():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        sets = list(enumerate_connected_sets(path_graph(300)))
    finally:
        sys.setrecursionlimit(limit)
    assert len(sets) == 300 * 301 // 2  # one per subpath


def test_enumerate_balls():
    K2 = complete_graph(2)
    assert enumerate_balls(K2, 0) == [1, 2]
    assert sorted(enumerate_balls(K2, 1)) == [1, 2, 3]
    assert enumerate_balls(K2, -1) == []
    # a radius-1 ball in C6 is at most a path on three vertices
    assert all(b.bit_count() <= 3 for b in enumerate_balls(cycle_graph(6), 1))


def test_enumerate_balls_match_brute_radius(catalog7):
    """The balls are exactly the connected sets of the oracle walk whose
    radius, by the dict-and-queue oracle, is at most r, in the walk's
    order: on the <= 7-vertex catalog and on seeded 9-12-vertex graphs."""
    rng = random.Random(21)
    seeded = []
    for density in (0.2, 0.3, 0.45) * 2:
        n = rng.randint(9, 12)
        seeded.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                      if rng.random() < density]))
    for G in catalog7 + seeded:
        sets = [(S, _brute_radius_center(G, S)[0]) for S in enumerate_connected_sets(G)]
        for r in (1, 2, 3):
            assert enumerate_balls(G, r) == [S for S, radius in sets if radius <= r], \
                (G.rows, r)
