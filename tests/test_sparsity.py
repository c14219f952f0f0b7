import hashlib
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from homdual.errors import GraphError, InternalCheckError
from homdual.formats import parse_graph6
from homdual.graphs import (
    BallFamily,
    bits,
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    quotient,
)
from homdual.sparsity import (
    RootedForest,
    TdCertificate,
    _grad_ceiling,
    degeneracy,
    expansion_profile,
    grad_0_flow,
    grad_r,
    min_indegree_orientation,
    tree_depth,
    tree_depth_value,
    verify_td,
)

from oracles import (
    brute_degeneracy,
    brute_densest,
    brute_grad,
    brute_greedy_balls,
    brute_max_excess,
    brute_tree_depth,
    brute_verify_td,
    plain_tree_depth,
)


def subdivided_k4():
    """K4 with every edge subdivided once: 10 vertices, 12 edges."""
    edges = []
    mid = 4
    for u in range(4):
        for v in range(u + 1, 4):
            edges += [(u, mid), (mid, v)]
            mid += 1
    return build_graph(10, edges)


# --- rooted forests and certificates ---------------------------------------

def test_rooted_forest():
    F = RootedForest((None, 0, 1, 0))
    assert F.depth == (1, 2, 3, 2) and F.height() == 3
    assert RootedForest((2, 2, None)).depth == (2, 2, 1)
    assert RootedForest(()).height() == 0
    # the depths stay out of equality, hashing and repr
    assert F == RootedForest((None, 0, 1, 0)) and hash(F) == hash(RootedForest((None, 0, 1, 0)))
    assert repr(F) == "RootedForest(parent=(None, 0, 1, 0))"
    for bad in ((1, 0), (0,), (None, 2, 1)):  # cycles, self-parent included
        with pytest.raises(GraphError, match="cycle"):
            RootedForest(bad)
    for bad in ((5,), (None, -2, None), (None, -1)):  # parents outside 0..n-1
        with pytest.raises(GraphError, match="not a vertex"):
            RootedForest(bad)


def test_verify_td():
    P4 = path_graph(4)
    good = TdCertificate(3, RootedForest((1, None, 1, 2)))
    assert verify_td(P4, good)
    # wrong claimed value
    assert not verify_td(P4, TdCertificate(2, RootedForest((1, None, 1, 2))))
    # closure misses the edge {2,3}
    assert not verify_td(P4, TdCertificate(3, RootedForest((1, None, 1, 1))))
    # wrong vertex count
    assert not verify_td(P4, TdCertificate(1, RootedForest((None,))))
    # an edge between two vertices at the same depth
    assert not verify_td(P4, TdCertificate(2, RootedForest((None, 0, None, 2))))


def test_verify_td_matches_forest_oracle(catalog5):
    """Every parent array over None and -2..n, on n <= 4 vertices against
    every labelled graph on them and on 5 vertices against the 5-vertex
    catalog, at every claimed value 0..n: a cyclic or out-of-range array
    raises, and any other is accepted exactly when the oracle accepts it."""
    cases = []
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        cases.append((n, [build_graph(n, [e for i, e in enumerate(pairs) if m >> i & 1])
                          for m in range(1 << len(pairs))]))
    cases.append((5, [G for G in catalog5 if G.n == 5]))
    for n, graphs in cases:
        for parent in itertools.product((None, *range(-2, n + 1)), repeat=n):
            if brute_verify_td(graphs[0], parent, 0) is None:
                with pytest.raises(GraphError):
                    RootedForest(parent)
                continue
            F = RootedForest(parent)
            for G in graphs:
                for value in range(n + 1):
                    expect = brute_verify_td(G, parent, value)
                    assert verify_td(G, TdCertificate(value, F)) == expect, (G.rows, parent, value)


# --- tree-depth -------------------------------------------------------------

def test_tree_depth_known_values():
    assert tree_depth(complete_graph(1)).value == 1
    assert tree_depth(path_graph(4)).value == 3
    assert tree_depth(complete_graph(4)).value == 4
    assert tree_depth(cycle_graph(6)).value == 4
    assert tree_depth(empty_graph(0)).value == 0
    assert tree_depth(empty_graph(5)).value == 1
    G = disjoint_union([complete_graph(3), path_graph(2)])
    assert tree_depth(G).value == 3  # max over components


def test_tree_depth_path_formula():
    for n in range(1, 11):
        assert tree_depth(path_graph(n)).value == math.ceil(math.log2(n + 1))


def test_tree_depth_matches_forest_oracle(catalog5):
    for G in catalog5:
        cert = tree_depth(G)
        assert cert.optimal and verify_td(G, cert)
        assert cert.value == brute_tree_depth(G)


def test_tree_depth_value_cached():
    assert tree_depth_value(cycle_graph(5)) == 4
    assert tree_depth_value(cycle_graph(5)) == 4


# sha256 over (rows, value, parent tuple) of tree_depth for the <= 7-vertex
# catalog, recorded with the exhaustive memo over every connected mask that
# the bounded decision search replaced: the search keeps every certificate.
TD_CERT_DIGEST = "0e08447e811c56f664448c663b9adbd9c4e6dabab7eb994c7e7a6b7b0566ba88"


def test_tree_depth_certificates_unchanged(catalog7):
    h = hashlib.sha256()
    for G in catalog7:
        cert = tree_depth(G)
        h.update(f"{G.rows} {cert.value} {cert.forest.parent}\n".encode())
    assert h.hexdigest() == TD_CERT_DIGEST


def test_tree_depth_matches_plain_recursion():
    """Certificates on 120 seeded random graphs of 9 and 10 vertices, with
    25-45% of the possible edges, equal those of the unpruned recursion,
    root choice included."""
    rng = random.Random(6)
    for _ in range(120):
        n = rng.randint(9, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        G = build_graph(n, rng.sample(pairs, round(rng.uniform(0.25, 0.45) * len(pairs))))
        cert = tree_depth(G)
        assert (cert.value, cert.forest.parent) == plain_tree_depth(G), G.rows
    # random 10- and 11-vertex graphs on which an off-by-one in the search's
    # memoised lower-bound skip changes the witness root (and, for the last
    # graph, the value); the random graphs above rarely show it
    for g6 in ("J_O_wGNrhU_", "J[KSG?aD?W?", "JJaeG[jHHG_", "IAikeCdco"):
        G = parse_graph6(g6)
        cert = tree_depth(G)
        assert (cert.value, cert.forest.parent) == plain_tree_depth(G), g6


def test_tree_depth_self_checks_raise(monkeypatch):
    import homdual.sparsity as sp

    monkeypatch.setattr(sp, "verify_td", lambda G, cert: False)
    with pytest.raises(InternalCheckError):
        tree_depth(path_graph(3))  # exact search
    with pytest.raises(InternalCheckError):
        tree_depth(path_graph(20))  # greedy fallback


def test_greedy_tree_depth_fallback():
    G = path_graph(20)
    cert = tree_depth(G)
    assert not cert.optimal
    assert verify_td(G, cert)
    assert cert.value >= math.ceil(math.log2(21))


# --- grads ------------------------------------------------------------------

def test_grad_0_known_values():
    assert grad_r(complete_graph(4), 0).value == Fraction(3, 2)
    assert grad_r(empty_graph(4), 0).value == 0
    assert grad_r(path_graph(2), 0).value == Fraction(1, 2)
    assert grad_r(cycle_graph(6), 0).value == 1


def test_grad_0_matches_densest_subgraph(catalog5):
    for G in catalog5:
        res = grad_r(G, 0)
        assert res.exact
        assert res.value == brute_densest(G)


def test_grad_witness_attains_value():
    for G in (complete_graph(4), cycle_graph(5), subdivided_k4()):
        for r in (0, 1):
            res = grad_r(G, r)
            q = quotient(G, res.witness)
            if q.n:
                assert Fraction(q.edge_count(), q.n) == res.value


def test_grad_1_known_values():
    # contracting opposite halves of C6 only ever yields sparser cycles
    assert grad_r(cycle_graph(6), 1).value == 1
    # radius-1 balls around branch vertices recover K4
    assert grad_r(subdivided_k4(), 1).value == Fraction(3, 2)


def test_grad_matches_brute_force(catalog5):
    for G in catalog5:
        for r in (0, 1, 2):
            assert grad_r(G, r).value == brute_grad(G, r), (G.rows, r)


# sha256 over (rows, rank, value, witness balls) for the <= 6-vertex catalog at
# ranks 0-2, recorded with the per-node overlap-rescanning search that the
# index-bitset walk replaced: the walk keeps every value and witness.
GRAD_WITNESS_DIGEST = "d5615bd7038dd58d6812d740528e7f2a9138cd0265ecb52a272d6a43c94ba5d2"


def test_grad_witnesses_unchanged(catalog6):
    h = hashlib.sha256()
    for G in catalog6:
        for r in (0, 1, 2):
            res = grad_r(G, r)
            h.update(f"{G.rows} {r} {res.value} {res.witness.balls}\n".encode())
    assert h.hexdigest() == GRAD_WITNESS_DIGEST


# sha256 over (rows, value, witness balls) of grad_r(G, 1) for the <= 7-vertex
# catalog, recorded with the walk that visited every family: stopping at the
# ceiling keeps every value and witness.
GRAD_RANK1_DIGEST = "b0b76c9a30a97c92a3d7aed39b8724cd1f84c4cfb126d67e9d7b239d6686b937"


def test_grad_rank1_witnesses_unchanged(catalog7):
    h = hashlib.sha256()
    for G in catalog7:
        res = grad_r(G, 1)
        h.update(f"{G.rows} {res.value} {res.witness.balls}\n".encode())
    assert h.hexdigest() == GRAD_RANK1_DIGEST


def brute_ceiling(G):
    """The grad ceiling's formula, with g = max |E(W)| - |W| over nonempty W
    found by trying every vertex set."""
    g = max(sum((G.rows[v] & W).bit_count() for v in bits(W)) // 2 - W.bit_count()
            for W in range(1, 1 << G.n))
    return max(min(Fraction(t - 1, 2), Fraction(g + t, t)) for t in range(1, G.n + 1))


def test_grad_ceiling_bounds_every_rank(catalog6):
    for G in catalog6:
        if G.n == 0:
            continue
        ceiling = _grad_ceiling(G)
        assert ceiling == brute_ceiling(G), G.rows
        for r in (0, 1, 2):
            assert brute_grad(G, r) <= ceiling, (G.rows, r)


def test_grad_ceiling_is_tight_on_cliques_paths_stars_cycles():
    stars = [build_graph(n, [(0, v) for v in range(1, n)]) for n in range(2, 9)]
    graphs = [complete_graph(n) for n in range(1, 9)] + [path_graph(n) for n in range(1, 10)] \
        + stars + [cycle_graph(n) for n in range(3, 10)]
    for G in graphs:
        for r in (0, 1, 2):
            assert grad_r(G, r).value == _grad_ceiling(G), (G.rows, r)


def test_grad_rejects_negative_rank():
    with pytest.raises(GraphError):
        grad_r(path_graph(3), -1)
    with pytest.raises(GraphError):
        grad_r(path_graph(20), -1)  # beyond the exhaustive limit too


def test_grad_huge_rank_stops_at_the_radius_bound():
    """Beyond |V| - 1 a larger rank adds no ball, so rank 10**9 returns at
    once with the rank-6 value and witness balls."""
    C6 = cycle_graph(6)
    huge, six = grad_r(C6, 10**9), grad_r(C6, 6)
    assert huge.value == six.value
    assert huge.witness.balls == six.witness.balls


def test_grad_self_checks_raise(monkeypatch):
    import homdual.sparsity as sp

    monkeypatch.setattr(sp, "quotient", lambda G, fam: empty_graph(len(fam.balls)))
    with pytest.raises(InternalCheckError):
        grad_r(complete_graph(3), 0)
    monkeypatch.undo()
    fake = iter([Fraction(1), Fraction(1, 2)])
    monkeypatch.setattr(sp, "grad_r", lambda G, r: sp.GradResult(next(fake), None))
    with pytest.raises(InternalCheckError):
        expansion_profile(complete_graph(3), 1)


def test_grad_0_flow():
    assert grad_0_flow(complete_graph(4)) == Fraction(3, 2)
    assert grad_0_flow(path_graph(2)) == Fraction(1, 2)
    assert grad_0_flow(cycle_graph(5)) == 1
    assert grad_0_flow(empty_graph(3)) == 0


def test_grad_0_flow_matches_exhaustive(catalog6):
    for G in catalog6:
        assert grad_0_flow(G) == grad_r(G, 0).value


def test_spread_splits_or_returns_the_densest_excess_set(catalog6):
    """Either every vertex holds at most num units, or the returned set
    attains max den * |E(S)| - num * |S| > 0, and is the least such set."""
    import homdual.sparsity as sp

    for G in catalog6:
        edges = G.edges()
        for num, den in ((0, 1), (1, 1), (1, 2), (2, 1), (3, 2), (2, 3), (5, 3)):
            lower, over = sp._spread(G, num, den)
            assert len(lower) == len(edges)
            load = [0] * G.n
            for (u, v), share in zip(edges, lower):
                assert 0 <= share <= den
                load[u] += share
                load[v] += den - share
            best, least = brute_max_excess(G, num, den)
            if over == 0:
                assert max(load, default=0) <= num and best == 0, (G.rows, num, den)
            else:
                inside = sum((G.rows[v] & over).bit_count() for v in bits(over)) // 2
                assert den * inside - num * over.bit_count() == best > 0, (G.rows, num, den)
                assert over == least, (G.rows, num, den)


def test_density_and_orientation_keep_no_call_stack():
    P = path_graph(600)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        density = grad_0_flow(P)
        orient, k = min_indegree_orientation(P)
    finally:
        sys.setrecursionlimit(limit)
    assert density == Fraction(599, 600)
    assert k == 1 and orient.max_indegree() == 1


def test_grad_greedy_runs_one_densest_flow(monkeypatch):
    import homdual.sparsity as sp

    calls = []
    densest = sp._densest_subgraph_mask
    monkeypatch.setattr(sp, "_densest_subgraph_mask",
                        lambda G: calls.append(G) or densest(G))
    G = disjoint_union([complete_graph(5), empty_graph(10)])
    res = grad_r(G, 1)  # 15 vertices: greedy, and the flow bound wins
    assert res.value == 2 == _grad_ceiling(G)
    assert res.exact  # it meets the ceiling, which bounds every rank
    assert res.witness.balls == tuple(1 << v for v in range(5))
    assert len(calls) == 1


def test_grad_greedy_balls_match_oracle(monkeypatch):
    """Above the exhaustive limit, and with the rank-0 fallback switched
    off, the witness is the greedy ball packing: each ball grown r steps
    from its centre inside the vertices not yet covered."""
    import homdual.sparsity as sp

    monkeypatch.setattr(sp, "_densest_subgraph_mask", lambda G: 0)
    rng = random.Random(23)
    graphs = [path_graph(30), cycle_graph(25)]
    for n in (13, 20, 30):
        for density in (0.1, 0.25):
            graphs.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                          if rng.random() < density]))
    for G in graphs:
        for r in range(4):
            res = grad_r(G, r)
            assert res.exact == (res.value == _grad_ceiling(G)), (G, r)
            assert list(res.witness.balls) == brute_greedy_balls(G, r), (G, r)


def test_grad_greedy_flags_proven_values_exact():
    """A greedy grad is exact when it meets the ceiling, or at rank 0, where
    the densest-subgraph fallback is grad_0 itself; otherwise it stays a
    lower bound."""
    P = path_graph(40)
    for r in range(3):
        res = grad_r(P, r)
        assert res.value == _grad_ceiling(P) == Fraction(39, 40) and res.exact, r
    rng = random.Random(0)
    G = build_graph(20, [(u, v) for u in range(20) for v in range(u + 1, 20) if rng.random() < 0.2])
    res = grad_r(G, 0)
    assert res.exact and res.value == grad_0_flow(G)
    for r in range(1, 4):
        res = grad_r(G, r)
        assert res.value < _grad_ceiling(G) and not res.exact, r


# --- orientations and degeneracy ---------------------------------------------

def test_min_indegree_orientation():
    orient, k = min_indegree_orientation(cycle_graph(5))
    assert k == 1 and orient.max_indegree() == 1
    orient, k = min_indegree_orientation(complete_graph(4))
    assert k == 2 and orient.max_indegree() == 2
    star = build_graph(6, [(0, i) for i in range(1, 6)])
    orient, k = min_indegree_orientation(star)
    assert k == 1
    orient, k = min_indegree_orientation(empty_graph(3))
    assert k == 0 and orient.arcs == ()


def test_densest_subgraph_improvement_check_raises(monkeypatch):
    import homdual.sparsity as sp

    # a single vertex has density 0, which improves on nothing
    monkeypatch.setattr(sp, "_spread", lambda G, num, den: ([], 1))
    with pytest.raises(InternalCheckError):
        grad_0_flow(complete_graph(3))


def test_orientation_self_checks_raise(monkeypatch):
    import homdual.sparsity as sp

    K3 = complete_graph(3)
    monkeypatch.setattr(sp, "grad_0_flow", lambda G: Fraction(0))
    with pytest.raises(InternalCheckError, match="no orientation"):
        min_indegree_orientation(K3)  # no indegree slots, so the split fails
    monkeypatch.setattr(sp, "grad_0_flow", lambda G: Fraction(3))
    with pytest.raises(InternalCheckError, match="max indegree"):
        min_indegree_orientation(K3)  # K3 has no orientation of max indegree 3


def test_sparsity_checks_survive_optimize_flag():
    """Under ``python -O`` a non-improving step raises instead of looping."""
    code = (
        "import homdual.sparsity as sp\n"
        "from homdual.errors import InternalCheckError\n"
        "from homdual.graphs import complete_graph\n"
        "sp._spread = lambda G, num, den: ([], 1)\n"
        "try:\n"
        "    sp.grad_0_flow(complete_graph(3))\n"
        "except InternalCheckError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_orientation_indegree_is_ceil_grad(catalog5):
    for G in catalog5:
        orient, k = min_indegree_orientation(G)
        assert k == math.ceil(grad_0_flow(G))
        assert orient.max_indegree() == k


def test_degeneracy():
    assert degeneracy(complete_graph(4))[0] == 3
    assert degeneracy(cycle_graph(6))[0] == 2
    assert degeneracy(path_graph(5))[0] == 1
    assert degeneracy(empty_graph(2))[0] == 0
    d, order = degeneracy(complete_graph(3))
    assert sorted(order) == [0, 1, 2]


def test_degeneracy_matches_oracle(catalog6):
    """The heap peel removes the same vertex at each step as a rescan of
    every remaining degree would."""
    rng = random.Random(17)
    graphs = list(catalog6)
    for n in (12, 20, 40):
        for density in (0.1, 0.3, 0.6):
            graphs.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                          if rng.random() < density]))
    for G in graphs:
        assert degeneracy(G) == brute_degeneracy(G), G


def test_degeneracy_long_path():
    assert degeneracy(path_graph(3000)) == (1, list(range(3000)))


def test_degeneracy_bounded_by_grad(catalog6):
    for G in catalog6:
        d, _ = degeneracy(G)
        assert d <= math.floor(2 * grad_0_flow(G))


# --- expansion profiles ------------------------------------------------------

def test_expansion_profile_values():
    assert expansion_profile(complete_graph(4), 2) == [Fraction(3, 2)] * 3
    assert expansion_profile(empty_graph(1), 3) == [Fraction(0)] * 4
    prof = expansion_profile(subdivided_k4(), 1)
    assert prof[0] == Fraction(6, 5) and prof[1] == Fraction(3, 2)


def test_expansion_profile_inexact_ranks_keep_running_maximum():
    """Greedy ranks 0-3 of this 17-vertex graph read 11/8, 8/5, 11/8, 11/8;
    the rank-1 family stays a rank-2 and rank-3 family."""
    G = parse_graph6("P?Ag?cAOAAB@O?C_@WC@?P??")
    assert [grad_r(G, r).value for r in range(4)] == \
        [Fraction(11, 8), Fraction(8, 5), Fraction(11, 8), Fraction(11, 8)]
    assert expansion_profile(G, 3) == [Fraction(11, 8)] + [Fraction(8, 5)] * 3


def test_expansion_profile_monotone_random():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(4, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.35]
        G = build_graph(n, edges)
        prof = expansion_profile(G, 2)
        assert all(a <= b for a, b in zip(prof, prof[1:]))
