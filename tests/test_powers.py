import hashlib
import json
import math
import random

import pytest

from homdual import powers
from homdual.errors import GraphError, InternalCheckError, SizeLimitError
from homdual.graphs import (
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    layers,
    path_graph,
)
from homdual.homs import is_isomorphic
from homdual.powers import (
    INFINITY,
    chromatic_number,
    exact_distance_graph,
    exact_power,
    odd_girth,
    odd_power_experiment,
)

from oracles import brute_chromatic, brute_distances, brute_exact_power, brute_odd_girth


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def test_exact_power_examples():
    C5 = cycle_graph(5)
    assert is_isomorphic(exact_power(C5, 2), C5)
    # P4 has exactly two vertex pairs joined by a simple path of length 2
    assert exact_power(path_graph(4), 2) == build_graph(4, [(0, 2), (1, 3)])
    # in K3 every pair is joined by a 2-path through the third vertex
    assert exact_power(complete_graph(3), 2) == complete_graph(3)
    assert exact_power(cycle_graph(4), 1) == cycle_graph(4)
    assert exact_power(empty_graph(3), 2) == empty_graph(3)


def test_exact_distance_examples():
    # antipodal pairs of C6 form a perfect matching
    assert exact_distance_graph(cycle_graph(6), 3) == build_graph(
        6, [(0, 3), (1, 4), (2, 5)])
    assert exact_distance_graph(path_graph(4), 1) == path_graph(4)
    # unreachable pairs never meet
    G = disjoint_union([path_graph(2), path_graph(2)])
    assert exact_distance_graph(G, 2) == empty_graph(4)


def test_exact_distance_within_exact_power(catalog6):
    """A shortest path is in particular a simple path."""
    for G in catalog6:
        for p in (2, 3):
            P, E = exact_power(G, p), exact_distance_graph(G, p)
            for v in range(G.n):
                assert E.rows[v] & ~P.rows[v] == 0


def test_exact_distance_matches_brute_distances(catalog6, seeded_graphs):
    for G in catalog6 + seeded_graphs:
        for p in (1, 2, 3, 4):
            want = [sum(1 << y for y, d in brute_distances(G, x, G.full_mask).items()
                        if d == p) for x in range(G.n)]
            assert list(exact_distance_graph(G, p).rows) == want, (G.rows, p)


def test_exact_power_matches_oracle(catalog6):
    rng = random.Random(31)
    extra = []
    for n in (8, 9, 10):
        for _ in range(2):
            extra.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                         if rng.random() < 0.35]))
    for p in (2, 3, 4, 5):
        for G in catalog6 + extra:
            assert list(exact_power(G, p).rows) == brute_exact_power(G, p), (G, p)


def test_exact_power_size_cap():
    with pytest.raises(SizeLimitError):
        exact_power(path_graph(3), 8)


def test_odd_girth():
    assert odd_girth(cycle_graph(5)) == 5
    assert odd_girth(complete_graph(4)) == 3
    assert odd_girth(cycle_graph(6)) == INFINITY
    assert odd_girth(empty_graph(3)) == INFINITY
    assert odd_girth(petersen()) == 5
    G = disjoint_union([cycle_graph(6), cycle_graph(7)])
    assert odd_girth(G) == 7
    assert odd_girth(disjoint_union([cycle_graph(7), cycle_graph(6)])) == 7


def test_odd_girth_walks_a_bipartite_component_once(monkeypatch):
    """A walk without a depth limit that finds no odd edge settles its
    whole component; each root of a non-bipartite one still walks."""
    walks = []

    def counting_layers(*args):
        walks.append(args)
        return layers(*args)

    monkeypatch.setattr(powers, "layers", counting_layers)
    G = disjoint_union([cycle_graph(6), path_graph(4), empty_graph(3)])
    assert odd_girth(G) == INFINITY
    assert len(walks) == 5
    walks.clear()
    G = disjoint_union([cycle_graph(5), cycle_graph(6)])
    assert odd_girth(G) == 5
    assert len(walks) == 11  # the C6 roots walk too, once a bound exists


def test_odd_girth_matches_brute_odd_girth(catalog6, seeded_graphs):
    long_odd = [cycle_graph(15), disjoint_union([cycle_graph(8), cycle_graph(11)])]
    for G in catalog6 + seeded_graphs + long_odd:
        assert odd_girth(G) == brute_odd_girth(G), G.rows


def test_chromatic_number_known():
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(cycle_graph(6)) == 2
    assert chromatic_number(empty_graph(4)) == 1
    assert chromatic_number(empty_graph(0)) == 0
    assert chromatic_number(petersen()) == 3


def test_chromatic_number_matches_oracle(catalog5):
    for G in catalog5:
        chi = chromatic_number(G)
        if G.n:
            assert chi == brute_chromatic(G)


def test_chromatic_number_below_clique_bound():
    """Random graphs from sparse to nearly complete: the search from the
    clique size upward, with one maximum clique pinned, matches the oracle."""
    rng = random.Random(21)
    for n in (6, 7):
        for density in (0.3, 0.5, 0.7, 0.9):
            for _ in range(2):
                G = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                    if rng.random() < density])
                assert chromatic_number(G) == brute_chromatic(G), G


def test_chromatic_numbers_pinned(catalog7):
    """chi of every graph on at most 7 vertices and of its exact cube, as
    recorded when the search still started from the greedy clique and
    DSATUR bounds."""
    dump = [[chromatic_number(G) for G in catalog7],
            [chromatic_number(exact_power(G, 3)) for G in catalog7]]
    assert hashlib.sha256(json.dumps(dump).encode()).hexdigest() == \
        "4aba3d4e6e414472753781963bc2d7fd887a777e22f947945074b706a0be3eea"


def test_chromatic_number_size_cap(monkeypatch):
    monkeypatch.setattr(powers, "CHROMATIC_LIMIT", 4)
    assert chromatic_number(complete_graph(4)) == 4
    with pytest.raises(SizeLimitError):
        chromatic_number(cycle_graph(5))


def test_odd_power_experiment():
    corpus = [cycle_graph(5), cycle_graph(7), complete_graph(3), cycle_graph(6)]
    rep = odd_power_experiment(corpus, 3, n_claim=30)
    assert rep["p"] == 3 and rep["claim_holds"]
    by_index = {item["index"]: item for item in rep["items"]}
    assert by_index[2]["skipped"]  # K3 has odd girth exactly 3
    assert not by_index[0]["skipped"]
    assert by_index[3]["odd_girth"] == "infinity"
    # the exact cube of C5 is another 5-cycle (distance-2 pairs only)
    assert by_index[0]["chi_exact_power"] == 3
    assert rep["max_chi_exact_power"] >= 3
    with pytest.raises(GraphError):
        odd_power_experiment(corpus, 2)


@pytest.mark.parametrize("call, message", [
    (lambda G: exact_power(G, 0), "power must be >= 1"),
    (lambda G: exact_distance_graph(G, -1), "distance must be >= 1"),
    (lambda G: odd_power_experiment([G], 4), "the odd-power experiment needs odd p"),
])
def test_bad_p_raises_graph_error(call, message):
    """A bad p is a bad operation argument, like every other one."""
    with pytest.raises(GraphError, match=message):
        call(cycle_graph(5))


def test_odd_power_experiment_bound_check_raises(monkeypatch):
    # chi of the exact p-power of C5 may not exceed 2^3 + 1
    monkeypatch.setattr(powers, "chromatic_number", lambda G: 10)
    with pytest.raises(InternalCheckError):
        odd_power_experiment([cycle_graph(5)], 3)
