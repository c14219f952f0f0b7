import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from homdual.catalog import GraphFilters, generate_all_graphs
from homdual.graphs import build_graph


@pytest.fixture(scope="session")
def catalog4():
    """All graphs on at most 4 vertices, one per isomorphism class."""
    return generate_all_graphs(4)


@pytest.fixture(scope="session")
def catalog5():
    return generate_all_graphs(5)


@pytest.fixture(scope="session")
def catalog6():
    return generate_all_graphs(6)


@pytest.fixture(scope="session")
def catalog7():
    return generate_all_graphs(7)


@pytest.fixture(scope="session")
def connected6():
    return generate_all_graphs(6, GraphFilters(connected=True))


@pytest.fixture(scope="session")
def subcubic7():
    """Connected graphs of maximum degree 3 on at most 7 vertices."""
    return generate_all_graphs(7, GraphFilters(max_degree=3, connected=True))


@pytest.fixture(scope="session")
def subcubic8():
    """Connected graphs of maximum degree 3 on at most 8 vertices."""
    return generate_all_graphs(8, GraphFilters(max_degree=3, connected=True))


@pytest.fixture(scope="session")
def seeded_graphs():
    """Twenty seeded random graphs on 10 to 30 vertices, sparse to dense."""
    rng = random.Random(15)
    out = []
    for density in (0.08, 0.12, 0.2, 0.35) * 5:
        n = rng.randint(10, 30)
        out.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if rng.random() < density]))
    return out
