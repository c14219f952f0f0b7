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


@pytest.fixture(scope="session")
def mixed_density_graphs():
    """Seeded random graphs: fifteen sparse ones on 12 to 40 vertices, then
    one per order 30, 45, 60 and density 0.05, 0.1, 0.3, 0.6."""
    rng = random.Random(11)
    sparse = [build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < 3 / n])
              for n in (12, 20, 40) for _ in range(5)]
    dense = [build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < density])
             for n in (30, 45, 60) for density in (0.05, 0.1, 0.3, 0.6)]
    return sparse + dense
