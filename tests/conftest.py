import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from homdual.catalog import GraphFilters, generate_all_graphs


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
