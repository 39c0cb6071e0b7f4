from pathlib import Path

import pytest

from hydrostate import Network, Node, Pipe

DEMO_DIR = Path(__file__).resolve().parents[1] / "demo"


@pytest.fixture
def single_pipe() -> Network:
    return Network(
        [Node("r1", "fixed-head", head=100.0), Node("n1", "demand", demand=2.0)],
        [Pipe("p1", "r1", "n1", 10.0)],
    )


@pytest.fixture
def stiff_pipe() -> Network:
    """The single pipe with resistance 1e308: finite, so the network is
    valid, but no Newton step on it is finite."""
    return Network(
        [Node("r1", "fixed-head", head=100.0), Node("n1", "demand", demand=2.0)],
        [Pipe("p1", "r1", "n1", 1e308)],
    )


@pytest.fixture
def triangle() -> Network:
    return Network(
        [
            Node("r1", "fixed-head", head=100.0),
            Node("n1", "demand", demand=2.0),
            Node("n2", "demand", demand=1.5),
        ],
        [
            Pipe("p1", "r1", "n1", 10.0),
            Pipe("p2", "r1", "n2", 20.0),
            Pipe("p3", "n1", "n2", 15.0),
        ],
    )


@pytest.fixture
def demo_dir() -> Path:
    return DEMO_DIR
