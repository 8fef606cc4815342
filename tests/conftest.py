import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest

from pgft import graph


@pytest.fixture
def graph_radii(monkeypatch):
    """The epsilon_sq of every graph built while the test runs."""
    radii = set()
    build = graph.build_epsilon_graph
    monkeypatch.setattr(graph, "build_epsilon_graph",
                        lambda pts, normals, epsilon_sq:
                        radii.add(epsilon_sq) or build(pts, normals, epsilon_sq))
    return radii
