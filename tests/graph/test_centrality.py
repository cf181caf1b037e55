"""Tests for centrality measures against networkx and known structures."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph import (
    Graph,
    centrality_ranking,
    cycle_graph,
    degree_centrality,
    eigenvector_centrality,
    path_graph,
    star_graph,
    to_networkx,
)

from tests.conftest import random_graphs


def _scatter_add_centrality(g, max_iter=200, tol=1e-10):
    """Reference: power iteration on A + I written out with np.add.at."""
    if g.num_edges == 0:
        return np.full(g.n, 1.0 / np.sqrt(g.n))
    x = np.full(g.n, 1.0 / np.sqrt(g.n))
    src = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    dst = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    for _ in range(max_iter):
        y = x.copy()
        np.add.at(y, src, x[dst])
        y /= np.linalg.norm(y)
        if np.linalg.norm(y - x) < tol:
            x = y
            break
        x = y
    return np.abs(x)


class TestEigenvectorCentrality:
    def test_star_center_dominates(self):
        c = eigenvector_centrality(star_graph(6))
        assert c[0] == c.max()
        assert np.allclose(c[1:], c[1])

    def test_cycle_uniform(self):
        c = eigenvector_centrality(cycle_graph(7))
        assert np.allclose(c, c[0])

    def test_path_middle_highest(self):
        c = eigenvector_centrality(path_graph(5))
        assert np.argmax(c) == 2
        assert np.allclose(c[0], c[4])  # symmetry

    def test_unit_norm(self):
        c = eigenvector_centrality(path_graph(6))
        assert np.isclose(np.linalg.norm(c), 1.0)

    def test_empty_graph(self):
        assert eigenvector_centrality(Graph(0, [])).size == 0

    def test_edgeless_uniform(self):
        c = eigenvector_centrality(Graph(4, []))
        assert np.allclose(c, 0.5)

    def test_bipartite_converges(self):
        # Power iteration on plain A oscillates on bipartite graphs; the
        # A + I shift must converge.
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])  # K_{2,2}
        c = eigenvector_centrality(g)
        assert np.allclose(c, c[0])

    @given(random_graphs(min_nodes=2, max_nodes=10))
    @settings(max_examples=25, deadline=None)
    def test_non_negative(self, g):
        assert np.all(eigenvector_centrality(g) >= 0)

    @given(random_graphs(min_nodes=2, max_nodes=14))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_scatter_add_power_iteration(self, g):
        # Vertex alignment sorts on these scores, so the fast iteration
        # must reproduce the plain scatter-add one bit for bit.
        assert eigenvector_centrality(g).tobytes() == _scatter_add_centrality(g).tobytes()

    def test_matches_networkx_on_connected(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            from repro.graph import ensure_connected, erdos_renyi

            g = ensure_connected(erdos_renyi(12, 0.3, rng), rng)
            ours = eigenvector_centrality(g)
            theirs = nx.eigenvector_centrality_numpy(to_networkx(g))
            theirs = np.array([theirs[v] for v in range(g.n)])
            theirs = np.abs(theirs) / np.linalg.norm(theirs)
            assert np.allclose(ours, theirs, atol=1e-5)


class TestDegreeCentrality:
    def test_star(self):
        c = degree_centrality(star_graph(5))
        assert c[0] == 1.0
        assert np.allclose(c[1:], 0.25)

    def test_singleton(self):
        assert degree_centrality(Graph(1, [])).tolist() == [0.0]

    def test_matches_networkx(self):
        g = path_graph(6)
        theirs = nx.degree_centrality(to_networkx(g))
        ours = degree_centrality(g)
        assert np.allclose(ours, [theirs[v] for v in range(g.n)])


class TestCentralityRanking:
    def test_descending(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert centrality_ranking(scores).tolist() == [1, 2, 0]

    def test_ascending(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert centrality_ranking(scores, descending=False).tolist() == [0, 2, 1]

    def test_stable_on_ties(self):
        scores = np.array([0.5, 0.5, 0.5])
        assert centrality_ranking(scores).tolist() == [0, 1, 2]
