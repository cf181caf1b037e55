"""Vertex centrality measures.

DeepMap aligns vertices across graphs by sorting them on eigenvector
centrality (Bonacich 1987), computed by power iteration as the paper
specifies.  Degree centrality is kept as an ablation alternative
(``benchmarks/bench_ablation_ordering.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.graph import Graph
from repro.utils.validation import check_positive

__all__ = [
    "eigenvector_centrality",
    "degree_centrality",
    "pagerank_centrality",
    "closeness_centrality",
    "betweenness_centrality",
    "centrality_ranking",
]


def eigenvector_centrality(
    g: Graph,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> np.ndarray:
    """Eigenvector centrality via power iteration on the adjacency matrix.

    The returned vector is L2-normalised and non-negative.  For graphs with
    no edges every vertex receives the same score (uniform), matching the
    limit behaviour of the damped iteration below.

    Power iteration on a plain adjacency matrix fails to converge on
    bipartite components (eigenvalue multiplicity); we iterate on
    ``A + I`` instead, which shifts the spectrum away from symmetric
    plus/minus pairs without changing the principal eigenvector.
    """
    check_positive("max_iter", max_iter)
    if g.n == 0:
        return np.empty(0, dtype=np.float64)
    if g.num_edges == 0:
        return np.full(g.n, 1.0 / np.sqrt(g.n))

    n = g.n
    x = np.full(n, 1.0 / np.sqrt(n))
    # y = (A + I) x as one weighted bincount: the identity term first,
    # then the symmetrised edge list, so every y[v] sums x[v] and then
    # its neighbours in edge order (bitwise what a scatter-add onto a
    # copy of x gives).  The norms are sqrt(y . y), as np.linalg.norm
    # computes them, without its per-call dispatch.
    index = np.concatenate([np.arange(n), g.edges[:, 0], g.edges[:, 1]])
    gather = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    weights = np.empty(index.size)
    for _ in range(max_iter):
        weights[:n] = x
        weights[n:] = x[gather]
        y = np.bincount(index, weights=weights, minlength=n)
        y /= math.sqrt(y.dot(y))
        step = y - x
        if math.sqrt(step.dot(step)) < tol:
            x = y
            break
        x = y
    return np.abs(x)


def degree_centrality(g: Graph) -> np.ndarray:
    """Degree / (n - 1) per vertex (the classic normalised degree centrality)."""
    if g.n <= 1:
        return np.zeros(g.n, dtype=np.float64)
    return g.degrees().astype(np.float64) / (g.n - 1)


def pagerank_centrality(
    g: Graph,
    damping: float = 0.85,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> np.ndarray:
    """PageRank scores via power iteration on the damped random walk.

    Dangling (degree-0) vertices distribute their mass uniformly, the
    standard convention.  Scores sum to 1.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if g.n == 0:
        return np.empty(0, dtype=np.float64)
    x = np.full(g.n, 1.0 / g.n)
    degrees = g.degrees().astype(np.float64)
    src = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    dst = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    dangling = degrees == 0
    safe_deg = np.where(dangling, 1.0, degrees)
    for _ in range(max_iter):
        contrib = x / safe_deg
        y = np.zeros(g.n)
        np.add.at(y, dst, contrib[src])
        y += x[dangling].sum() / g.n
        y = (1.0 - damping) / g.n + damping * y
        if np.abs(y - x).sum() < tol:
            x = y
            break
        x = y
    return x


def closeness_centrality(g: Graph) -> np.ndarray:
    """Closeness = (reachable count) / (n-1) / (mean distance), the
    Wasserman-Faust formula that handles disconnected graphs."""
    from repro.graph.traversal import bfs_distances

    if g.n <= 1:
        return np.zeros(g.n, dtype=np.float64)
    out = np.zeros(g.n, dtype=np.float64)
    for v in range(g.n):
        dist = bfs_distances(g, v)
        reachable = dist > 0
        total = dist[reachable].sum()
        k = int(reachable.sum())
        if total > 0:
            out[v] = (k / (g.n - 1)) * (k / total)
    return out


def betweenness_centrality(g: Graph, normalized: bool = True) -> np.ndarray:
    """Shortest-path betweenness via Brandes' algorithm (unweighted)."""
    from collections import deque

    bc = np.zeros(g.n, dtype=np.float64)
    for s in range(g.n):
        # Single-source shortest-path DAG.
        sigma = np.zeros(g.n)
        sigma[s] = 1.0
        dist = np.full(g.n, -1)
        dist[s] = 0
        parents: list[list[int]] = [[] for _ in range(g.n)]
        order: list[int] = []
        queue: deque[int] = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in g.neighbors(v):
                ui = int(u)
                if dist[ui] < 0:
                    dist[ui] = dist[v] + 1
                    queue.append(ui)
                if dist[ui] == dist[v] + 1:
                    sigma[ui] += sigma[v]
                    parents[ui].append(v)
        # Dependency accumulation.
        delta = np.zeros(g.n)
        for v in reversed(order):
            for p in parents[v]:
                delta[p] += sigma[p] / sigma[v] * (1.0 + delta[v])
            if v != s:
                bc[v] += delta[v]
    bc /= 2.0  # undirected: each pair counted twice
    if normalized and g.n > 2:
        bc /= (g.n - 1) * (g.n - 2) / 2.0
    return bc


def centrality_ranking(scores: np.ndarray, descending: bool = True) -> np.ndarray:
    """Stable ranking of vertices by centrality score.

    Ties are broken by vertex id (ascending), which keeps the ordering
    deterministic; the alignment layer further refines ties with degree
    and label information to improve isomorphism invariance.
    """
    order = np.argsort(-scores if descending else scores, kind="stable")
    return order.astype(np.int64)
