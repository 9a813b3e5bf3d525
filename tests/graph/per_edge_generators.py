"""The per-edge generators: each builds a dict ``Graph`` one ``add_node`` /
``add_edge`` at a time.

``repro.graph.generators`` built its graphs this way before they were
collected into arrays; these are kept as the oracle its array-born graphs
are held to (``test_array_born.py``), with the same RNG calls in the same
order, so one seed gives one graph either way.
"""

import random
from typing import List, Optional, Tuple

from repro.errors import GraphError
from repro.graph.graph import Graph


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed if seed is not None else 0)


def erdos_renyi(n: int, p: float, directed: bool = False,
                weighted: bool = False, seed: Optional[int] = None) -> Graph:
    """G(n, p) random graph; each ordered (or unordered) pair independently."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = _rng(seed)
    g = Graph(directed=directed)
    for v in range(n):
        g.add_node(v)
    for u in range(n):
        start = 0 if directed else u + 1
        for v in range(start, n):
            if u != v and rng.random() < p:
                w = rng.uniform(1.0, 10.0) if weighted else 1.0
                g.add_edge(u, v, w)
    return g


def powerlaw(n: int, m: int = 3, directed: bool = False,
             weighted: bool = False, seed: Optional[int] = None) -> Graph:
    """Barabási–Albert preferential attachment: ``m`` edges per new node.

    Produces the heavy-tailed degree distribution of social/web graphs
    (Friendster, UKWeb stand-in).
    """
    if n < m + 1:
        raise GraphError(f"need n > m, got n={n}, m={m}")
    rng = _rng(seed)
    g = Graph(directed=directed)
    # seed clique of m+1 nodes
    repeated: List[int] = []
    for v in range(m + 1):
        g.add_node(v)
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            w = rng.uniform(1.0, 10.0) if weighted else 1.0
            g.add_edge(u, v, w)
            repeated.extend((u, v))
    for v in range(m + 1, n):
        chosen = set()
        while len(chosen) < m:
            chosen.add(rng.choice(repeated))
        for u in chosen:
            w = rng.uniform(1.0, 10.0) if weighted else 1.0
            g.add_edge(v, u, w)
        repeated.extend(chosen)
        repeated.extend([v] * m)
    return g


def rmat(scale: int, edge_factor: int = 8,
         a: float = 0.57, b: float = 0.19, c: float = 0.19,
         directed: bool = True, weighted: bool = False,
         seed: Optional[int] = None) -> Graph:
    """RMAT/Kronecker generator as used by GTgraph (paper's synthetic graphs).

    ``2**scale`` nodes, ``edge_factor * 2**scale`` sampled edges, quadrant
    probabilities ``(a, b, c, 1-a-b-c)``.  Isolated node ids are still added so
    node count is exactly ``2**scale``.
    """
    if a + b + c >= 1.0:
        raise GraphError("require a + b + c < 1")
    rng = _rng(seed)
    n = 1 << scale
    g = Graph(directed=directed)
    for v in range(n):
        g.add_node(v)
    for _ in range(edge_factor * n):
        u = v = 0
        half = n >> 1
        while half >= 1:
            r = rng.random()
            if r < a:
                pass
            elif r < a + b:
                v += half
            elif r < a + b + c:
                u += half
            else:
                u += half
                v += half
            half >>= 1
        if u == v:
            continue
        w = rng.uniform(1.0, 10.0) if weighted else 1.0
        g.add_edge(u, v, w)
    return g


def small_world(n: int, k: int = 4, beta: float = 0.1,
                weighted: bool = False, seed: Optional[int] = None) -> Graph:
    """Watts–Strogatz small-world graph: ring lattice with rewiring."""
    if k % 2 or k >= n:
        raise GraphError(f"k must be even and < n, got k={k}, n={n}")
    rng = _rng(seed)
    g = Graph(directed=False)
    for v in range(n):
        g.add_node(v)
    for v in range(n):
        for off in range(1, k // 2 + 1):
            u = (v + off) % n
            tgt = u
            if rng.random() < beta:
                tgt = rng.randrange(n)
                tries = 0
                while (tgt == v or g.has_edge(v, tgt)) and tries < 16:
                    tgt = rng.randrange(n)
                    tries += 1
                if tgt == v or g.has_edge(v, tgt):
                    tgt = u
            if not g.has_edge(v, tgt) and tgt != v:
                w = rng.uniform(1.0, 10.0) if weighted else 1.0
                g.add_edge(v, tgt, w)
    return g


def grid2d(rows: int, cols: int, weighted: bool = True,
           seed: Optional[int] = None) -> Graph:
    """2-D grid road network (traffic stand-in): node id = row*cols + col.

    Large diameter and uniform degree make it the adversarial case for BSP
    (many supersteps), matching the paper's *traffic* results.
    """
    if rows < 1 or cols < 1:
        raise GraphError("grid needs positive dimensions")
    rng = _rng(seed)
    g = Graph(directed=False)
    for r in range(rows):
        for c in range(cols):
            g.add_node(r * cols + c)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                w = rng.uniform(1.0, 10.0) if weighted else 1.0
                g.add_edge(v, v + 1, w)
            if r + 1 < rows:
                w = rng.uniform(1.0, 10.0) if weighted else 1.0
                g.add_edge(v, v + cols, w)
    return g


def bipartite_ratings(num_users: int, num_items: int, ratings_per_user: int,
                      rank: int = 4, noise: float = 0.05,
                      seed: Optional[int] = None
                      ) -> Tuple[Graph, List[List[float]], List[List[float]]]:
    """Bipartite user×item rating graph with planted latent factors.

    Users are nodes ``("u", i)``; items are nodes ``("p", j)``.  Each user
    rates ``ratings_per_user`` distinct random items; the rating is
    ``dot(u_f, p_f) + noise`` for planted rank-``rank`` factors, so CF has a
    recoverable ground truth.  Returns ``(graph, user_factors, item_factors)``.
    """
    if ratings_per_user > num_items:
        raise GraphError("ratings_per_user cannot exceed num_items")
    rng = _rng(seed)
    user_f = [[rng.uniform(0.1, 1.0) for _ in range(rank)]
              for _ in range(num_users)]
    item_f = [[rng.uniform(0.1, 1.0) for _ in range(rank)]
              for _ in range(num_items)]
    g = Graph(directed=False)
    for i in range(num_users):
        g.add_node(("u", i))
    for j in range(num_items):
        g.add_node(("p", j))
    for i in range(num_users):
        items = rng.sample(range(num_items), ratings_per_user)
        for j in items:
            rating = sum(a * b for a, b in zip(user_f[i], item_f[j]))
            rating += rng.gauss(0.0, noise)
            g.add_edge(("u", i), ("p", j), rating)
    return g, user_f, item_f


def path_graph(n: int, weighted: bool = False,
               seed: Optional[int] = None) -> Graph:
    """Simple path 0-1-...-(n-1); worst case for propagation depth."""
    rng = _rng(seed)
    g = Graph(directed=False)
    for v in range(n):
        g.add_node(v)
    for v in range(n - 1):
        w = rng.uniform(1.0, 10.0) if weighted else 1.0
        g.add_edge(v, v + 1, w)
    return g


def star_graph(n: int) -> Graph:
    """Star with hub 0 and n-1 leaves; extreme degree skew in one node."""
    g = Graph(directed=False)
    g.add_node(0)
    for v in range(1, n):
        g.add_edge(0, v, 1.0)
    return g


def complete_graph(n: int, directed: bool = False) -> Graph:
    """Clique over ``n`` nodes (used by the MapReduce simulation, Thm. 4)."""
    g = Graph(directed=directed)
    for v in range(n):
        g.add_node(v)
    for u in range(n):
        for v in range(n):
            if u < v or (directed and u != v):
                g.add_edge(u, v, 1.0)
    return g
