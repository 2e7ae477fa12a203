"""Seeded random generators for coverings, trees, and relations.

Shared by the command-line verification suites and the test suite; every
generator takes an explicit ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import random

from . import jointrees
from .paths import PathGraph, from_edges, full_path, make_path, union_all
from .relations import Relation


def random_pathgraph(rng: random.Random, lo: int = 0, hi: int = 12, max_comps: int = 3) -> PathGraph:
    """A graph of up to max_comps random intervals inside [lo, hi]."""
    out = []
    for _ in range(rng.randint(0, max_comps)):
        s = rng.randint(lo, hi - 1)
        t = rng.randint(s + 1, min(hi, s + 4))
        out.append((s, t))
    return PathGraph(out)


def random_sequence(
    rng: random.Random, m: int = 6, lo: int = 0, hi: int = 12
) -> list[PathGraph]:
    return [random_pathgraph(rng, lo, hi) for _ in range(m)]


def random_covering(rng: random.Random, k: int, extra: int = 4) -> list[PathGraph]:
    """A covering of Path_k by random intervals plus single-edge fill."""
    graphs = []
    for _ in range(extra):
        s = rng.randint(0, k - 1)
        t = rng.randint(s + 1, min(k, s + max(2, k // 2)))
        graphs.append(make_path(s, t))
    covered = union_all(graphs)
    for e in full_path(k).edge_difference(covered).edges():
        graphs.append(from_edges([e]))
    rng.shuffle(graphs)
    return graphs


def random_unit_covering(rng: random.Random, k: int, group_hint: int = 3) -> list[PathGraph]:
    """A covering of Path_k whose members are disjoint unions of single edges."""
    remaining = list(range(1, k + 1))
    rng.shuffle(remaining)
    graphs: list[PathGraph] = []
    while remaining:
        width = rng.randint(1, group_hint)
        group: list[int] = []
        rest: list[int] = []
        for e in remaining:
            if len(group) < width and all(abs(e - other) > 1 for other in group):
                group.append(e)
            else:
                rest.append(e)
        graphs.append(from_edges(group))
        remaining = rest
    for _ in range(rng.randint(0, 2)):  # duplicated members are legal
        graphs.append(from_edges([rng.randint(1, k)]))
    rng.shuffle(graphs)
    return graphs


def random_chain_covering(rng: random.Random, k: int) -> list[PathGraph]:
    """A covering of Path_k with vector-component value exactly 1: every
    graph after the first touches the union of its predecessors."""
    s = rng.randint(0, k - 1)
    t = rng.randint(s + 1, min(k, s + 3))
    graphs = [make_path(s, t)]
    acc = graphs[0]
    attempts = 0
    while acc != full_path(k) and attempts < 10 * k + 50:
        attempts += 1
        lo, hi = acc.intervals[0][0], acc.intervals[-1][1]
        parts = []
        for _ in range(rng.randint(1, 2)):
            if hi < k and (lo == 0 or rng.random() < 0.5):
                a = rng.randint(max(0, hi - 2), hi)
                b = rng.randint(hi, min(k, hi + 3))
            else:
                b = rng.randint(lo, min(k, lo + 2))
                a = rng.randint(max(0, lo - 3), lo)
            if a < b:
                parts.append((a, b))
        cand = PathGraph(parts)
        if not cand or not cand.shares_vertex(acc):
            continue
        if all(c.shares_vertex(acc) for c in cand.components()):
            graphs.append(cand)
            acc = acc.union(cand)
    if acc != full_path(k):
        # fill outward from the covered interval so every new edge touches it
        lo, hi = acc.intervals[0][0], acc.intervals[-1][1]
        for e in range(hi + 1, k + 1):
            graphs.append(from_edges([e]))
        for e in range(lo, 0, -1):
            graphs.append(from_edges([e]))
    return graphs


def random_strict_tree(rng: random.Random, g: PathGraph) -> jointrees.JoinTree:
    """A random strict g-join tree: each edge goes left (0.4), right (0.4)
    or both (0.2), redrawn until both sides are nonempty proper subsets.
    g is the only graph validated: the split recurses on sorted edge lists,
    its leaves are trusted (``jointrees._edge_leaf``) and each inner node's
    graph is the union of its children's, so no subgraph of g is built."""
    edges = list(g.edges())
    return _random_strict(rng, edges) if edges else jointrees.leaf(g)


def _random_strict(rng: random.Random, edges: list[int]) -> jointrees.JoinTree:
    if len(edges) == 1:
        return jointrees._edge_leaf(edges[0])
    n = len(edges)
    while True:
        left, right = [], []
        for e in edges:
            roll = rng.random()
            if roll < 0.4:
                left.append(e)
            elif roll < 0.8:
                right.append(e)
            else:
                left.append(e)
                right.append(e)
        if left and right and len(left) < n and len(right) < n:
            break
    return jointrees.node(_random_strict(rng, left), _random_strict(rng, right))


def random_jointree(rng: random.Random, k: int, leaves: int = 6) -> jointrees.JoinTree:
    """A join tree over random single-edge leaves of Path_k (not necessarily
    strict; the root graph may be a proper subgraph of Path_k)."""
    pool = [jointrees._edge_leaf(rng.randint(1, k)) for _ in range(leaves)]
    while len(pool) > 1:
        i = rng.randrange(len(pool) - 1)
        a = pool.pop(i)
        b = pool.pop(rng.randrange(len(pool)))
        pool.append(jointrees.node(a, b))
    return pool[0]


def random_relation(rng: random.Random, g: PathGraph, n: int, density: float = 0.3) -> Relation:
    from itertools import product

    nv = g.num_vertices
    tuples = [t for t in product(range(1, n + 1), repeat=nv) if rng.random() < density]
    return Relation(g, n, tuples)
