"""Finite subgraphs of the two-way infinite path, with exact measures.

A graph is stored as a canonical tuple of maximal intervals ``(s, t)`` with
``s < t``; the interval ``(s, t)`` stands for the path on vertices
``s, s+1, ..., t``.  All measures (edge count, component count, longest
component) and all operations (union, component subtraction, neighborhood,
edge difference) are exact integer computations on the interval list.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import InvalidCoveringError, InvalidIntervalError


def _canonical(intervals: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sort intervals and merge any two that share a vertex."""
    ivs = sorted((int(s), int(t)) for s, t in intervals if s != t)
    for s, t in ivs:
        if s > t:
            raise InvalidIntervalError(f"interval ({s}, {t}) has s > t")
    merged: list[list[int]] = []
    for s, t in ivs:
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t)
        else:
            merged.append([s, t])
    return tuple((s, t) for s, t in merged)


class PathGraph:
    """Immutable disjoint union of paths, canonical per edge set."""

    __slots__ = ("intervals", "_hash")

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "intervals", _canonical(intervals))
        object.__setattr__(self, "_hash", hash(self.intervals))

    def __setattr__(self, name, value):
        raise AttributeError("PathGraph is immutable")

    # -- basic protocol -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, PathGraph) and self.intervals == other.intervals

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "PathGraph"):
        # canonical total order, used for deterministic tie-breaking
        return self.intervals < other.intervals

    def __bool__(self):
        return bool(self.intervals)

    def __repr__(self):
        if not self.intervals:
            return "PathGraph()"
        body = " + ".join(f"[{s},{t}]" for s, t in self.intervals)
        return f"PathGraph({body})"

    # -- measures -----------------------------------------------------------

    @property
    def norm(self) -> int:
        """Number of edges."""
        return sum(t - s for s, t in self.intervals)

    @property
    def delta(self) -> int:
        """Number of connected components."""
        return len(self.intervals)

    @property
    def lam(self) -> int:
        """Length of the longest component (0 for the empty graph)."""
        return max((t - s for s, t in self.intervals), default=0)

    def measures(self) -> tuple[int, int, int]:
        return (self.norm, self.delta, self.lam)

    @property
    def num_vertices(self) -> int:
        return sum(t - s + 1 for s, t in self.intervals)

    # -- vertex / edge views -------------------------------------------------

    def vertices(self) -> Iterator[int]:
        for s, t in self.intervals:
            yield from range(s, t + 1)

    def edges(self) -> Iterator[int]:
        """Yield edges by right endpoint: edge i is {i-1, i}."""
        for s, t in self.intervals:
            yield from range(s + 1, t + 1)

    def has_vertex(self, v: int) -> bool:
        return any(s <= v <= t for s, t in self.intervals)

    def has_edge(self, i: int) -> bool:
        return any(s < i <= t for s, t in self.intervals)

    def components(self) -> Iterator["PathGraph"]:
        for iv in self.intervals:
            yield PathGraph((iv,))

    # -- operations ----------------------------------------------------------

    def union(self, other: "PathGraph") -> "PathGraph":
        if not other.intervals:
            return self
        if not self.intervals:
            return other
        return PathGraph(self.intervals + other.intervals)

    __or__ = union

    def shares_vertex(self, other: "PathGraph") -> bool:
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            s1, t1 = a[i]
            s2, t2 = b[j]
            if t1 < s2:
                i += 1
            elif t2 < s1:
                j += 1
            else:
                return True
        return False

    def ominus(self, other: "PathGraph") -> "PathGraph":
        """Components of self that are vertex-disjoint from ``other``."""
        if not other.intervals or not self.intervals:
            return self
        keep = [
            iv
            for iv in self.intervals
            if not any(iv[0] <= t2 and s2 <= iv[1] for s2, t2 in other.intervals)
        ]
        if len(keep) == len(self.intervals):
            return self
        return PathGraph(keep)

    def edge_difference(self, other: "PathGraph") -> "PathGraph":
        """Graph on the edges of self that are not edges of ``other``."""
        out: list[tuple[int, int]] = []
        for s, t in self.intervals:
            cur = s
            for s2, t2 in other.intervals:
                if t2 <= cur:
                    continue
                if s2 >= t:
                    break
                lo, hi = max(cur, s2), min(t, t2)
                if lo < hi:
                    if cur < lo:
                        out.append((cur, lo))
                    cur = hi
            if cur < t:
                out.append((cur, t))
        return PathGraph(out)

    def intersect_edges(self, other: "PathGraph") -> "PathGraph":
        """Graph on the edges common to self and ``other``."""
        out = []
        for s, t in self.intervals:
            for s2, t2 in other.intervals:
                lo, hi = max(s, s2), min(t, t2)
                if lo < hi:
                    out.append((lo, hi))
        return PathGraph(out)

    def nbd(self, steps: int = 1) -> "PathGraph":
        """Iterated 1-neighborhood: all edges incident to a vertex, ``steps`` times."""
        if steps < 0:
            raise InvalidIntervalError("neighborhood radius must be >= 0")
        if steps == 0 or not self.intervals:
            return self
        return PathGraph((s - steps, t + steps) for s, t in self.intervals)

    def is_subgraph(self, other: "PathGraph") -> bool:
        return not self.edge_difference(other)

    def translate(self, offset: int) -> "PathGraph":
        return PathGraph((s + offset, t + offset) for s, t in self.intervals)

    def mirror(self, k: int) -> "PathGraph":
        """Reflect x -> k - x."""
        return PathGraph((k - t, k - s) for s, t in self.intervals)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"intervals": [list(iv) for iv in self.intervals]}

    @classmethod
    def from_json(cls, data) -> "PathGraph":
        if isinstance(data, str):
            data = json.loads(data)
        ivs = data["intervals"]
        for s, t in ivs:
            if s >= t:
                raise InvalidIntervalError(f"interval ({s}, {t}) in JSON input")
        return cls(ivs)


EMPTY = PathGraph()


def make_path(s: int, t: int) -> PathGraph:
    """The path on vertices s..t (requires s < t)."""
    if s >= t:
        raise InvalidIntervalError(f"make_path({s}, {t}): need s < t")
    return PathGraph(((s, t),))


def full_path(k: int) -> PathGraph:
    """Path_k, the path on vertices 0..k."""
    return make_path(0, k)


def single_edge(i: int) -> PathGraph:
    """E_i, the single edge {i-1, i}."""
    return make_path(i - 1, i)


def from_edges(edges: Iterable[int]) -> PathGraph:
    return PathGraph((i - 1, i) for i in edges)


def union_all(graphs: Iterable[PathGraph]) -> PathGraph:
    out: list[tuple[int, int]] = []
    for g in graphs:
        out.extend(g.intervals)
    return PathGraph(out)


GraphSequence = Sequence[PathGraph]


def residual_terms(
    seq: GraphSequence, base: PathGraph = EMPTY
) -> Iterator[tuple[PathGraph, PathGraph]]:
    """Yield (G_j {ominus} running-union, running-union-before-G_j) for each j."""
    acc = base
    for g in seq:
        yield g.ominus(acc), acc
        acc = acc.union(g)


def vec_measures(seq: GraphSequence, base: PathGraph = EMPTY) -> tuple[int, int, int]:
    """Sum of (components, longest, longest*components) of each graph after
    dropping its components that touch the union of the predecessors and ``base``."""
    vd = vl = vld = 0
    for resid, _ in residual_terms(seq, base):
        d = resid.delta
        l = resid.lam
        vd += d
        vl += l
        vld += l * d
    return vd, vl, vld


def vec_delta(seq: GraphSequence, base: PathGraph = EMPTY) -> int:
    return vec_measures(seq, base)[0]


def vec_lambda(seq: GraphSequence, base: PathGraph = EMPTY) -> int:
    return vec_measures(seq, base)[1]


def vec_lambda_delta(seq: GraphSequence, base: PathGraph = EMPTY) -> int:
    return vec_measures(seq, base)[2]


def surviving_components(seq: GraphSequence, base: PathGraph = EMPTY) -> list[PathGraph]:
    """All components of G_j {ominus} (predecessors), over j, sorted by position."""
    comps: list[PathGraph] = []
    for resid, _ in residual_terms(seq, base):
        comps.extend(resid.components())
    comps.sort(key=lambda g: g.intervals)
    return comps


def _covered_length(seq: GraphSequence) -> int:
    """k, for a sequence whose union is Path_k; InvalidCoveringError otherwise."""
    u = union_all(seq)
    if len(u.intervals) != 1 or u.intervals[0][0] != 0:
        raise InvalidCoveringError(f"union {u!r} is not a path 0..k")
    return u.intervals[0][1]


def gap(seq: GraphSequence) -> Fraction:
    """Largest distance from a point of [0, k] to the nearest midpoint of a
    surviving component of the covering sequence (exact rational)."""
    k = _covered_length(seq)
    mids = [Fraction(s + t, 2) for c in surviving_components(seq) for s, t in c.intervals]
    best = max(mids[0] - 0, k - mids[-1])
    for p, q in zip(mids, mids[1:]):
        best = max(best, (q - p) / 2)
    return best


def sequence_to_json(seq: GraphSequence) -> dict:
    return {"graphs": [g.to_json() for g in seq]}


def sequence_from_json(data) -> list[PathGraph]:
    if isinstance(data, str):
        data = json.loads(data)
    return [PathGraph.from_json(g) for g in data["graphs"]]
