"""Finite subgraphs of the two-way infinite path, with exact measures.

A graph is stored as a canonical tuple of maximal intervals ``(s, t)`` with
``s < t``: sorted, with no two intervals sharing a vertex.  The interval
``(s, t)`` stands for the path on vertices ``s, s+1, ..., t``.  All measures
(edge count, component count, longest component) and all operations (union,
component subtraction, neighborhood, edge difference) are exact integer
computations on the interval list.

The public constructor ``PathGraph(...)`` accepts any intervals: it converts,
validates, sorts and merges them.  The operations never need that.  A subset
of a canonical tuple, its translate and its mirror image are canonical
already, and a union is ``sorted`` over its members' intervals and one
``_coalesce`` pass, so each operation produces its tuple in one
left-to-right pass and wraps it with the trusted ``PathGraph._of``, which
stores the tuple without checking it.  ``_of`` is only for callers that
already hold a canonical tuple.

The vector measures scan a sequence once with the running union held as a
canonical tuple: a component survives when a bisect on the union's right ends
finds no interval that touches it (``_survivors``, the one touch test).  A
prefix scan takes each step with ``_absorb``, which returns a member's
survivors and the grown union from that same bisect pass.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain
from operator import index, itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import InvalidCoveringError, InvalidIntervalError

Intervals = tuple[tuple[int, int], ...]

_left = itemgetter(0)
_right = itemgetter(1)


def _coalesce(ivs: Iterable[tuple[int, int]]) -> Intervals:
    """Canonical tuple of intervals given sorted by left end: one pass that
    merges every interval into its predecessor when the two share a vertex."""
    out: list[tuple[int, int]] = []
    for s, t in ivs:
        if out and s <= out[-1][1]:
            if t > out[-1][1]:
                out[-1] = (out[-1][0], t)
        else:
            out.append((s, t))
    return tuple(out)


def _canonical(intervals: Iterable[tuple[int, int]]) -> Intervals:
    """Sort intervals and merge any two that share a vertex.  Endpoints go
    through ``operator.index`` before an interval with s == t is dropped, so a
    non-integer endpoint is refused instead of truncated."""
    try:
        pairs = [(index(s), index(t)) for s, t in intervals]
    except TypeError as exc:
        raise InvalidIntervalError(f"intervals must be pairs of integers: {exc}") from None
    ivs = sorted(iv for iv in pairs if iv[0] != iv[1])
    for s, t in ivs:
        if s > t:
            raise InvalidIntervalError(f"interval ({s}, {t}) has s > t")
    return _coalesce(ivs)


def _survivors(acc: Intervals, ivs: Intervals) -> Intervals:
    """The intervals of the canonical ``ivs`` that share no vertex with the
    canonical ``acc`` (``ivs`` itself when none does).  ``(s, t)`` touches
    ``acc`` iff the first interval of ``acc`` whose right end reaches s starts
    at or before t; ``ivs`` is sorted, so the bisects only move right."""
    if not acc or not ivs:
        return ivs
    n = len(acc)
    j = 0
    keep = []
    for iv in ivs:
        j = bisect_left(acc, iv[0], j, n, key=_right)
        if j == n or acc[j][0] > iv[1]:
            keep.append(iv)
    return ivs if len(keep) == len(ivs) else tuple(keep)


def _absorb(acc: Intervals, ivs: Intervals) -> tuple[Intervals, Intervals]:
    """(``_survivors(acc, ivs)``, the union of ``acc`` and ``ivs``) from one
    pass over the canonical ``ivs`` with bisects into the canonical ``acc``:
    the step of a prefix scan.  The intervals of ``acc`` that lie between two of
    ``ivs`` are copied as slices; ``(s, t)`` survives unless an interval of
    ``acc`` that reaches s starts by t, or the interval of ``acc`` that
    ended the previous merge reaches s."""
    if not acc or not ivs:
        return ivs, acc or ivs
    n = len(acc)
    out: list[tuple[int, int]] = []
    keep = []
    i = 0
    for iv in ivs:
        s, t = iv
        j = bisect_left(acc, s, i, n, key=_right)
        out += acc[i:j]
        # acc[j:i] are the intervals that reach s and start by t
        i = bisect_right(acc, t, j, n, key=_left)
        if out and out[-1][1] >= s:
            s, prev_t = out.pop()
            t = max(t, prev_t)
        elif i == j:
            keep.append(iv)
            out.append(iv)
            continue
        if i > j:
            s, t = min(s, acc[j][0]), max(t, acc[i - 1][1])
        out.append((s, t))
    out += acc[i:]
    return ivs if len(keep) == len(ivs) else tuple(keep), tuple(out)


def _terms(ivs: Intervals) -> tuple[int, int, int]:
    """(components, longest, longest * components) of a canonical tuple."""
    if not ivs:
        return 0, 0, 0
    lam = max([t - s for s, t in ivs])
    return len(ivs), lam, lam * len(ivs)


def _ranked_intervals(groups: Sequence[Intervals]) -> list[list[tuple[int, int]]]:
    """Each interval of each group as (vertex mask, length), the mask holding
    the ranks of the endpoints it contains, over one ranking of every
    endpoint of every group.  Two intervals share a vertex iff the larger of
    their left ends lies in both, so iff their masks meet; those of one
    canonical tuple never do, so the OR of its masks is their sum."""
    rank = {v: r for r, v in enumerate(sorted({v for ivs in groups for iv in ivs for v in iv}))}
    return [[((2 << rank[t]) - (1 << rank[s]), t - s) for s, t in ivs] for ivs in groups]


class PathGraph:
    """Immutable disjoint union of paths, canonical per edge set."""

    __slots__ = ("intervals", "_hash")

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "intervals", _canonical(intervals))
        object.__setattr__(self, "_hash", hash(self.intervals))

    @classmethod
    def _of(cls, intervals: Intervals) -> "PathGraph":
        """Trusted constructor: wraps a tuple that is already canonical,
        without checking it."""
        g = object.__new__(cls)
        object.__setattr__(g, "intervals", intervals)
        object.__setattr__(g, "_hash", hash(intervals))
        return g

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
        return max([t - s for s, t in self.intervals], default=0)

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
            yield PathGraph._of((iv,))

    # -- operations ----------------------------------------------------------

    def union(self, other: "PathGraph") -> "PathGraph":
        if not other.intervals:
            return self
        if not self.intervals:
            return other
        return PathGraph._of(_coalesce(sorted(self.intervals + other.intervals)))

    __or__ = union

    def shares_vertex(self, other: "PathGraph") -> bool:
        return _survivors(other.intervals, self.intervals) is not self.intervals

    def ominus(self, other: "PathGraph") -> "PathGraph":
        """Components of self that are vertex-disjoint from ``other``."""
        keep = _survivors(other.intervals, self.intervals)
        return self if keep is self.intervals else PathGraph._of(keep)

    def edge_difference(self, other: "PathGraph") -> "PathGraph":
        """Graph on the edges of self that are not edges of ``other``."""
        b = other.intervals
        n = len(b)
        out: list[tuple[int, int]] = []
        j = 0
        for s, t in self.intervals:
            # b[j:] are the intervals of ``other`` that can hold an edge past s
            j = bisect_left(b, s + 1, j, n, key=_right)
            cur = s
            h = j
            while h < n and b[h][0] < t:
                lo, hi = b[h]
                if cur < lo:
                    out.append((cur, lo))
                cur = hi
                h += 1
            if cur < t:
                out.append((cur, t))
        return PathGraph._of(tuple(out))

    def intersect_edges(self, other: "PathGraph") -> "PathGraph":
        """Graph on the edges common to self and ``other``."""
        a, b = self.intervals, other.intervals
        out: list[tuple[int, int]] = []
        i = j = 0
        while i < len(a) and j < len(b):
            lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return PathGraph._of(tuple(out))

    def nbd(self, steps: int = 1) -> "PathGraph":
        """Iterated 1-neighborhood: all edges incident to a vertex, ``steps`` times."""
        steps = index(steps)
        if steps < 0:
            raise InvalidIntervalError("neighborhood radius must be >= 0")
        if steps == 0 or not self.intervals:
            return self
        return PathGraph._of(_coalesce((s - steps, t + steps) for s, t in self.intervals))

    def is_subgraph(self, other: "PathGraph") -> bool:
        return not self.edge_difference(other)

    def translate(self, offset: int) -> "PathGraph":
        offset = index(offset)
        return PathGraph._of(tuple((s + offset, t + offset) for s, t in self.intervals))

    def mirror(self, k: int) -> "PathGraph":
        """Reflect x -> k - x."""
        k = index(k)
        return PathGraph._of(tuple((k - t, k - s) for s, t in reversed(self.intervals)))

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
    """k-way merge of the members' canonical tuples, then one pass that
    merges intervals sharing a vertex.  ``sorted`` finds each tuple as one
    sorted run and merges the runs in C, where ``heapq.merge`` would step
    through every interval in Python."""
    return PathGraph._of(_coalesce(sorted(chain.from_iterable(g.intervals for g in graphs))))


GraphSequence = Sequence[PathGraph]


def _residual_scan(seq: GraphSequence, base: Intervals = ()) -> Iterator[tuple[Intervals, Intervals]]:
    """For each member G_j, (the intervals of G_j that touch nothing of
    ``base`` | G_1 | ... | G_(j-1), that union), both canonical tuples.  No
    union is built after the last member."""
    acc = base
    last = len(seq) - 1
    for j, g in enumerate(seq):
        if j == last:
            yield _survivors(acc, g.intervals), acc
        else:
            keep, union = _absorb(acc, g.intervals)
            yield keep, acc
            acc = union


def residual_terms(
    seq: GraphSequence, base: PathGraph = EMPTY
) -> Iterator[tuple[PathGraph, PathGraph]]:
    """Yield (G_j {ominus} running-union, running-union-before-G_j) for each j."""
    for keep, acc in _residual_scan(seq, base.intervals):
        yield PathGraph._of(keep), PathGraph._of(acc)


def vec_measures(seq: GraphSequence, base: PathGraph = EMPTY) -> tuple[int, int, int]:
    """Sum of (components, longest, longest*components) of each graph after
    dropping its components that touch the union of the predecessors and ``base``."""
    vd = vl = vld = 0
    for keep, _ in _residual_scan(seq, base.intervals):
        if keep:
            d, l, ld = _terms(keep)
            vd += d
            vl += l
            vld += ld
    return vd, vl, vld


def vec_delta(seq: GraphSequence, base: PathGraph = EMPTY) -> int:
    return vec_measures(seq, base)[0]


def vec_lambda(seq: GraphSequence, base: PathGraph = EMPTY) -> int:
    return vec_measures(seq, base)[1]


def vec_lambda_delta(seq: GraphSequence, base: PathGraph = EMPTY) -> int:
    return vec_measures(seq, base)[2]


def _spans(keeps: Iterable[Intervals]) -> Intervals:
    """The survivors of a scan, given per member, as one canonical tuple: a
    survivor touches no earlier member, so no two of them share a vertex."""
    return tuple(sorted(chain.from_iterable(keeps)))


def _surviving_intervals(seq: GraphSequence, base: PathGraph = EMPTY) -> Intervals:
    """Every interval that survives the scan, as one canonical tuple."""
    return _spans(keep for keep, _ in _residual_scan(seq, base.intervals))


def surviving_components(seq: GraphSequence, base: PathGraph = EMPTY) -> list[PathGraph]:
    """All components of G_j {ominus} (predecessors), over j, sorted by position."""
    return [PathGraph._of((iv,)) for iv in _surviving_intervals(seq, base)]


def _path_length(union: Intervals) -> int:
    """k, for the canonical union of a sequence when it is Path_k;
    InvalidCoveringError otherwise."""
    if len(union) != 1 or union[0][0] != 0:
        raise InvalidCoveringError(f"union {PathGraph._of(union)!r} is not a path 0..k")
    return union[0][1]


def _covered_length(seq: GraphSequence) -> int:
    """k, for a sequence whose union is Path_k; InvalidCoveringError otherwise."""
    return _path_length(union_all(seq).intervals)


def gap(seq: GraphSequence) -> Fraction:
    """Largest distance from a point of [0, k] to the nearest midpoint of a
    surviving component of the covering sequence (exact rational)."""
    return _gap(_covered_length(seq), _surviving_intervals(seq))


def _gap(k: int, spans: Intervals) -> Fraction:
    """``gap`` of a covering of Path_k whose surviving intervals are ``spans``.
    It is worked out in quarter units, where the midpoint of (s, t) is
    2 (s + t), so every distance is an integer until the one ``Fraction``."""
    doubled = [s + t for s, t in spans]
    best = max(2 * doubled[0], 4 * k - 2 * doubled[-1])
    for p, q in zip(doubled, doubled[1:]):
        best = max(best, q - p)
    return Fraction(best, 4)


def sequence_to_json(seq: GraphSequence) -> dict:
    return {"graphs": [g.to_json() for g in seq]}


def sequence_from_json(data) -> list[PathGraph]:
    if isinstance(data, str):
        data = json.loads(data)
    return [PathGraph.from_json(g) for g in data["graphs"]]
