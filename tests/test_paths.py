"""Path-graph representation, measures, and the conditional vector measures."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab.errors import InvalidCoveringError, InvalidIntervalError
from pathlab.paths import (
    EMPTY,
    PathGraph,
    full_path,
    gap,
    make_path,
    single_edge,
    surviving_components,
    union_all,
    vec_delta,
    vec_measures,
)
from pathlab import samples

intervals_st = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(1, 4)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=4,
)
graph_st = intervals_st.map(PathGraph)
seq_st = st.lists(graph_st, max_size=5)


def edges_set(g: PathGraph) -> set[int]:
    return set(g.edges())


# -- construction and measures -------------------------------------------------


def test_make_path_basic():
    g = make_path(0, 25)
    assert g.measures() == (25, 1, 25)
    e = make_path(3, 4)
    assert e.norm == 1 and e.intervals == ((3, 4),)


def test_make_path_rejects_empty_interval():
    with pytest.raises(InvalidIntervalError):
        make_path(5, 5)
    with pytest.raises(InvalidIntervalError):
        make_path(7, 3)


def test_union_merges_adjacent_intervals():
    assert make_path(0, 2).union(make_path(2, 4)) == make_path(0, 4)
    two = make_path(0, 1).union(make_path(3, 4))
    assert two.delta == 2
    g = make_path(1, 5)
    assert g.union(EMPTY) == g
    assert EMPTY.union(g) == g


def test_empty_graph_measures():
    assert EMPTY.measures() == (0, 0, 0)
    assert not EMPTY


def test_delta_equals_vertices_minus_edges():
    rng = random.Random(0)
    for _ in range(200):
        g = samples.random_pathgraph(rng)
        assert g.delta == g.num_vertices - g.norm


def test_ominus():
    g = make_path(0, 2).union(make_path(4, 6))
    assert g.ominus(EMPTY) == g
    assert g.ominus(make_path(1, 4)) == EMPTY
    g2 = make_path(0, 2).union(make_path(5, 6))
    assert g2.ominus(make_path(3, 4)) == g2


def test_edge_difference():
    assert make_path(0, 4).edge_difference(make_path(1, 3)) == PathGraph(((0, 1), (3, 4)))
    g = make_path(2, 7)
    assert g.edge_difference(EMPTY) == g
    assert g.edge_difference(g) == EMPTY


def test_edge_difference_is_exact_on_edge_sets():
    rng = random.Random(1)
    for _ in range(200):
        p = samples.random_pathgraph(rng)
        q = samples.random_pathgraph(rng)
        assert edges_set(p.edge_difference(q)) == edges_set(p) - edges_set(q)
        assert edges_set(p.intersect_edges(q)) == edges_set(p) & edges_set(q)


def test_ominus_included_in_edge_difference():
    rng = random.Random(2)
    for _ in range(200):
        p = samples.random_pathgraph(rng)
        q = samples.random_pathgraph(rng)
        assert p.ominus(q).is_subgraph(p.edge_difference(q))


def test_nbd():
    e1 = make_path(0, 1)
    assert e1.nbd(1) == make_path(-1, 2)
    g = samples.random_pathgraph(random.Random(3))
    assert g.nbd(0) == g
    assert make_path(0, 1).union(make_path(5, 6)).nbd(2) == make_path(-2, 8)


def test_nbd_measure_bounds():
    rng = random.Random(4)
    for _ in range(300):
        p = samples.random_pathgraph(rng)
        q = samples.random_pathgraph(rng)
        t = rng.randint(0, 3)
        grown = p.nbd(t)
        assert grown.delta <= p.delta
        assert grown.norm <= 2 * t * p.delta + p.norm
        assert grown.edge_difference(q).norm <= 2 * t * p.delta + p.edge_difference(q).norm


# -- vector measures -----------------------------------------------------------


def test_vec_delta_standard_and_odd_even_order():
    e = [single_edge(i) for i in range(1, 26)]
    assert vec_delta(e) == 1
    assert vec_delta(e[0::2] + e[1::2]) == 13


def test_vec_delta_stride_order():
    stride = [single_edge(i) for j in range(1, 6) for i in range(j, 26, 5)]
    assert vec_delta(stride) == 5


@settings(max_examples=150, deadline=None)
@given(seq_st, graph_st, graph_st)
def test_conditional_vec_delta_monotone_and_prepend(seq, f0, extra):
    f = f0.union(extra)
    assert vec_delta(seq, f) <= vec_delta(seq, f0)
    assert vec_delta(seq, f) == vec_delta([f] + seq) - f.delta


@settings(max_examples=150, deadline=None)
@given(seq_st, graph_st)
def test_vec_delta_sandwich(seq, f):
    u = union_all(seq)
    assert u.ominus(f).delta <= vec_delta(seq, f) <= vec_delta([g.ominus(f) for g in seq])


@settings(max_examples=150, deadline=None)
@given(seq_st, seq_st, graph_st)
def test_vec_delta_chain_rule(seq1, seq2, f):
    u = union_all(seq1)
    assert vec_delta(seq1 + seq2, f) == vec_delta(seq1, f) + vec_delta(seq2, f.union(u))


@settings(max_examples=150, deadline=None)
@given(seq_st)
def test_vec_delta_prefix_union_form(seq):
    prefixes = []
    acc = EMPTY
    for g in seq:
        acc = acc.union(g)
        prefixes.append(acc)
    assert vec_delta(seq) == vec_delta(prefixes)


# -- gap ------------------------------------------------------------------------


def gap_oracle(seq) -> Fraction:
    """Independent computation: exact scan of the quarter-integer grid (which
    contains every candidate maximizer)."""
    u = union_all(seq)
    k = u.intervals[0][1]
    mids = [
        Fraction(s + t, 2) for c in surviving_components(seq) for s, t in c.intervals
    ]
    best = Fraction(0)
    y = Fraction(0)
    while y <= k:
        best = max(best, min(abs(p - y) for p in mids))
        y += Fraction(1, 4)
    return best


def test_gap_whole_path():
    assert gap([full_path(10)]) == Fraction(5)


def test_gap_standard_order_leaves_single_survivor():
    # only the first edge survives the running union, so the far end of the
    # interval realizes the distance
    e = [single_edge(i) for i in range(1, 11)]
    assert surviving_components(e) == [single_edge(1)]
    assert gap(e) == Fraction(19, 2)


def test_gap_endpoints_first():
    seq = [single_edge(1), single_edge(10)] + [single_edge(i) for i in range(2, 10)]
    assert gap(seq) == gap_oracle(seq) == Fraction(9, 2)


def test_gap_requires_full_covering():
    with pytest.raises(InvalidCoveringError):
        gap([single_edge(2)])


def test_gap_matches_grid_oracle_on_random_coverings():
    rng = random.Random(9)
    for _ in range(150):
        seq = samples.random_covering(rng, rng.randint(2, 10))
        assert gap(seq) == gap_oracle(seq)


def midpoint_gap(seq) -> Fraction:
    """gap from the midpoints as fractions: the larger of the distances
    from 0 and k to the outer midpoints and half of each adjacent pair."""
    k = union_all(seq).intervals[0][1]
    mids = [Fraction(s + t, 2) for c in surviving_components(seq) for s, t in c.intervals]
    return max([mids[0], k - mids[-1]] + [(q - p) / 2 for p, q in zip(mids, mids[1:])])


def test_gap_in_quarter_units_matches_the_midpoint_fractions():
    rng = random.Random(11)
    for n in range(2000):
        k = rng.randint(1, 60)
        seq = samples.random_covering(rng, k) if n % 2 else samples.random_chain_covering(rng, k)
        assert gap(seq) == midpoint_gap(seq)


def test_gap_lower_bounds_vec_delta():
    rng = random.Random(10)
    for _ in range(300):
        k = rng.randint(2, 14)
        seq = samples.random_covering(rng, k)
        assert vec_delta(seq) >= Fraction(k) / (2 * gap(seq))


# -- serialization ---------------------------------------------------------------


def test_json_round_trip():
    g = PathGraph(((0, 2), (5, 9)))
    assert PathGraph.from_json(g.to_json()) == g


def test_json_rejects_bad_interval():
    with pytest.raises(InvalidIntervalError):
        PathGraph.from_json({"intervals": [[3, 3]]})
