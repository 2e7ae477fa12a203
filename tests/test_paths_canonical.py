"""Every path operation returns a canonical graph, equal to a set-of-edges
oracle, on seeded random inputs: coordinates near 0 and near +-10^9,
intervals that touch at one vertex, and empty operands.  The vector
measures equal their definition through the public ``ominus``/``union``."""

from __future__ import annotations

import random

import pytest

from pathlab import paths
from pathlab.errors import InvalidIntervalError
from pathlab.paths import (
    EMPTY,
    PathGraph,
    residual_terms,
    surviving_components,
    union_all,
    vec_delta,
    vec_lambda,
    vec_lambda_delta,
    vec_measures,
)

CENTERS = (0, -(10**9), 10**9, 10**9 - 7, -(10**9) + 7)
TRIALS = 1500


def random_graph(rng: random.Random, center: int | None = None) -> PathGraph:
    """0..5 random short intervals around one center; some pairs touch at
    one vertex, some overlap, and a fifth of the graphs are empty."""
    if rng.random() < 0.2:
        return EMPTY
    c = rng.choice(CENTERS) if center is None else center
    ivs = []
    for _ in range(rng.randint(1, 5)):
        s = c + rng.randint(-12, 12)
        t = s + rng.randint(1, 4)
        ivs.append((s, t))
        if rng.random() < 0.3:
            ivs.append((t, t + rng.randint(1, 3)))
    return PathGraph(ivs)


def pair(rng: random.Random) -> tuple[PathGraph, PathGraph]:
    """Two graphs around the same center, so that they interact."""
    c = rng.choice(CENTERS)
    return random_graph(rng, c), random_graph(rng, c)


# -- the oracle -------------------------------------------------------------------


def edges(g: PathGraph) -> set[int]:
    """Edge i is {i-1, i}."""
    return {e for s, t in g.intervals for e in range(s + 1, t + 1)}


def vertices(es: set[int]) -> set[int]:
    return {v for e in es for v in (e - 1, e)}


def runs(es: set[int]) -> list[set[int]]:
    """The components of an edge set: maximal runs of consecutive edges."""
    out: list[set[int]] = []
    for e in sorted(es):
        if out and e - 1 in out[-1]:
            out[-1].add(e)
        else:
            out.append({e})
    return out


def assert_canonical(out: PathGraph, want_edges: set[int]) -> None:
    assert all(type(x) is int for iv in out.intervals for x in iv)
    assert out == PathGraph(out.intervals)
    assert out.intervals == PathGraph(out.intervals).intervals
    assert hash(out) == hash(PathGraph(out.intervals))
    assert edges(out) == want_edges


# -- operations -------------------------------------------------------------------


def test_union_merges_intervals_that_touch_at_one_vertex():
    assert PathGraph._of(((0, 1),)).union(PathGraph._of(((1, 2),))).intervals == ((0, 2),)
    a = PathGraph(((0, 1), (3, 4), (6, 7), (9, 10)))
    b = PathGraph(((1, 3), (4, 6), (12, 13)))
    assert a.union(b).intervals == ((0, 7), (9, 10), (12, 13))
    assert b.union(a) == a.union(b)
    assert union_all([a, EMPTY, b, PathGraph(((10, 12),))]).intervals == ((0, 7), (9, 13))


def test_binary_operations_match_the_edge_oracle():
    rng = random.Random(901)
    for _ in range(TRIALS):
        a, b = pair(rng)
        ea, eb = edges(a), edges(b)
        assert_canonical(a.union(b), ea | eb)
        assert_canonical(a.edge_difference(b), ea - eb)
        assert_canonical(a.intersect_edges(b), ea & eb)
        vb = vertices(eb)
        kept = [c for c in runs(ea) if not vertices(c) & vb]
        assert_canonical(a.ominus(b), set().union(*kept))
        assert a.shares_vertex(b) == bool(vertices(ea) & vb)
        assert a.is_subgraph(b) == (ea <= eb)


def test_union_is_the_edge_and_vertex_union():
    # one sort and one coalesce pass: on canonical pairs near 0 and +-10^9,
    # some touching at one vertex only, the union has the operands' edges
    # and vertices, its components are the runs of its edges, and it is
    # the same from either side and as union_all
    rng = random.Random(904)
    seen = set()
    for _ in range(TRIALS):
        a, b = pair(rng)
        if rng.random() < 0.3 and a:
            # each interval of b starts where one of a ends
            b = PathGraph([(t, t + rng.randint(1, 3)) for _, t in a.intervals])
        u = a.union(b)
        assert_canonical(u, edges(a) | edges(b))
        assert set(u.vertices()) == set(a.vertices()) | set(b.vertices())
        assert [edges(c) for c in u.components()] == runs(edges(u))
        assert u == b.union(a) == union_all([a, b])
        seen.update(
            kind
            for kind, hit in (
                ("point", {t for _, t in a.intervals} & {s for s, _ in b.intervals}),
                ("far", any(abs(s) > 10**8 for s, _ in u.intervals)),
                ("empty", not a or not b),
            )
            if hit
        )
    assert seen == {"point", "far", "empty"}


def test_union_all_matches_the_edge_oracle():
    rng = random.Random(902)
    for _ in range(TRIALS):
        c = rng.choice(CENTERS)
        graphs = [random_graph(rng, c) for _ in range(rng.randint(0, 6))]
        assert_canonical(union_all(graphs), set().union(*map(edges, graphs)))
        assert_canonical(union_all(iter(graphs)), set().union(*map(edges, graphs)))


def test_unary_operations_match_the_edge_oracle():
    rng = random.Random(903)
    for _ in range(TRIALS):
        a = random_graph(rng)
        ea = edges(a)
        comps = list(a.components())
        for comp in comps:
            assert_canonical(comp, edges(comp))
        assert sorted(map(edges, comps), key=min) == runs(ea)
        offset = rng.choice((0, 1, -5, 10**9, -(10**9), 2 * 10**9))
        assert_canonical(a.translate(offset), {e + offset for e in ea})
        k = rng.choice((0, 7, 10**9, -(10**9)))
        # x -> k - x sends edge {e-1, e} to edge {k-e, k-e+1}
        assert_canonical(a.mirror(k), {k - e + 1 for e in ea})
        steps = rng.randint(0, 3)
        grown = ea
        for _ in range(steps):
            grown = {e for v in vertices(grown) for e in (v, v + 1)}
        assert_canonical(a.nbd(steps), grown)


def test_operations_on_empty_operands():
    g = PathGraph(((10**9 - 3, 10**9), (10**9, 10**9 + 2)))
    for out, want in [
        (g.union(EMPTY), g),
        (EMPTY.union(g), g),
        (g.ominus(EMPTY), g),
        (EMPTY.ominus(g), EMPTY),
        (g.edge_difference(EMPTY), g),
        (EMPTY.edge_difference(g), EMPTY),
        (g.intersect_edges(EMPTY), EMPTY),
        (EMPTY.nbd(2), EMPTY),
        (EMPTY.translate(5), EMPTY),
        (EMPTY.mirror(5), EMPTY),
        (union_all([]), EMPTY),
        (union_all([EMPTY, EMPTY]), EMPTY),
    ]:
        assert_canonical(out, edges(want))
        assert out == want
    assert list(EMPTY.components()) == []


def test_public_constructor_still_validates():
    with pytest.raises(InvalidIntervalError):
        PathGraph([(3, 1)])
    assert PathGraph([(5, 7), (0, 1), (1, 2), (6, 9), (4, 4)]).intervals == ((0, 2), (5, 9))
    # endpoints must be integers, also where s == t would drop the interval
    for bad in ([(1, 2.5)], [(2.2, 2.7)], [(2.0, 2.0)], [("0", "3")]):
        with pytest.raises(InvalidIntervalError):
            PathGraph(bad)
    with pytest.raises(InvalidIntervalError):
        PathGraph.from_json({"intervals": [[2.2, 2.7]]})
    # the trusted operations take integer offsets only, so no float reaches _of
    for op in (lambda g: g.translate(0.5), lambda g: g.mirror(2.5), lambda g: g.nbd(1.5)):
        with pytest.raises(TypeError):
            op(PathGraph(((0, 2),)))


# -- vector measures -------------------------------------------------------------


def reference_measures(seq, base=EMPTY) -> tuple[int, int, int]:
    """The definition: measure G_j {ominus} (base | G_1 | ... | G_(j-1))."""
    total = [0, 0, 0]
    acc = base
    for g in seq:
        r = g.ominus(acc)
        total[0] += r.delta
        total[1] += r.lam
        total[2] += r.lam * r.delta
        acc = acc.union(g)
    return tuple(total)


@pytest.mark.parametrize("with_base", [False, True])
def test_vector_measures_match_their_definition(with_base):
    rng = random.Random(904 + with_base)
    for _ in range(TRIALS):
        c = rng.choice(CENTERS)
        seq = [random_graph(rng, c) for _ in range(rng.randint(0, 8))]
        for _ in range(rng.randint(0, 2)):
            seq.insert(rng.randrange(len(seq) + 1), EMPTY)
        base = random_graph(rng, c) if with_base else EMPTY
        want = reference_measures(seq, base)
        args = (seq, base) if with_base else (seq,)
        assert vec_measures(*args) == want
        assert (vec_delta(*args), vec_lambda(*args), vec_lambda_delta(*args)) == want
        acc = base
        pairs = []
        for g in seq:
            pairs.append((g.ominus(acc), acc))
            acc = acc.union(g)
        assert list(residual_terms(*args)) == pairs
        comps = sorted((c for r, _ in pairs for c in r.components()), key=lambda g: g.intervals)
        assert surviving_components(*args) == comps


def test_fused_scan_step_is_the_survivors_and_the_union():
    # on canonical pairs around one center (near 0 and +-10^9, some empty,
    # some touching at one vertex), on nested intervals and on pairs where one
    # side is empty; the survivors keep their identity when nothing touches
    rng = random.Random(23)
    seen = set()
    for _ in range(TRIALS):
        a, b = (g.intervals for g in pair(rng))
        if rng.random() < 0.2:
            c = rng.choice(CENTERS)
            a = ((c - 20, c + 20),)
            b = tuple((c + s, c + s + rng.randint(1, 3)) for s in range(-16, 16, 5))
        for acc, ivs in ((a, b), (b, a)):
            keep, union = paths._absorb(acc, ivs)
            assert (keep, union) == (paths._survivors(acc, ivs), paths._coalesce(sorted(acc + ivs)))
            if keep == ivs:
                assert keep is ivs
            seen.update(
                kind
                for kind, hit in (
                    ("empty", not acc or not ivs),
                    ("point", {s for s, _ in acc} & {t for _, t in ivs}),
                    ("dropped", len(keep) < len(ivs)),
                    ("kept", keep and len(keep) == len(ivs) and acc),
                )
                if hit
            )
    assert seen == {"empty", "point", "dropped", "kept"}
