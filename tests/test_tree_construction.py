"""Join trees built at their leaves: the random strict sampler, the strict
enumeration and the JSON reader build no inner graph and validate each leaf
label once, and each equals a reference that validates every graph it
builds.  The references are the earlier, fully validating implementations,
kept here as cross-checks."""

from __future__ import annotations

import itertools
import json
import pathlib
import random
from itertools import product

import pytest

from pathlab import jointrees as jt
from pathlab import samples
from pathlab.errors import ArityError
from pathlab.paths import EMPTY, PathGraph, from_edges, full_path

ROOT = pathlib.Path(__file__).resolve().parent.parent

# -- references ------------------------------------------------------------------


def reference_random_strict_tree(rng: random.Random, g: PathGraph) -> jt.JoinTree:
    """A validated graph for every node's split, and every leaf by ``leaf``."""
    if g.norm <= 1:
        return jt.leaf(g)
    edges = list(g.edges())
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
        if left and right and len(left) < len(edges) and len(right) < len(edges):
            break
    return jt.node(
        reference_random_strict_tree(rng, from_edges(left)),
        reference_random_strict_tree(rng, from_edges(right)),
    )


def reference_edge_subgraph_pairs(g: PathGraph):
    edges = list(g.edges())
    for assign in product((0, 1, 2), repeat=len(edges)):
        left = [e for e, a in zip(edges, assign) if a != 1]
        right = [e for e, a in zip(edges, assign) if a != 0]
        if not left or not right or len(left) == len(edges) or len(right) == len(edges):
            continue
        yield (
            PathGraph((e - 1, e) for e in left),
            PathGraph((e - 1, e) for e in right),
        )


def reference_all_strict(h: PathGraph, memo: dict) -> tuple[jt.JoinTree, ...]:
    """Memoised per validated subgraph of h."""
    got = memo.get(h)
    if got is not None:
        return got
    if h.norm <= 1:
        out: tuple[jt.JoinTree, ...] = (jt.leaf(h),)
    else:
        acc = []
        for g1, g2 in reference_edge_subgraph_pairs(h):
            for t1 in reference_all_strict(g1, memo):
                for t2 in reference_all_strict(g2, memo):
                    acc.append(jt.node(t1, t2))
        out = tuple(acc)
    memo[h] = out
    return out


def reference_from_json(data) -> jt.JoinTree:
    """Every leaf label parsed and validated where it stands."""
    if isinstance(data, str):
        data = json.loads(data)
    join = object()
    built: list[jt.JoinTree] = []
    stack = [data]
    while stack:
        item = stack.pop()
        if item is join:
            right = built.pop()
            built.append(jt.node(built.pop(), right))
        elif not isinstance(item, dict):
            raise ArityError(f"a join tree is a JSON object, not {type(item).__name__}")
        elif "leaf" in item:
            built.append(jt.leaf(PathGraph.from_json(item["leaf"])))
        else:
            kids = item["node"]
            if not isinstance(kids, (list, tuple)) or len(kids) != 2:
                raise ArityError("a join-tree node needs a list of two children")
            stack += (join, kids[1], kids[0])
    return built[0]


# -- the trusted leaf -------------------------------------------------------------


def test_edge_leaf_is_the_validated_leaf():
    for e in (-3, 0, 1, 7, 10**9):
        x = jt._edge_leaf(e)
        assert x is jt.leaf(from_edges([e]))
        assert x.graph.intervals == ((e - 1, e),)
        assert type(x.graph.intervals[0][0]) is int


def test_public_leaf_still_refuses_two_edges():
    with pytest.raises(ArityError, match=r"^leaf label must have at most one edge, got PathGraph\(\[0,2\]\)$"):
        jt.leaf(full_path(2))


# -- random strict trees ----------------------------------------------------------


def test_random_strict_tree_equals_the_validating_reference():
    """3,000 seeded draws over Path_1..9 (and the empty graph): the same tree
    objects, and each generator left in the same state."""
    graphs = [EMPTY] + [full_path(k) for k in range(1, 10)]
    ours, ref = random.Random(2024), random.Random(2024)
    for i in range(3000):
        g = graphs[i % len(graphs)]
        got = samples.random_strict_tree(ours, g)
        want = reference_random_strict_tree(ref, g)
        assert got is want
        assert jt.is_strict(got, jt._graph)
    assert ours.getstate() == ref.getstate()


def test_random_strict_tree_on_gapped_graphs():
    for seed, g in enumerate((from_edges([1, 3, 5, 6]), from_edges([-2, -1, 4, 9, 10]), from_edges([7]))):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert samples.random_strict_tree(ours, g) is reference_random_strict_tree(ref, g)
        assert ours.getstate() == ref.getstate()


# -- strict enumeration -------------------------------------------------------------


def _graphs_up_to_four_edges():
    """Every edge set of at most 4 edges inside 1..5, and a few spread ones."""
    for n in range(5):
        for edges in itertools.combinations(range(1, 6), n):
            yield from_edges(edges)
    yield from_edges([0, 3, 10])
    yield from_edges([-5, -4, 7, 20])


def test_enumerate_strict_order_equals_the_validating_reference():
    for g in _graphs_up_to_four_edges():
        want = reference_all_strict(g, {})
        got = tuple(jt.enumerate_strict(g))
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want)), g


def test_enumerate_strict_depth_filters_keep_the_reference_order():
    g = from_edges([1, 2, 4])
    ref = reference_all_strict(g, {})
    for kind, measure in (("left", jt.left_depth), ("sem", jt.sem_depth)):
        for d in (0, 1, 2):
            want = [t for t in ref if measure(t) <= d]
            got = list(jt.enumerate_strict(g, kind, d))
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


def test_edge_subgraph_pairs_are_the_reference_pairs_as_edge_tuples():
    for g in (from_edges([1, 2, 3]), from_edges([2, 5, 6, 9])):
        want = [(tuple(a.edges()), tuple(b.edges())) for a, b in reference_edge_subgraph_pairs(g)]
        assert list(jt._edge_subgraph_pairs(tuple(g.edges()))) == want


# -- JSON ---------------------------------------------------------------------------


def test_from_json_equals_the_reference_on_valid_trees():
    rng = random.Random(5)
    texts = [(ROOT / "data" / name).read_text() for name in ("overlap_tree5.json", "block_tree16.json")]
    texts += [json.dumps(samples.random_strict_tree(rng, full_path(2 + i % 7)).to_json()) for i in range(40)]
    texts += [json.dumps(samples.random_jointree(rng, 6, 8).to_json()) for _ in range(20)]
    texts.append(json.dumps(jt.node(jt.leaf(), jt.leaf(from_edges([3]))).to_json()))
    # bool endpoints are ints to PathGraph, but never keyed with int ones
    texts.append('{"node": [{"leaf": {"intervals": [[0, 1]]}}, {"leaf": {"intervals": [[false, true]]}}]}')
    for text in texts:
        assert jt.JoinTree.from_json(text) is reference_from_json(text)
        assert jt.JoinTree.from_json(json.loads(text)) is reference_from_json(json.loads(text))


def _with_bad_leaf(label) -> dict:
    """A tree whose good leaf [[0, 1]] is read before, and again after, the
    bad label, so a label already parsed is in the per-call table."""
    good = {"leaf": {"intervals": [[0, 1]]}}
    return {"node": [good, {"node": [{"leaf": label}, good]}]}


@pytest.mark.parametrize(
    "label",
    [
        [[0, 1]],  # a leaf label that is not an object
        "[[0, 1]]",
        {"edges": [[0, 1]]},  # no intervals
        {"intervals": [[1, 1]]},  # s >= t
        {"intervals": [[2, 1]]},
        {"intervals": [[0.0, 1.0]]},  # non-integer endpoints, one equal to the good label
        {"intervals": [[0, 1.5]]},
        {"intervals": [["0", 1]]},
        {"intervals": [[0, 2]]},  # two edges
        {"intervals": [[0, 1], [1, 2]]},
        {"intervals": [[0, 1], [3, 4]]},
        {"intervals": [[0, 1, 2]]},
    ],
)
def test_from_json_errors_equal_the_reference(label):
    data = _with_bad_leaf(label)
    with pytest.raises(Exception) as want:
        reference_from_json(data)
    with pytest.raises(want.type) as got:
        jt.JoinTree.from_json(data)
    assert str(got.value) == str(want.value)


def test_from_json_validates_each_distinct_label_once(monkeypatch):
    calls = []
    real = PathGraph.from_json.__func__

    def counting(cls, data):
        calls.append(json.dumps(data))
        return real(cls, data)

    monkeypatch.setattr(PathGraph, "from_json", classmethod(counting))
    tree = jt.JoinTree.from_json((ROOT / "data" / "overlap_tree5.json").read_text())
    assert tree is jt.maximally_overlapping(5)
    assert sorted(calls) == sorted({json.dumps({"intervals": [[s, s + 1]]}) for s in range(5)})
