"""Join trees over path graphs.

A join tree is a binary tree whose leaves are labeled by single edges (or the
empty graph) and whose internal nodes carry the union of their children's
graphs.  This module provides the three depth measures (standard, left, and
doubling-combinator depth), branch coverings, the Psi-size oracle (a bitmask
DP over orderings of each branch covering), the tight upper-bound
constructions, strictification, exhaustive enumeration of strict trees, and
checkers for the size/depth tradeoff inequalities and the Psi recurrences.
"""

from __future__ import annotations

import json
import math
from itertools import permutations, product
from typing import Iterable, Iterator, Literal

from . import _kernels, shifts
from .errors import ArityError, InvalidParameterError, ResourceLimitError
from .paths import EMPTY, PathGraph, union_all, vec_delta

DEFAULT_DP_LIMIT = 22
DEFAULT_SEM_MEMO_LIMIT = 1 << 16
DEFAULT_SEM_ARITY_LIMIT = 20


class JoinTree:
    """Immutable binary join tree; ``graph`` is the union of leaf labels.
    Once ``psi`` has run, ``_psi`` caches Psi and ``_psi_size`` the largest
    covering size (two slots of small ints, where a tuple would allocate)."""

    __slots__ = ("left", "right", "graph", "_hash", "_psi", "_psi_size")

    def __init__(self, left: "JoinTree | None", right: "JoinTree | None", graph: PathGraph):
        self.left = left
        self.right = right
        self.graph = graph
        self._psi: int | None = None
        self._psi_size = 0
        if left is None:
            self._hash = hash((0, graph))
        else:
            self._hash = hash((1, left._hash, right._hash))

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, JoinTree) or self._hash != other._hash:
            return False
        if self.is_leaf or other.is_leaf:
            return self.is_leaf and other.is_leaf and self.graph == other.graph
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"JoinTree({self.pretty()})"

    def pretty(self) -> str:
        if self.is_leaf:
            if not self.graph:
                return "()"
            s, t = self.graph.intervals[0]
            return f"[{s},{t}]"
        return f"({self.left.pretty()} U {self.right.pretty()})"

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.leaf_count() + self.right.leaf_count()

    def node_count(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + self.left.node_count() + self.right.node_count()

    def to_json(self) -> dict:
        if self.is_leaf:
            return {"leaf": self.graph.to_json()}
        return {"node": [self.left.to_json(), self.right.to_json()]}

    @classmethod
    def from_json(cls, data) -> "JoinTree":
        if isinstance(data, str):
            data = json.loads(data)
        if "leaf" in data:
            return leaf(PathGraph.from_json(data["leaf"]))
        l, r = data["node"]
        return node(cls.from_json(l), cls.from_json(r))


def leaf(graph: PathGraph = EMPTY) -> JoinTree:
    if graph.norm > 1:
        raise ArityError(f"leaf label must have at most one edge, got {graph!r}")
    return JoinTree(None, None, graph)


def node(left: JoinTree, right: JoinTree) -> JoinTree:
    return JoinTree(left, right, left.graph.union(right.graph))


def sq(trees: Iterable[JoinTree]) -> JoinTree:
    """Right-comb combinator: sq(T_1..T_m) = T_1 U sq(T_2..T_m)."""
    ts = list(trees)
    if not ts:
        raise ArityError("sq needs at least one argument")
    out = ts[-1]
    for t in reversed(ts[:-1]):
        out = node(t, out)
    return out


def sem(trees: Iterable[JoinTree], arity_limit: int = DEFAULT_SEM_ARITY_LIMIT) -> JoinTree:
    """Doubling combinator: sem(T_1..T_m) = sem(T_1..T_{m-1}) U sem(T_1..T_{m-2}, T_m)."""
    ts = tuple(trees)
    if not ts:
        raise ArityError("sem needs at least one argument")
    if len(ts) > arity_limit:
        raise ResourceLimitError(f"sem arity {len(ts)} exceeds limit {arity_limit}")
    memo: dict[tuple[int, ...], JoinTree] = {}

    def rec(args: tuple[JoinTree, ...]) -> JoinTree:
        if len(args) == 1:
            return args[0]
        key = tuple(id(a) for a in args)
        got = memo.get(key)
        if got is None:
            got = node(rec(args[:-1]), rec(args[:-2] + (args[-1],)))
            memo[key] = got
        return got

    return rec(ts)


def build(kind: str, args) -> JoinTree:
    if kind == "leaf":
        return leaf(args)
    if kind == "union":
        l, r = args
        return node(l, r)
    if kind == "sq":
        return sq(args)
    if kind == "sem":
        return sem(args)
    raise InvalidParameterError(f"unknown build kind {kind!r}")


# ---------------------------------------------------------------------------
# depth measures
# ---------------------------------------------------------------------------


def standard_depth(t: JoinTree) -> int:
    memo: dict[int, int] = {}

    def rec(x: JoinTree) -> int:
        got = memo.get(id(x))
        if got is None:
            got = 0 if x.is_leaf else 1 + max(rec(x.left), rec(x.right))
            memo[id(x)] = got
        return got

    return rec(t)


def left_depth(t: JoinTree) -> int:
    """Maximum number of left descents on a root-to-leaf branch (the
    right-comb-combinator depth)."""
    memo: dict[int, int] = {}

    def rec(x: JoinTree) -> int:
        got = memo.get(id(x))
        if got is None:
            got = 0 if x.is_leaf else max(rec(x.left) + 1, rec(x.right))
            memo[id(x)] = got
        return got

    return rec(t)


def _sem_seqs(
    t: JoinTree,
    memo: dict[JoinTree, tuple[tuple[JoinTree, ...], ...]],
    counter: list[int],
    limit: int,
) -> tuple[tuple[JoinTree, ...], ...]:
    """All sequences (T_1..T_p) whose doubling-combinator expansion equals t
    (always including the singleton (t,))."""
    got = memo.get(t)
    if got is not None:
        return got
    if t.is_leaf:
        out: tuple = ((t,),)
    else:
        seqs_l = _sem_seqs(t.left, memo, counter, limit)
        seqs_r = _sem_seqs(t.right, memo, counter, limit)
        acc = [(t,)]
        for a in seqs_l:
            for b in seqs_r:
                if len(a) == len(b) and a[:-1] == b[:-1]:
                    acc.append(a + (b[-1],))
        out = tuple(acc)
    counter[0] += len(out)
    if counter[0] > limit:
        raise ResourceLimitError(f"sem-depth recognition exceeded {limit} memo entries")
    memo[t] = out
    return out


def sem_decompositions(
    t: JoinTree, memo_limit: int = DEFAULT_SEM_MEMO_LIMIT
) -> list[tuple[JoinTree, ...]]:
    """All ways (arity >= 2) of writing t as a doubling-combinator application."""
    memo: dict = {}
    return [s for s in _sem_seqs(t, memo, [0], memo_limit) if len(s) >= 2]


def sem_depth(t: JoinTree, memo_limit: int = DEFAULT_SEM_MEMO_LIMIT) -> int:
    """Minimum nesting depth of doubling-combinator applications expressing t."""
    seq_memo: dict = {}
    depth_memo: dict[JoinTree, int] = {}
    counter = [0]

    def rec(x: JoinTree) -> int:
        got = depth_memo.get(x)
        if got is not None:
            return got
        if x.is_leaf:
            depth_memo[x] = 0
            return 0
        best = None
        for s in _sem_seqs(x, seq_memo, counter, memo_limit):
            if len(s) < 2:
                continue
            d = max(rec(part) for part in s)
            if best is None or d < best:
                best = d
        depth_memo[x] = 1 + best
        return 1 + best

    return rec(t)


def depths(t: JoinTree, memo_limit: int = DEFAULT_SEM_MEMO_LIMIT) -> tuple[int, int, int]:
    """(standard depth, left depth, doubling-combinator depth)."""
    return standard_depth(t), left_depth(t), sem_depth(t, memo_limit)


# ---------------------------------------------------------------------------
# branch coverings and the Psi oracle
# ---------------------------------------------------------------------------


def branch_coverings(t: JoinTree) -> list[frozenset[PathGraph]]:
    """One covering per root-to-leaf branch: the opposite-child graphs along
    the branch plus the leaf label, as a set."""
    out: list[frozenset[PathGraph]] = []
    stack: list[tuple[JoinTree, tuple[PathGraph, ...]]] = [(t, ())]
    while stack:
        cur, sibs = stack.pop()
        if cur.is_leaf:
            out.append(frozenset(sibs + (cur.graph,)))
        else:
            stack.append((cur.left, sibs + (cur.right.graph,)))
            stack.append((cur.right, sibs + (cur.left.graph,)))
    return out


def max_vec_delta_over_orderings(
    cov: Iterable[PathGraph], limit: int = DEFAULT_DP_LIMIT
) -> int:
    """Maximum vector-component value over all enumerations of the set,
    computed by dynamic programming over subsets."""
    members = sorted({g for g in cov if g})
    m = len(members)
    if m > limit:
        raise ResourceLimitError(f"covering size {m} exceeds subset-DP limit {limit}")
    # vertex bitmasks over the ranks of the interval endpoints: ranking keeps
    # every "s <= t'" comparison, so two intervals share a vertex exactly when
    # their masks meet, and a mask is at most two bits per interval wide
    ends = sorted({x for g in members for iv in g.intervals for x in iv})
    rank = {x: i for i, x in enumerate(ends)}
    comp_bits = [
        [((2 << (rank[t] - rank[s])) - 1) << rank[s] for s, t in g.intervals] for g in members
    ]
    vertex_bits = [sum(bits) for bits in comp_bits]
    conflicts: list[list[int]] = []
    for j, bits in enumerate(comp_bits):
        masks = []
        for comp in bits:
            mask = 0
            for i, other in enumerate(vertex_bits):
                if i != j and comp & other:
                    mask |= 1 << i
            masks.append(mask)
        conflicts.append(masks)
    return _kernels.max_ordering_value(conflicts)


def psi(t: JoinTree, dp_limit: int = DEFAULT_DP_LIMIT) -> int:
    """Psi-size: max over branch coverings of the best ordering value.

    The value is cached on ``t`` with its largest covering size, so a later
    call with a ``dp_limit`` below that size still raises.  A tree refused
    by the limit runs no DP and caches only its covering size."""
    if t._psi is None:
        covs = set(branch_coverings(t))
        t._psi_size = max((sum(1 for g in cov if g) for cov in covs), default=0)
        if t._psi_size <= dp_limit:
            t._psi = max(
                (max_vec_delta_over_orderings(cov, limit=dp_limit) for cov in covs), default=0
            )
    if t._psi_size > dp_limit:
        raise ResourceLimitError(f"covering size {t._psi_size} exceeds subset-DP limit {dp_limit}")
    return t._psi


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _integer_root(k: int, d: int) -> int | None:
    if k < 1 or d < 1:
        return None
    r = round(k ** (1.0 / d))
    for cand in (r - 1, r, r + 1):
        if cand >= 1 and cand**d == k:
            return cand
    return None


def build_tight(kind: Literal["I", "II"], k: int, d: int) -> JoinTree:
    """The recursive block constructions achieving the tradeoff upper bounds:
    kind I nests the right-comb combinator over consecutive blocks, kind II
    nests the doubling combinator over a stride-ordered block grid."""
    if d < 1 or k < 1:
        raise InvalidParameterError(f"need k, d >= 1, got k={k}, d={d}")
    if kind == "I":
        ell = _integer_root(k, d)
        if ell is None:
            raise InvalidParameterError(f"k^(1/d) = {k}^(1/{d}) is not an integer")

        def rec1(lo: int, hi: int, depth: int) -> JoinTree:
            if hi - lo == 1:
                return leaf(PathGraph(((lo, hi),)))
            step = (hi - lo) // ell
            return sq([rec1(lo + i * step, lo + (i + 1) * step, depth - 1) for i in range(ell)])

        return rec1(0, k, d)
    if kind == "II":
        ell = _integer_root(k, 2 * d)
        if ell is None:
            raise InvalidParameterError(f"k^(1/2d) = {k}^(1/{2 * d}) is not an integer")

        def rec2(lo: int, hi: int, depth: int) -> JoinTree:
            if hi - lo == 1:
                return leaf(PathGraph(((lo, hi),)))
            step = (hi - lo) // (ell * ell)
            # consecutive blocks indexed (i, j) row-major; combinator order
            # strides column-major so consecutive arguments are vertex-disjoint
            parts = {}
            for i in range(ell):
                for j in range(ell):
                    a = lo + (i * ell + j) * step
                    parts[(i, j)] = rec2(a, a + step, depth - 1)
            order = [parts[(i, j)] for j in range(ell) for i in range(ell)]
            return sem(order)

        return rec2(0, k, d)
    raise InvalidParameterError(f"unknown tight construction kind {kind!r}")


def maximally_overlapping(k: int) -> JoinTree:
    """The full-overlap tree for Path_k: each node on interval [s, t] splits
    into subtrees for [s, t-1] and [s+1, t].  Psi equals 1."""
    memo: dict[tuple[int, int], JoinTree] = {}

    def rec(s: int, t: int) -> JoinTree:
        if t - s == 1:
            return leaf(PathGraph(((s, t),)))
        got = memo.get((s, t))
        if got is None:
            got = node(rec(s, t - 1), rec(s + 1, t))
            memo[(s, t)] = got
        return got

    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    return rec(0, k)


def strictify(t: JoinTree) -> JoinTree:
    """Collapse nodes with a child whose graph already equals the node's."""
    if t.is_leaf:
        return t
    if t.left.graph == t.graph:
        return strictify(t.left)
    if t.right.graph == t.graph:
        return strictify(t.right)
    return node(strictify(t.left), strictify(t.right))


def is_strict(t: JoinTree) -> bool:
    if t.is_leaf:
        return True
    if t.left.graph == t.graph or t.right.graph == t.graph:
        return False
    return is_strict(t.left) and is_strict(t.right)


def _edge_subgraph_pairs(g: PathGraph) -> Iterator[tuple[PathGraph, PathGraph]]:
    """Ordered pairs (G1, G2) of nonempty proper subgraphs with union g."""
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


def enumerate_strict(
    g: PathGraph,
    depth_kind: Literal["left", "sem"] = "left",
    d: int | None = None,
    norm_limit: int = 5,
    count_limit: int = 500_000,
) -> Iterator[JoinTree]:
    """All strict g-join trees with the chosen depth measure at most d
    (d=None means no depth filter), each exactly once up to structural equality."""
    if g.norm > norm_limit:
        raise ResourceLimitError(f"graph has {g.norm} edges, enumeration limit {norm_limit}")
    memo: dict[PathGraph, tuple[JoinTree, ...]] = {}
    budget = [0]

    def all_strict(h: PathGraph) -> tuple[JoinTree, ...]:
        got = memo.get(h)
        if got is not None:
            return got
        if h.norm <= 1:
            out: tuple[JoinTree, ...] = (leaf(h),)
        else:
            acc = []
            for g1, g2 in _edge_subgraph_pairs(h):
                for t1 in all_strict(g1):
                    for t2 in all_strict(g2):
                        acc.append(node(t1, t2))
                        budget[0] += 1
                        if budget[0] > count_limit:
                            raise ResourceLimitError(
                                f"strict-tree enumeration exceeded {count_limit} trees"
                            )
            out = tuple(acc)
        memo[h] = out
        return out

    measure = left_depth if depth_kind == "left" else sem_depth
    for t in all_strict(g):
        if d is None or measure(t) <= d:
            yield t


# ---------------------------------------------------------------------------
# tradeoff and recurrence checkers
# ---------------------------------------------------------------------------

TRADEOFF_SLACK = 1e-9


def verify_tradeoff(
    t: JoinTree, kind: Literal["I", "II"], dp_limit: int = DEFAULT_DP_LIMIT
) -> tuple[bool, int, float]:
    """Check the restated size/depth tradeoff: Psi against the explicit
    constant bound with d the left depth (kind I) or the doubling-combinator
    depth (kind II).  Returns (holds, Psi, rhs)."""
    p = t.graph
    lhs = psi(t, dp_limit=dp_limit)
    if kind == "I":
        d = left_depth(t)
        rhs = d * p.lam ** (1.0 / d) / (30.0 * math.e) + p.delta - d if d else float(p.delta)
    elif kind == "II":
        d = sem_depth(t)
        rhs = (
            d * p.lam ** (1.0 / (2.0 * d)) / math.sqrt(32.0 * math.e) + p.delta - d
            if d
            else float(p.delta)
        )
    else:
        raise InvalidParameterError(f"unknown tradeoff kind {kind!r}")
    return lhs >= rhs - TRADEOFF_SLACK, lhs, rhs


def tree_restrict(t: JoinTree, keep: PathGraph) -> JoinTree:
    """Relabel to empty every leaf whose edge is not in ``keep``."""
    if t.is_leaf:
        return t if t.graph.is_subgraph(keep) else leaf(EMPTY)
    return node(tree_restrict(t.left, keep), tree_restrict(t.right, keep))


def tree_ominus(t: JoinTree, f: PathGraph) -> JoinTree:
    """Restrict t to the components of its graph that are vertex-disjoint from f."""
    return tree_restrict(t, t.graph.ominus(f))


def right_spine(t: JoinTree) -> list[JoinTree]:
    """Maximal unfolding T = sq(T_1..T_m) along the right spine."""
    parts = []
    cur = t
    while not cur.is_leaf:
        parts.append(cur.left)
        cur = cur.right
    parts.append(cur)
    return parts


def check_psi_recurrences(
    t: JoinTree,
    perm_limit: int = 5,
    shift_m_limit: int = 10,
    dp_limit: int = DEFAULT_DP_LIMIT,
) -> dict:
    """Verify the Psi lower-bound recurrences against the Psi oracle.

    For the right-spine decomposition sq(T_1..T_m): for every j and every
    permutation tau of [j],

        Psi(T) >= Psi(T_j - F) - delta(G_j - F) + vec_delta(G_tau(1..j))

    with F the union of the graphs placed before j by tau.  For every
    doubling-combinator decomposition sem(T_1..T_m): parts (i)-(iii) of the
    shift-permutation bound and its bring-to-front corollary.
    """
    report: dict = {"checked": 0, "violations": []}
    psi_t = psi(t, dp_limit=dp_limit)
    psi_memo: dict[JoinTree, int] = {}

    def psi_of(x: JoinTree) -> int:
        got = psi_memo.get(x)
        if got is None:
            got = psi(x, dp_limit=dp_limit)
            psi_memo[x] = got
        return got

    if not t.is_leaf:
        parts = right_spine(t)
        graphs = [p.graph for p in parts]
        m = len(parts)
        for j in range(1, m + 1):
            if j > perm_limit:
                break
            for tau in permutations(range(1, j + 1)):
                j_star = tau.index(j) + 1
                f = union_all(graphs[tau[i] - 1] for i in range(j_star - 1))
                restricted = tree_ominus(parts[j - 1], f)
                rhs = (
                    psi_of(restricted)
                    - parts[j - 1].graph.ominus(f).delta
                    + vec_delta([graphs[tau[i] - 1] for i in range(j)])
                )
                report["checked"] += 1
                if psi_t < rhs:
                    report["violations"].append(
                        {"kind": "sq", "j": j, "tau": list(tau), "lhs": psi_t, "rhs": rhs}
                    )

        for decomp in sem_decompositions(t):
            m = len(decomp)
            if m > shift_m_limit:
                continue
            graphs = [p.graph for p in decomp]
            whole = union_all(graphs)
            for j in range(1, m + 1):
                rhs = psi_of(decomp[j - 1]) + vec_delta(graphs, graphs[j - 1])
                report["checked"] += 1
                if psi_t < rhs:
                    report["violations"].append(
                        {"kind": "sem-corollary", "j": j, "lhs": psi_t, "rhs": rhs}
                    )
            for sigma in shifts.enumerate_all(m):
                ordered = sigma.apply(graphs)
                for h in range(1, m + 1):
                    pre = union_all(ordered[:h])
                    rhs = psi_of(decomp[sigma(h) - 1]) + vec_delta(ordered[h:], pre)
                    report["checked"] += 1
                    if psi_t < rhs:
                        report["violations"].append(
                            {
                                "kind": "sem-ii",
                                "I": sorted(sigma.index_set),
                                "h": h,
                                "lhs": psi_t,
                                "rhs": rhs,
                            }
                        )
                    j = sigma(h)
                    f_j = union_all(ordered[: h - 1])
                    sigma_j = shifts.induced(sigma, j)
                    restricted = tree_ominus(decomp[j - 1], f_j)
                    rhs = (
                        psi_of(restricted)
                        - graphs[j - 1].ominus(f_j).delta
                        + vec_delta(sigma_j.apply(graphs))
                    )
                    report["checked"] += 1
                    if psi_t < rhs:
                        report["violations"].append(
                            {
                                "kind": "sem-iii",
                                "I": sorted(sigma.index_set),
                                "h": h,
                                "lhs": psi_t,
                                "rhs": rhs,
                            }
                        )
    report["ok"] = not report["violations"]
    return report
