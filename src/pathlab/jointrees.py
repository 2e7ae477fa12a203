"""Join trees over path graphs, and the binary-tree core they share with
binary formulas.

``BinaryTree`` is that core: an immutable node, interned; equality is
identity.  One table makes every node of both node kinds, ``JoinTree``
(here) and ``formulas.DeMorgan``, so equal trees are one object and a node
keys a memo by identity.  The algorithms that only read the tree shape are
written once, over ``BinaryTree``: the doubling combinator ``sem``, its
recogniser and depth ``sem_depth``, ``left_depth``, ``strictify`` and
``is_strict`` (given the per-node value whose equality marks a redundant
child), and leaf relabelling ``relabel_leaves``.  Every walk of a whole tree
or formula is one loop over ``_postorder``, the distinct nodes children
first on an explicit stack, so a shared subtree is visited once and depth is
no ceiling; only ``formulas._Walker``, the sampled conversions, the support
tree and ``relations._restricted`` walk on their own.

A join tree is a binary tree whose leaves are labeled by single edges (or the
empty graph) and whose internal nodes carry the union of their children's
graphs.  This module also provides the standard depth, branch coverings, the
Psi-size oracle (a bitmask DP over orderings of each branch covering), the
tight upper-bound constructions, exhaustive enumeration of strict trees, and
checkers for the size/depth tradeoff inequalities and the Psi recurrences.
"""

from __future__ import annotations

import json
import math
import weakref
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, Iterable, Iterator, Literal

from . import _kernels, shifts
from .errors import ArityError, InvalidParameterError, ResourceLimitError
from .paths import EMPTY, PathGraph, union_all, vec_delta

# resource ceilings (each raises ResourceLimitError); only the subset-DP
# ceiling can be set per call, as ``psi``'s and
# ``max_vec_delta_over_orderings``'s limit
DEFAULT_DP_LIMIT = 22  # members of a branch covering in the subset DP
SEM_ARITY_LIMIT = 20  # arguments of sem
SEM_MEMO_LIMIT = 1 << 16  # sequences the doubling-combinator recogniser keeps
STRICT_NORM_LIMIT = 5  # edges of the graph enumerate_strict works on
STRICT_COUNT_LIMIT = 500_000  # trees enumerate_strict builds


class BinaryTree:
    """Immutable binary tree node.  A leaf has ``left`` and ``right`` None and
    ``gate`` None; an inner node names its operation in ``gate``.  Subclasses
    look their nodes up in ``_NODES`` and make new ones with ``_new_node``,
    and say how to make an inner node with the same gate over other children
    (``rebuild``).

    Nodes are interned; equality is identity.  Building a node equal to a
    live one returns that one, so a node keys a memo by identity and equal
    trees share every cache held on their nodes."""

    __slots__ = ("left", "right", "gate", "__weakref__")

    def rebuild(self, left: "BinaryTree", right: "BinaryTree") -> "BinaryTree":
        raise NotImplementedError

    @property
    def is_leaf(self) -> bool:
        return self.left is None


# the live nodes of every ``BinaryTree`` subclass: an inner node under
# (class, gate, left, right), its children compared by identity, and a leaf
# under its class and label; an entry goes when its node does
_NODES: weakref.WeakValueDictionary[tuple, BinaryTree] = weakref.WeakValueDictionary()


def _new_node(cls: type, key: tuple, left, right, gate) -> BinaryTree:
    """A new ``cls`` node with these children and gate, entered in ``_NODES``
    under ``key``; the caller sets its subclass fields."""
    x = object.__new__(cls)
    x.left, x.right, x.gate = left, right, gate
    _NODES[key] = x
    return x


class JoinTree(BinaryTree):
    """Immutable binary join tree; ``graph`` is the union of leaf labels.
    Once ``psi`` has run, ``_psi`` caches Psi and ``_psi_size`` the largest
    covering size (two slots of small ints, where a tuple would allocate)."""

    __slots__ = ("graph", "_psi", "_psi_size")

    def __new__(cls, left: "JoinTree | None", right: "JoinTree | None", graph: PathGraph = EMPTY):
        """The leaf labeled ``graph`` when ``left`` is None, else the union
        node over ``left`` and ``right``."""
        key = (cls, graph) if left is None else (cls, "union", left, right)
        x = _NODES.get(key)
        if x is None:
            x = _new_node(cls, key, left, right, None if left is None else "union")
            x.graph = graph if left is None else left.graph.union(right.graph)
            x._psi, x._psi_size = None, 0
        return x

    def rebuild(self, left: "JoinTree", right: "JoinTree") -> "JoinTree":
        return node(left, right)

    def __repr__(self):
        return f"JoinTree({self.pretty()})"

    def pretty(self) -> str:
        return _text(self, _leaf_text, lambda x: "(", " U ")

    def leaf_count(self) -> int:
        count: dict[JoinTree, int] = {}
        for x in _postorder(self):
            count[x] = 1 if x.left is None else count[x.left] + count[x.right]
        return count[self]

    def to_json(self) -> dict:
        out: dict[JoinTree, dict] = {}
        for x in _postorder(self):
            out[x] = {"node": [out[x.left], out[x.right]]} if x.left else {"leaf": x.graph.to_json()}
        return out[self]

    @classmethod
    def from_json(cls, data) -> "JoinTree":
        if isinstance(data, str):
            data = json.loads(data)
        join = object()  # marks a node whose children are the top two built trees
        built: list[JoinTree] = []
        stack = [data]
        while stack:
            item = stack.pop()
            if item is join:
                right = built.pop()
                built.append(node(built.pop(), right))
            elif not isinstance(item, dict):
                raise ArityError(f"a join tree is a JSON object, not {type(item).__name__}")
            elif "leaf" in item:
                built.append(leaf(PathGraph.from_json(item["leaf"])))
            else:
                kids = item["node"]
                if not isinstance(kids, (list, tuple)) or len(kids) != 2:
                    raise ArityError("a join-tree node needs a list of two children")
                stack += (join, kids[1], kids[0])
        return built[0]


def _leaf_text(x: JoinTree) -> str:
    return "[{},{}]".format(*x.graph.intervals[0]) if x.graph else "()"


def leaf(graph: PathGraph = EMPTY) -> JoinTree:
    if graph.norm > 1:
        raise ArityError(f"leaf label must have at most one edge, got {graph!r}")
    return JoinTree(None, None, graph)


def node(left: JoinTree, right: JoinTree) -> JoinTree:
    return JoinTree(left, right)


def sq(trees: Iterable[JoinTree]) -> JoinTree:
    """Right-comb combinator: sq(T_1..T_m) = T_1 U sq(T_2..T_m)."""
    ts = list(trees)
    if not ts:
        raise ArityError("sq needs at least one argument")
    out = ts[-1]
    for t in reversed(ts[:-1]):
        out = node(t, out)
    return out


def sem(
    trees: Iterable[BinaryTree],
    join: Callable[[BinaryTree, BinaryTree], BinaryTree] = node,
) -> BinaryTree:
    """Doubling combinator: sem(T_1..T_m) = sem(T_1..T_{m-1}) U sem(T_1..T_{m-2}, T_m),
    with ``join`` making each inner node (the union of join trees by default).
    Each argument tuple the definition unfolds to is T_1..T_j, T_i for some
    i > j; row j holds the trees of those tuples, so the result has O(m^2)
    nodes."""
    row = list(trees)
    if not row:
        raise ArityError("sem needs at least one argument")
    if len(row) > SEM_ARITY_LIMIT:
        raise ResourceLimitError(f"sem arity {len(row)} exceeds limit {SEM_ARITY_LIMIT}")
    while len(row) > 1:
        row = [join(row[0], x) for x in row[1:]]
    return row[0]


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


def _postorder(root) -> Iterator:
    """The distinct nodes under ``root``, each after its children, on an
    explicit stack.  Nodes are told apart by identity: a ``BinaryTree`` is
    interned, so equality is identity, and a ``formulas.Formula`` (children
    in ``children``) is not interned."""
    seen: set = set()
    stack = [root]
    pop, push = stack.pop, stack.append
    binary = isinstance(root, BinaryTree)
    while stack:
        x = pop()
        if x is None:  # the node under the marker has all its children done
            x = pop()
        elif x in seen:
            continue
        elif binary:
            if x.left is not None:
                push(x)
                push(None)
                push(x.right)
                push(x.left)
                continue
        elif x.children:
            push(x)
            push(None)
            stack.extend(reversed(x.children))
            continue
        seen.add(x)
        yield x


def _children(x) -> tuple:
    if isinstance(x, BinaryTree):
        return () if x.left is None else (x.left, x.right)
    return x.children


def _text(t, leaf_text: Callable, head: Callable, sep: str) -> str:
    """Text of t: ``leaf_text(x)`` at a leaf, else ``head(x)``, the
    children's texts joined by ``sep``, and ')'.  Each distinct subtree's
    text is built once, as a list of pieces sharing its children's lists,
    and one pass joins the pieces, in time linear in the text."""
    pieces: dict = {}
    for x in _postorder(t):
        kids = _children(x)
        if kids:
            body = [p for c in kids for p in (sep, pieces[c])]  # sep, kid, sep, kid, ...
            pieces[x] = [head(x), *body[1:], ")"]
        else:
            pieces[x] = leaf_text(x)
    out: list[str] = []
    stack = [pieces[t]]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
        else:
            stack.extend(reversed(piece))
    return "".join(out)


def standard_depth(t: BinaryTree) -> int:
    depth: dict[BinaryTree, int] = {}
    for x in _postorder(t):
        depth[x] = 1 + max(depth[x.left], depth[x.right]) if x.left else 0
    return depth[t]


def left_depth(t: BinaryTree, gates: Iterable | None = None) -> int:
    """Maximum number of left descents on a root-to-leaf branch (the
    right-comb-combinator depth).  With ``gates``, only a descent from a node
    whose gate is one of them counts (the AND-left depth of a formula)."""
    depth: dict[BinaryTree, int] = {}
    for x in _postorder(t):
        if x.left is None:
            depth[x] = 0
        else:
            a = depth[x.left] + (1 if gates is None or x.gate in gates else 0)
            b = depth[x.right]
            depth[x] = a if a > b else b
    return depth[t]


def _sem_table(t: BinaryTree) -> tuple[tuple, int]:
    """The doubling-combinator recogniser: one pass over the distinct nodes
    under t, children first.  Returns t's (seqs, depth).

    For each node x, ``seqs`` are all sequences (T_1..T_p) whose
    doubling-combinator expansion with x's gate equals x, the singleton (x,)
    first; a child with another gate is a single part.  ``depth`` is the
    minimum nesting depth of single-gate applications expressing x.  The
    sequences of the inner nodes count against ``SEM_MEMO_LIMIT``."""
    table: dict[BinaryTree, tuple[tuple, int]] = {}
    entries = 0
    for x in _postorder(t):
        left, right = x.left, x.right
        if left is None:
            table[x] = (((x,),), 0)
            continue
        # a child with another gate is the single part (child,) of its
        # entry; nodes are interned, so equal parts are one object
        gate = x.gate
        got_l, got_r = table[left], table[right]
        seqs_l = got_l[0] if left.gate == gate else got_l[0][:1]
        seqs_r = got_r[0] if right.gate == gate else got_r[0][:1]
        acc = [(x,)]
        depth = None
        for a in seqs_l:
            head = a[:-1]
            for b in seqs_r:
                if len(a) == len(b) and head == b[:-1]:
                    seq = a + (b[-1],)
                    acc.append(seq)
                    worst = max([table[part][1] for part in seq])
                    if depth is None or worst < depth:
                        depth = worst
        entries += len(acc)
        if entries > SEM_MEMO_LIMIT:
            raise ResourceLimitError(f"sem-depth recognition exceeded {SEM_MEMO_LIMIT} memo entries")
        table[x] = (tuple(acc), depth + 1)
    return table[t]


def sem_decompositions(t: BinaryTree) -> list[tuple[BinaryTree, ...]]:
    """All ways (arity >= 2) of writing t as a doubling-combinator application."""
    return list(_sem_table(t)[0][1:])


def sem_depth(t: BinaryTree) -> int:
    """Minimum nesting depth of doubling-combinator applications expressing t
    (each application with a single gate)."""
    return _sem_table(t)[1]


def depths(t: JoinTree) -> tuple[int, int, int]:
    """(standard depth, left depth, doubling-combinator depth)."""
    return standard_depth(t), left_depth(t), sem_depth(t)


# ---------------------------------------------------------------------------
# strictness and leaf relabelling
# ---------------------------------------------------------------------------


def _graph(t: JoinTree) -> PathGraph:
    return t.graph


def _rewrite(
    t: BinaryTree,
    at_leaf: Callable[[BinaryTree], BinaryTree],
    collapse: Callable[[BinaryTree], BinaryTree | None] | None = None,
) -> BinaryTree:
    """Bottom-up rewrite: a leaf x becomes ``at_leaf(x)``; an inner node x
    becomes the rewrite of ``collapse(x)`` (one of its children) when that
    is not None, else x over its rewritten children.  Nodes are interned,
    so a node the rewrite leaves alone comes back as itself."""
    done: dict[BinaryTree, BinaryTree] = {}
    for x in _postorder(t):
        if x.left is None:
            got = at_leaf(x)
        else:
            keep = collapse(x) if collapse is not None else None
            got = done[keep] if keep is not None else x.rebuild(done[x.left], done[x.right])
        done[x] = got
    return done[t]


def _redundant_child(x: BinaryTree, value: Callable) -> BinaryTree | None:
    """The first child of the inner node x whose value equals x's, if any."""
    v = value(x)
    if value(x.left) == v:
        return x.left
    if value(x.right) == v:
        return x.right
    return None


def strictify(t: BinaryTree, value: Callable = _graph) -> BinaryTree:
    """Collapse each node with a child whose value (the graph of a join tree,
    the truth table of a formula) equals the node's onto that child."""
    return _rewrite(t, lambda x: x, lambda x: _redundant_child(x, value))


def is_strict(t: BinaryTree, value: Callable = _graph) -> bool:
    """No node has a child with the node's value; ``strictify`` returns such
    a tree itself, and any collapse gives a new root."""
    return strictify(t, value) is t


def relabel_leaves(t: BinaryTree, relabel: Callable[[BinaryTree], BinaryTree]) -> BinaryTree:
    """t with each leaf x replaced by ``relabel(x)``; subtrees with no
    changed leaf are kept as they are."""
    return _rewrite(t, relabel)


# ---------------------------------------------------------------------------
# branch coverings and the Psi oracle
# ---------------------------------------------------------------------------


def branch_coverings(t: JoinTree) -> list[frozenset[PathGraph]]:
    """The distinct branch coverings, in walk order: for each root-to-leaf
    branch, the opposite-child graphs along it plus the leaf label, as a
    set.  Branches that give a covering already seen add nothing."""
    out: dict[frozenset[PathGraph], None] = {}
    stack: list[tuple[JoinTree, tuple[PathGraph, ...]]] = [(t, ())]
    while stack:
        cur, sibs = stack.pop()
        if cur.is_leaf:
            out[frozenset(sibs + (cur.graph,))] = None
        else:
            stack.append((cur.left, sibs + (cur.right.graph,)))
            stack.append((cur.right, sibs + (cur.left.graph,)))
    return list(out)


def max_vec_delta_over_orderings(
    cov: Iterable[PathGraph], limit: int = DEFAULT_DP_LIMIT
) -> int:
    """Maximum vector-component value over all enumerations of the set,
    computed by dynamic programming over subsets."""
    members = sorted({g for g in cov if g})
    m = len(members)
    if m > limit:
        raise ResourceLimitError(f"covering size {m} exceeds subset-DP limit {limit}")
    return _kernels.max_ordering_value(_conflict_masks(members))


def _conflict_masks(members: list[PathGraph]) -> list[list[int]]:
    """One conflict bitmask per component of each member, bit i set when the
    component shares a vertex with member i (the input of
    ``_kernels.max_ordering_value``)."""
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
    return conflicts


def psi(t: JoinTree, dp_limit: int = DEFAULT_DP_LIMIT) -> int:
    """Psi-size: max over branch coverings of the best ordering value.

    The value is cached on ``t`` with its largest covering size, so a later
    call with a ``dp_limit`` below that size still raises.  A tree refused
    by the limit runs no DP and caches only its covering size."""
    if t._psi is None:
        covs = branch_coverings(t)
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
    """The integer r >= 1 with r^d = k, or None; exact for any size of k."""
    if k < 1 or d < 1:
        return None
    # bisect on [1, 2^ceil(bits/d)], which holds k^(1/d)
    lo, hi = 1, 1 << -(-k.bit_length() // d)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**d <= k:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**d == k else None


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
        combine, order = sq, range(ell)
    elif kind == "II":
        ell = _integer_root(k, 2 * d)
        if ell is None:
            raise InvalidParameterError(f"k^(1/2d) = {k}^(1/{2 * d}) is not an integer")
        # consecutive blocks indexed (i, j) row-major; combinator order
        # strides column-major so consecutive arguments are vertex-disjoint
        combine, order = sem, [i * ell + j for j in range(ell) for i in range(ell)]
    else:
        raise InvalidParameterError(f"unknown tight construction kind {kind!r}")

    def rec(lo: int, hi: int) -> JoinTree:
        if hi - lo == 1:
            return leaf(PathGraph(((lo, hi),)))
        step = (hi - lo) // len(order)
        return combine([rec(lo + b * step, lo + (b + 1) * step) for b in order])

    return rec(0, k)


def maximally_overlapping(k: int) -> JoinTree:
    """The full-overlap tree for Path_k: each node on interval [s, t] splits
    into subtrees for [s, t-1] and [s+1, t].  Psi equals 1."""
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    row = [leaf(PathGraph(((s, s + 1),))) for s in range(k)]  # the intervals of one length
    while len(row) > 1:
        row = [node(a, b) for a, b in zip(row, row[1:])]
    return row[0]


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
) -> Iterator[JoinTree]:
    """All strict g-join trees with the chosen depth measure at most d
    (d=None means no depth filter), each exactly once; trees are interned,
    so equal trees are one object."""
    if g.norm > STRICT_NORM_LIMIT:
        raise ResourceLimitError(f"graph has {g.norm} edges, enumeration limit {STRICT_NORM_LIMIT}")
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
                        if budget[0] > STRICT_COUNT_LIMIT:
                            raise ResourceLimitError(
                                f"strict-tree enumeration exceeded {STRICT_COUNT_LIMIT} trees"
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


def _e_power_at_least(d: int, a: int, b: int) -> bool:
    """e^d * a >= b, decided exactly for integers d, a, b >= 1: first by the
    bracket 2.718281828 < e < 2.718281829 in integers, then by partial sums
    S_n of sum 1/i!, with S_n < e < S_n + 1/(n * n!).  Equality never
    holds, since e is transcendental, so the refinement ends."""
    scale = (10**9) ** d
    if 2718281828**d * a >= b * scale:
        return True
    if 2718281829**d * a <= b * scale:
        return False
    n = 16
    while True:
        s = sum(Fraction(1, math.factorial(i)) for i in range(n + 1))
        if s**d * a >= b:
            return True
        if (s + Fraction(1, n * math.factorial(n))) ** d * a <= b:
            return False
        n *= 2


def verify_tradeoff(t: JoinTree, kind: Literal["I", "II"]) -> tuple[bool, int, float]:
    """Check the restated size/depth tradeoff: Psi against the explicit
    constant bound with d the left depth (kind I) or the doubling-combinator
    depth (kind II).  Returns (holds, Psi, rhs); ``holds`` is exact, and the
    float rhs is for reports only.

    With x = Psi - delta + d, kind I holds iff x >= d lam^(1/d) / (30e), that
    is x > 0 and e^d (30x)^d >= d^d lam; kind II holds iff
    x >= d lam^(1/2d) / sqrt(32e), that is x > 0 and
    e^d 32^d x^(2d) >= d^(2d) lam.  For d = 0 or lam = 0 the bound is x >= 0."""
    p = t.graph
    lhs = psi(t)
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
    x = lhs - p.delta + d
    if not d or not p.lam:
        holds = x >= 0
    elif x <= 0:
        holds = False
    elif kind == "I":
        holds = _e_power_at_least(d, (30 * x) ** d, d**d * p.lam)
    else:
        holds = _e_power_at_least(d, 32**d * x ** (2 * d), d ** (2 * d) * p.lam)
    return holds, lhs, rhs


def tree_restrict(t: JoinTree, keep: PathGraph) -> JoinTree:
    """Relabel to empty every leaf whose edge is not in ``keep``."""
    empty = leaf(EMPTY)
    return relabel_leaves(t, lambda x: x if x.graph.is_subgraph(keep) else empty)


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
    psi_t = psi(t)
    psi_memo: dict[JoinTree, int] = {}

    def psi_of(x: JoinTree) -> int:
        got = psi_memo.get(x)
        if got is None:
            got = psi(x)
            psi_memo[x] = got
        return got

    def residual(x: JoinTree, f: PathGraph) -> int:
        """psi(T_j - F) - delta(G_j - F), the part of x that survives f."""
        return psi_of(tree_ominus(x, f)) - x.graph.ominus(f).delta

    def check(kind: str, rhs: int, **where) -> None:
        report["checked"] += 1
        if psi_t < rhs:
            report["violations"].append({"kind": kind, **where, "lhs": psi_t, "rhs": rhs})

    if not t.is_leaf:
        parts = right_spine(t)
        graphs = [p.graph for p in parts]
        for j in range(1, min(len(parts), perm_limit) + 1):
            for tau in permutations(range(1, j + 1)):
                f = union_all(graphs[tau[i] - 1] for i in range(tau.index(j)))
                rhs = residual(parts[j - 1], f) + vec_delta([graphs[i - 1] for i in tau])
                check("sq", rhs, j=j, tau=list(tau))

        for decomp in sem_decompositions(t):
            m = len(decomp)
            if m > shift_m_limit:
                continue
            graphs = [p.graph for p in decomp]
            for j in range(1, m + 1):
                rhs = psi_of(decomp[j - 1]) + vec_delta(graphs, graphs[j - 1])
                check("sem-corollary", rhs, j=j)
            for sigma in shifts.enumerate_all(m):
                index_set = sorted(sigma.index_set)
                ordered = sigma.apply(graphs)
                for h in range(1, m + 1):
                    j = sigma(h)
                    pre = union_all(ordered[:h])
                    rhs = psi_of(decomp[j - 1]) + vec_delta(ordered[h:], pre)
                    check("sem-ii", rhs, I=index_set, h=h)
                    rhs = residual(decomp[j - 1], union_all(ordered[: h - 1])) + vec_delta(
                        shifts.induced(sigma, j).apply(graphs)
                    )
                    check("sem-iii", rhs, I=index_set, h=h)
    report["ok"] = not report["violations"]
    return report
