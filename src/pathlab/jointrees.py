"""Join trees over path graphs, and the binary-tree core they share with
binary formulas.

``BinaryTree`` is that core: an immutable node, interned; equality is
identity.  One intern table of keyed weak references makes every node of
both node kinds, ``JoinTree`` (here) and ``formulas.DeMorgan``, so equal
trees are one object and a node keys a memo by identity.  Standard and
left depth are set when a node is made; only Psi (``_psi``) and the
doubling-combinator table are filled on first use, the table by a walk
that stops at nodes already measured.  The algorithms that only read the
tree shape are written once, over ``BinaryTree``: the doubling combinator
``sem``, its recogniser and depth ``sem_depth``, ``left_depth``,
``strictify`` and ``is_strict`` (given the per-node value whose equality
marks a redundant child), and leaf relabelling ``relabel_leaves``.  Every
children-first walk of a whole tree or formula is one loop over
``_postorder``, the distinct nodes children first on an explicit stack, so
a shared subtree is visited once and depth is no ceiling.  A caller may
give the children of a node: the support tree walks a gate's children
restricted to its support, and ``relations._restricted`` (subformula,
subtree) pairs.  The demand-driven evaluator ``formulas._Walker``, which
stops a gate at a deciding child, keeps its own explicit stack.

A join tree is a binary tree whose leaves are labeled by single edges (or the
empty graph) and whose internal nodes carry the union of their children's
graphs.  ``leaf`` and ``JoinTree.from_json`` validate the labels they are
given; the constructions, samplers and enumeration make the leaf of an edge
they computed with the trusted ``_edge_leaf``, and no inner node's graph is
ever validated, since it is the union of its children's.  This module also provides the standard depth, branch coverings, the
Psi-size oracle (a lazy walk over the branch coverings that stops at a
ceiling read off the tree's graph, with a bitmask DP over orderings of each
covering that two exact bounds leave open), the tight upper-bound
constructions, exhaustive enumeration of strict trees, and checkers for the
size/depth tradeoff inequalities and the Psi recurrences.
"""

from __future__ import annotations

import json
import math
import weakref
from fractions import Fraction
from itertools import product
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Literal

from . import _kernels, shifts
from .errors import ArityError, InvalidParameterError, ResourceLimitError
from .paths import EMPTY, PathGraph, _coalesce, _ranked_intervals, _survivors

# resource ceilings (each raises ResourceLimitError); only the subset-DP
# ceiling can be set per call, as ``psi``'s and
# ``max_vec_delta_over_orderings``'s limit
DEFAULT_DP_LIMIT = 22  # members of a branch covering in the subset DP
SEM_ARITY_LIMIT = 20  # arguments of sem
SEM_MEMO_LIMIT = 1 << 16  # sequences of one node in the doubling-combinator recogniser
# edges of the graph enumerate_strict works on; the tree count depends on
# the edge count alone: 17,592 at 4 edges and over 500,000 at 5
STRICT_NORM_LIMIT = 4


class BinaryTree:
    """Immutable binary tree node.  A leaf has ``left`` and ``right`` None and
    ``gate`` None; an inner node names its operation in ``gate``.  Subclasses
    look their nodes up in ``_NODES`` and make new ones with ``_new_node``,
    and say how to make an inner node with the same gate over other children
    (``rebuild``).

    Nodes are interned; equality is identity.  Building a node equal to a
    live one returns that one, so a node keys a memo by identity and equal
    trees share every cache held on their nodes.  ``_left_depth``
    (``left_depth``) is set when the node is made; ``_sem`` (the node's
    entry in the doubling-combinator recogniser, ``_sem_table``) and
    ``JoinTree._psi`` are None until measured.  No cache holds the node
    itself, so an interned node goes with its last outside reference."""

    __slots__ = ("left", "right", "gate", "_left_depth", "_sem", "__weakref__")

    def rebuild(self, left: "BinaryTree", right: "BinaryTree") -> "BinaryTree":
        raise NotImplementedError

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def children(self) -> tuple:
        return () if self.left is None else (self.left, self.right)


class _KeyedRef(weakref.ref):
    """A weak reference that carries its node's key; with no ``__new__`` or
    ``__init__`` of its own, it is made at C level."""

    __slots__ = ("key",)


# the live nodes of every ``BinaryTree`` subclass by ``_KeyedRef``: an inner
# node under (class, gate, left, right), children compared by identity, and
# a leaf under its class and label; an entry goes with its node, and a new
# node replaces a dead reference whose callback has not run yet
_NODES: dict[tuple, _KeyedRef] = {}


def _drop(ref: _KeyedRef, nodes: dict = _NODES) -> None:
    """Callback: delete ``ref``'s entry unless a newer node replaced it (the
    table is bound as a default, so interpreter teardown cannot unbind it)."""
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _new_node(cls: type, key: tuple, left, right, gate) -> BinaryTree:
    """A new ``cls`` node with these children, gate and left depth, entered
    in ``_NODES`` under ``key``; the caller sets its subclass fields."""
    x = object.__new__(cls)
    x.left, x.right, x.gate, x._sem = left, right, gate, None
    x._left_depth = 0 if left is None else max(left._left_depth + 1, right._left_depth)
    _NODES[key] = ref = _KeyedRef(x, _drop)
    ref.key = key
    return x


class JoinTree(BinaryTree):
    """Immutable binary join tree; ``graph`` is the union of leaf labels and
    ``_height`` the standard depth, set with the left depth when made.  Once
    ``psi`` has run, ``_psi`` caches Psi; ``_psi_size``, the largest
    covering size, is None until a ``dp_limit`` of at most the height makes
    ``psi`` count it (two slots of small ints, where a tuple would
    allocate)."""

    __slots__ = ("graph", "_height", "_psi", "_psi_size")

    def __new__(cls, left: "JoinTree | None", right: "JoinTree | None", graph: PathGraph = EMPTY):
        """The leaf labeled ``graph`` when ``left`` is None, else the union
        node over ``left`` and ``right``."""
        key = (cls, graph) if left is None else (cls, "union", left, right)
        ref = _NODES.get(key)
        x = None if ref is None else ref()
        if x is None:
            x = _new_node(cls, key, left, right, None if left is None else "union")
            if left is None:
                x.graph, x._height = graph, 0
            else:
                x.graph = left.graph.union(right.graph)
                x._height = 1 + (left._height if left._height > right._height else right._height)
            x._psi = x._psi_size = None
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
        """The tree of a ``to_json`` object (or its text).  Every leaf label
        is validated by ``PathGraph.from_json`` and ``leaf``, but only once
        per distinct label per call: a label ``{"intervals": [[s, t]]}``
        with int s and t is keyed by (s, t), and its later copies reuse the
        leaf built for the first.  Inner nodes are never validated; each
        one's graph is the union of its children's."""
        if isinstance(data, str):
            data = json.loads(data)
        join = object()  # marks a node whose children are the top two built trees
        built: list[JoinTree] = []
        leaves: dict[tuple[int, int], JoinTree] = {}
        stack = [data]
        while stack:
            item = stack.pop()
            if item is join:
                right = built.pop()
                built.append(node(built.pop(), right))
            elif not isinstance(item, dict):
                raise ArityError(f"a join tree is a JSON object, not {type(item).__name__}")
            elif "leaf" in item:
                label = item["leaf"]
                key = _label_key(label)
                x = leaves.get(key)
                if x is None:
                    x = leaf(PathGraph.from_json(label))
                    if key is not None:
                        leaves[key] = x
                built.append(x)
            else:
                kids = item["node"]
                if not isinstance(kids, (list, tuple)) or len(kids) != 2:
                    raise ArityError("a join-tree node needs a list of two children")
                stack += (join, kids[1], kids[0])
        return built[0]


def _label_key(label) -> tuple[int, int] | None:
    """(s, t) when ``label`` is a dict whose "intervals" is the one list
    [s, t] of two ints, the labels whose parse depends on s and t alone;
    else None.  Types are matched exactly, so a float or bool endpoint is
    never keyed with an int one."""
    if type(label) is dict:
        ivs = label.get("intervals")
        if type(ivs) is list and len(ivs) == 1:
            iv = ivs[0]
            if type(iv) is list and len(iv) == 2 and type(iv[0]) is int and type(iv[1]) is int:
                return iv[0], iv[1]
    return None


def _leaf_text(x: JoinTree) -> str:
    return "[{},{}]".format(*x.graph.intervals[0]) if x.graph else "()"


def leaf(graph: PathGraph = EMPTY) -> JoinTree:
    if graph.norm > 1:
        raise ArityError(f"leaf label must have at most one edge, got {graph!r}")
    return JoinTree(None, None, graph)


def _edge_leaf(e: int) -> JoinTree:
    """Trusted ``leaf``: the leaf of edge e = {e-1, e}, for an int e the
    caller computed, with no check of its label."""
    return JoinTree(None, None, PathGraph._of(((e - 1, e),)))


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


# ---------------------------------------------------------------------------
# depth measures
# ---------------------------------------------------------------------------


def _postorder(root, done: Callable | None = None, children: Callable | None = None) -> Iterator:
    """The distinct nodes under ``root``, each after its children (left to
    right), on an explicit stack.  The children of x are ``children(x)``,
    called once per node, by default those of a ``BinaryTree`` or a
    ``formulas.Formula``.  Nodes are told apart by equality: a
    ``BinaryTree`` is interned, so equality is identity.  A node x with
    ``done(x)`` not None is already measured: neither it nor anything under
    it is yielded."""
    seen: set = set()
    stack = [root]
    pop, push = stack.pop, stack.append
    binary = children is None and isinstance(root, BinaryTree)
    while stack:
        x = pop()
        if x is None:  # the node under the marker has all its children done
            x = pop()
        elif x in seen or (done is not None and done(x) is not None):
            continue
        elif binary:
            if x.left is not None:
                push(x)
                push(None)
                push(x.right)
                push(x.left)
                continue
        else:
            kids = x.children if children is None else children(x)
            if kids:
                push(x)
                push(None)
                stack.extend(reversed(kids))
                continue
        seen.add(x)
        yield x


def _text(t, leaf_text: Callable, head: Callable, sep: str) -> str:
    """Text of t: ``leaf_text(x)`` at a leaf, else ``head(x)``, the
    children's texts joined by ``sep``, and ')'.  Each distinct subtree's
    text is built once, as a list of pieces sharing its children's lists,
    and one pass joins the pieces, in time linear in the text."""
    pieces: dict = {}
    for x in _postorder(t):
        kids = x.children
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


def standard_depth(t: JoinTree) -> int:
    """The most edges on a root-to-leaf branch, kept on every node."""
    return t._height


_sem_of = attrgetter("_sem")


def left_depth(t: BinaryTree) -> int:
    """Maximum number of left descents on a root-to-leaf branch (the
    right-comb-combinator depth), kept on every node."""
    return t._left_depth


def _sem_table(t: BinaryTree) -> tuple[tuple, int, int]:
    """The doubling-combinator recogniser.  Returns t's entry (seqs, depth,
    widest), cached on every node under t as ``_sem``; a call measures only
    the nodes not measured before, children first.

    For a node x, ``seqs`` are all sequences (T_1..T_p), p >= 2, whose
    doubling-combinator expansion with x's gate equals x; a child with
    another gate is a single part.  The singleton (x,) also expands to x
    but is not stored, since it would hold x in a reference cycle.
    ``depth`` is the minimum nesting depth of single-gate applications
    expressing x, and ``widest`` the most sequences of one node under x.
    A node with more than ``SEM_MEMO_LIMIT`` sequences raises, as does
    every tree above it, whatever was measured before."""
    if t._sem is None:
        for x in _postorder(t, _sem_of):
            left, right = x.left, x.right
            if left is None:
                x._sem = ((), 0, 0)
                continue
            seqs_l, depth_l, widest_l = left._sem
            seqs_r, depth_r, widest_r = right._sem
            acc = [(left, right)]  # the singletons (left,) and (right,) joined
            depth = depth_l if depth_l > depth_r else depth_r
            # two longer sequences join when they share all but the last
            # part; a child with another gate has only its singleton
            if left.gate == x.gate == right.gate:
                for a in seqs_l:
                    head = a[:-1]
                    for b in seqs_r:
                        if len(a) == len(b) and head == b[:-1]:
                            seq = a + (b[-1],)
                            acc.append(seq)
                            worst = max([part._sem[1] for part in seq])
                            if worst < depth:
                                depth = worst
            if len(acc) > SEM_MEMO_LIMIT:
                break  # x, and so t, stays unmeasured
            x._sem = (tuple(acc), depth + 1, max(len(acc), widest_l, widest_r))
    if t._sem is None or t._sem[2] > SEM_MEMO_LIMIT:
        raise ResourceLimitError(
            f"sem-depth recognition exceeded {SEM_MEMO_LIMIT} sequences of one node"
        )
    return t._sem


def sem_decompositions(t: BinaryTree) -> list[tuple[BinaryTree, ...]]:
    """All ways (arity >= 2) of writing t as a doubling-combinator application."""
    return list(_sem_table(t)[0])


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
    done: dict | None = None,
) -> BinaryTree:
    """Bottom-up rewrite: a leaf x becomes ``at_leaf(x)``; an inner node x
    becomes the rewrite of ``collapse(x)`` (one of its children) when that
    is not None, else x over its rewritten children.  Nodes are interned,
    so a node the rewrite leaves alone comes back as itself.  ``done``, the
    rewrites already made by the same rules, is reused and added to: no
    node in it is walked again."""
    # a fresh rewrite asks the walk no per-node question
    done, skip = ({}, None) if done is None else (done, done.get)
    for x in _postorder(t, skip):
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


def is_strict(t: BinaryTree, value: Callable = _graph, done: Callable | None = None) -> bool:
    """No node has a child with the node's value, the trees ``strictify``
    returns unchanged; decided on the nodes as they are, building none.  A
    node x with ``done(x)`` not None is known to be strict, and neither it
    nor anything under it is checked."""
    return all(x.left is None or _redundant_child(x, value) is None for x in _postorder(t, done))


def relabel_leaves(t: BinaryTree, relabel: Callable[[BinaryTree], BinaryTree]) -> BinaryTree:
    """t with each leaf x replaced by ``relabel(x)``; subtrees with no
    changed leaf are kept as they are."""
    return _rewrite(t, relabel)


# ---------------------------------------------------------------------------
# branch coverings and the Psi oracle
# ---------------------------------------------------------------------------


def _branches(t: JoinTree) -> Iterator[tuple[PathGraph, ...]]:
    """The members of each root-to-leaf branch's covering, in walk order:
    the opposite-child graphs along the branch, then the leaf label."""
    stack: list[tuple[JoinTree, tuple[PathGraph, ...]]] = [(t, ())]
    while stack:
        cur, sibs = stack.pop()
        if cur.left is None:
            yield sibs + (cur.graph,)
        else:
            stack.append((cur.left, sibs + (cur.right.graph,)))
            stack.append((cur.right, sibs + (cur.left.graph,)))


def branch_coverings(t: JoinTree) -> list[frozenset[PathGraph]]:
    """The distinct branch coverings, in walk order: for each root-to-leaf
    branch, the opposite-child graphs along it plus the leaf label, as a
    set.  Branches that give a covering already seen add nothing."""
    return list(dict.fromkeys(map(frozenset, _branches(t))))


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
    comps = _ranked_intervals([g.intervals for g in members])
    vertex_bits = [sum([c for c, _ in cs]) for cs in comps]
    conflicts: list[list[int]] = []
    for j, cs in enumerate(comps):
        masks = []
        for comp, _ in cs:
            mask = 0
            for i, other in enumerate(vertex_bits):
                if i != j and comp & other:
                    mask |= 1 << i
            masks.append(mask)
        conflicts.append(masks)
    return conflicts


_first = itemgetter(0)
_right_end = itemgetter(1)


def _bounds(cov: Iterable[PathGraph]) -> tuple[int, int]:
    """(hi, lo) of one covering, the bounds ``psi`` brackets its value with:
    hi by the earliest-right-end greedy of interval scheduling over every
    member's components, lo the most components of one member."""
    ivs = [iv for g in cov for iv in g.intervals]
    ivs.sort(key=_right_end)
    hi = last = 0
    for s, t in ivs:
        if not hi or s > last:
            hi += 1
            last = t
    return hi, max([len(g.intervals) for g in cov], default=0)


def _ceiling(g: PathGraph) -> int:
    """The most pairwise vertex-disjoint paths of at least one edge in g: a
    component on t - s + 1 vertices holds floor((t - s + 1) / 2)."""
    return sum([(t - s + 1) // 2 for s, t in g.intervals])


def psi(t: JoinTree, dp_limit: int = DEFAULT_DP_LIMIT) -> int:
    """Psi-size: max over branch coverings of the best ordering value.

    Each covering's value lies between two exact bounds (``_bounds``):

    * hi, the most pairwise vertex-disjoint components among its members:
      an ordering counts a component only when it shares no vertex with the
      members placed before it, so the components it counts are pairwise
      disjoint;
    * lo, the most components of one member: the ordering that puts that
      member first counts them all.

    Psi itself lies between two exact bounds of the whole tree:

    * the ceiling, the sum of floor((t - s + 1) / 2) over the components
      (s, t) of t's graph: every component an ordering counts has at least
      two vertices, and the components counted in one covering are
      pairwise vertex-disjoint subpaths of t's graph;
    * the floor, the larger Psi of t's children where they are cached
      (children are not measured for it): each covering of a child, plus
      the other child's graph placed last, is a covering of t, and a member
      placed last cannot lower the value.

    ``_psi_walk`` walks the branches lazily from the floor and stops as soon
    as the best value reaches the ceiling.  A covering with lo = hi, or with
    hi at the ceiling, is settled when it is met (the latter by a subset DP
    when lo < hi); any other covering lifts the best value to its lo and,
    with hi above the best value, waits.  When the walk ends below the
    ceiling, the waiting coverings are visited by hi, largest first, in
    walk order among equals, until hi is no more than the best value, each
    by a subset DP.

    The ``dp_limit`` contract does not depend on what was measured before:
    the call raises exactly when the largest branch covering has more than
    ``dp_limit`` nonempty members.  The branch to a leaf at depth h gives
    at most h + 1 members, so the size is counted (and cached on t) only
    when t's height reaches ``dp_limit``.  A tree refused by the limit runs
    no DP and caches no value."""
    if t._psi_size is None and t._height >= dp_limit:
        t._psi_size = max([len(cov) - (EMPTY in cov) for cov in branch_coverings(t)])
    if t._psi_size is not None and t._psi_size > dp_limit:
        raise ResourceLimitError(f"covering size {t._psi_size} exceeds subset-DP limit {dp_limit}")
    if t._psi is None:
        t._psi = _psi_walk(t, dp_limit)
    return t._psi


def _psi_walk(t: JoinTree, dp_limit: int) -> int:
    """Psi of t by the bounded walk ``psi`` describes; no covering of t has
    more than ``dp_limit`` nonempty members."""
    ceiling = _ceiling(t.graph)
    best = 0
    if t.left is not None:
        for child in (t.left, t.right):
            if child._psi is not None and child._psi > best:
                best = child._psi
    waiting: list[tuple[int, frozenset[PathGraph]]] = []
    seen: set[frozenset[PathGraph]] = set()
    branches = _branches(t)
    while best < ceiling:
        members = next(branches, None)
        if members is None:
            break
        hi, lo = _bounds(members)
        if hi <= best:
            continue
        if lo >= hi:
            best = hi
            continue
        if lo > best:
            best = lo
        cov = frozenset(members)
        if cov in seen:
            continue
        seen.add(cov)
        if hi < ceiling:
            waiting.append((hi, cov))
        else:
            best = max(best, max_vec_delta_over_orderings(cov, dp_limit))
    waiting.sort(key=_first, reverse=True)
    for hi, cov in waiting:
        if hi <= best:
            break
        best = max(best, max_vec_delta_over_orderings(cov, dp_limit))
    return best


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _integer_root(k: int, d: int) -> int | None:
    """The integer r >= 1 with r^d = k, or None; exact for any size of k,
    and no power is built when k < 2^d, whatever d is."""
    if k < 1 or d < 1:
        return None
    if k.bit_length() <= d:  # k < 2^d <= r^d for every r >= 2
        return 1 if k == 1 else None
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
            return _edge_leaf(hi)
        step = (hi - lo) // len(order)
        return combine([rec(lo + b * step, lo + (b + 1) * step) for b in order])

    return rec(0, k)


def maximally_overlapping(k: int) -> JoinTree:
    """The full-overlap tree for Path_k: each node on interval [s, t] splits
    into subtrees for [s, t-1] and [s+1, t].  Psi equals 1."""
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    row = [_edge_leaf(e) for e in range(1, k + 1)]  # the intervals of one length
    while len(row) > 1:
        row = [node(a, b) for a, b in zip(row, row[1:])]
    return row[0]


def _edge_subgraph_pairs(edges: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Ordered pairs (E1, E2) of nonempty proper subsets of the sorted edge
    tuple ``edges`` with union ``edges``, each sorted."""
    n = len(edges)
    for assign in product((0, 1, 2), repeat=n):
        left = tuple([e for e, a in zip(edges, assign) if a != 1])
        right = tuple([e for e, a in zip(edges, assign) if a != 0])
        if left and right and len(left) < n and len(right) < n:
            yield left, right


def enumerate_strict(
    g: PathGraph,
    depth_kind: Literal["left", "sem"] = "left",
    d: int | None = None,
) -> Iterator[JoinTree]:
    """All strict g-join trees with the chosen depth measure at most d
    (d=None means no depth filter), each exactly once; trees are interned,
    so equal trees are one object.  g is the only graph validated: the
    split recurses on sorted tuples of g's edges, its leaves are trusted
    (``_edge_leaf``) and each inner node's graph is the union of its
    children's, so no subgraph of g is built as a ``PathGraph``."""
    if g.norm > STRICT_NORM_LIMIT:
        raise ResourceLimitError(f"graph has {g.norm} edges, enumeration limit {STRICT_NORM_LIMIT}")
    measure = left_depth if depth_kind == "left" else sem_depth
    for t in _all_strict(tuple(g.edges()), {}):
        if d is None or measure(t) <= d:
            yield t


def _all_strict(
    edges: tuple[int, ...], memo: dict[tuple[int, ...], tuple[JoinTree, ...]]
) -> tuple[JoinTree, ...]:
    """All strict join trees over the sorted edge tuple ``edges``, memoised
    per edge tuple in ``memo``.  The memo is passed in so that no closure
    holds it in a reference cycle, and the trees go with their last
    reference."""
    got = memo.get(edges)
    if got is not None:
        return got
    if len(edges) <= 1:
        out: tuple[JoinTree, ...] = (_edge_leaf(edges[0]) if edges else leaf(),)
    else:
        acc = []
        for e1, e2 in _edge_subgraph_pairs(edges):
            for t1 in _all_strict(e1, memo):
                for t2 in _all_strict(e2, memo):
                    acc.append(node(t1, t2))
        out = tuple(acc)
    memo[edges] = out
    return out


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
    delta, lam = p.delta, p.lam
    lhs = psi(t)
    if kind == "I":
        d = left_depth(t)
        rhs = d * lam ** (1.0 / d) / (30.0 * math.e) + delta - d if d else float(delta)
    elif kind == "II":
        d = sem_depth(t)
        rhs = d * lam ** (1.0 / (2.0 * d)) / math.sqrt(32.0 * math.e) + delta - d if d else float(delta)
    else:
        raise InvalidParameterError(f"unknown tradeoff kind {kind!r}")
    x = lhs - delta + d
    if not d or not lam:
        holds = x >= 0
    elif x <= 0:
        holds = False
    elif kind == "I":
        holds = _e_power_at_least(d, (30 * x) ** d, d**d * lam)
    else:
        holds = _e_power_at_least(d, 32**d * x ** (2 * d), d ** (2 * d) * lam)
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

    For the right-spine decomposition sq(T_1..T_m): for every j up to
    ``perm_limit`` and every permutation tau of [j],

        Psi(T) >= Psi(T_j - F) - delta(G_j - F) + vec_delta(G_tau(1..j))

    with F the union of the graphs placed before j by tau.  For every
    doubling-combinator decomposition sem(T_1..T_m) with m up to
    ``shift_m_limit``: parts (ii) and (iii) of the shift-permutation bound,
    for every index set I and position h, and its bring-to-front corollary.

    ``checked`` counts the cases decided, j! per j and m + m * 2^m per
    decomposition, and ``skipped`` those the limits leave out.  Each family
    of cases is decided by its largest right-hand side, and reported once
    with it when that breaks the bound: sq by j, then per decomposition its
    corollaries by j and its (ii) and (iii) families by (i, q).

    * sq, family j: with most[S] the largest vec_delta over the orders of
      the parts in S (a subset DP over each part's survivors over each
      union of the first parts), the best order of S | {j} puts j last, for
      most[S] + |G_j - U_S| + the residual of T_j over U_S, or some i of S
      last, for the best of S | {j} - {i} plus i's survivors.  The tau
      named walks back through these choices, the highest part last on ties.
    * sem, family (i, q): the cases with h = q + 1 in a block (p, i] of I.
      Each is a value of the block plus the block values b (``_Blocks``) of
      I after i: at most f(i), the longest path from i (``shift_sweep``),
      and equal to it for some I.  At the head, p = q, (ii) is Psi(T_i) +
      b(q, i) - |G_i - U_q| and (iii) the residual of T_i over U_q plus
      u(q) + b(q, i), u the unit prefix sums; inside, for every p < q, (ii)
      is Psi(T_q) + b(q, i) - |G_i - U_q| and (iii) the residual of T_q
      over U_(q-1) | G_i plus u(q-1) + b(q-1, i).  So O(m^2) numbers decide
      every case.  The I named is q (when q > 0 and the head is at least
      the inside), then i, then the lex-min optimal path from i.  The
      corollary for j is (ii) at the head of (0, j] in I = {j, ..., m}.

    The residual Psi(T_j - F) - delta(G_j - F) is kept by T_j and G_j - F,
    and each restricted tree lives until the check returns, so no tree is
    walked twice.  ``psi`` is looked up at call time.
    """
    checked = skipped = 0
    violations: list[dict] = []
    psi_t = psi(t)
    memo: dict = {}
    held: list[JoinTree] = []  # the restricted trees, alive with their Psi until the check returns

    def residual(x: JoinTree, keep: tuple) -> int:
        """psi(T_j - F) - delta(G_j - F) for x = T_j and keep, the
        intervals of G_j - F."""
        key = (x, keep)
        got = memo.get(key)
        if got is None:
            if len(keep) == len(x.graph.intervals):
                got = psi(x) - len(keep)
            else:
                y = tree_restrict(x, PathGraph._of(keep))
                held.append(y)
                got = psi(y) - len(keep)
            memo[key] = got
        return got

    def note(kind: str, rhs: int, **where) -> None:
        if psi_t < rhs:
            violations.append({"kind": kind, **where, "lhs": psi_t, "rhs": rhs})

    if not t.is_leaf:
        parts = right_spine(t)
        members = [p.graph.intervals for p in parts]
        n = max(min(len(parts), perm_limit), 0)
        skipped += sum(math.factorial(j) for j in range(n + 1, len(parts) + 1))
        # union[mask]: the union of the parts i + 1 with bit i set, i < n
        union: list[tuple] = [()]
        for mask in range(1, 1 << n):
            low = members[(mask & -mask).bit_length() - 1]
            union.append(_coalesce(sorted(union[mask & (mask - 1)] + low)))
        # gain[mask][i]: |G_(i+1) - union[mask]|, for each part i + 1 not in mask
        gain = [
            [0 if mask >> i & 1 else len(_survivors(u, members[i])) for i in range(n)]
            for mask, u in enumerate(union)
        ]
        # most[mask]: the largest vec_delta over the orders of the parts in
        # mask, and the last part of one such order
        most = [(0, -1)]
        for mask in range(1, 1 << n):
            most.append(max((most[mask ^ 1 << i][0] + gain[mask ^ 1 << i][i], i) for i in range(n) if mask >> i & 1))
        for j in range(n):  # the family of part j + 1
            checked += math.factorial(j + 1)
            top = 1 << j
            # best[s]: the largest rhs over the orders of the parts in
            # s | top, for each set s of parts before j + 1, and the last
            # part of one such order
            best = []
            for s in range(top):
                keep = _survivors(union[s], members[j])
                got = (most[s][0] + gain[s][j] + residual(parts[j], keep), j)
                for i in range(j):
                    if s >> i & 1:
                        got = max(got, (best[s ^ 1 << i][0] + gain[(s ^ 1 << i) | top][i], i))
                best.append(got)
            # tau, last part first: back through best until j, then through most
            tau, s, table = [], top - 1, best
            while s or table is best:
                i = table[s][1]
                tau.append(i + 1)
                table, s = (most, s) if i == j else (table, s ^ 1 << i)
            note("sq", best[-1][0], j=j + 1, tau=tau[::-1])

        for decomp in sem_decompositions(t):
            m = len(decomp)
            if m > shift_m_limit:
                skipped += m + (m << m)
                continue
            checked += m + (m << m)
            blocks = shifts._Blocks([p.graph for p in decomp])
            units = blocks.unit_sums[0]
            psi_of = [psi(x) for x in decomp]
            b = blocks.table(0)
            later, path = _kernels.shift_sweep(b)
            for j in range(1, m + 1):
                note("sem-corollary", psi_of[j - 1] + b[0][j] - len(blocks.members[j - 1]) + units[m] - units[j], j=j)
            for i in range(1, m + 1):
                gi = blocks.members[i - 1]
                for q in range(i):
                    keep = _survivors(blocks.prefix[q], gi)  # G_i - U_q
                    shown = b[q][i] - len(keep)
                    head = inside = (psi_of[i - 1] + shown, residual(decomp[i - 1], keep) + units[q] + b[q][i])
                    if q:
                        keep = _survivors(gi, blocks.resid[q - 1])
                        iii = residual(decomp[q - 1], keep) + units[q - 1] + b[q - 1][i]
                        inside = (psi_of[q - 1] + shown, iii)
                    for kind, at_head, at_inside in zip(("sem-ii", "sem-iii"), head, inside):
                        named = [q] if q and at_head >= at_inside else []
                        note(kind, max(at_head, at_inside) + later[i], I=[*named, i, *path[i]], h=q + 1)
    return {"checked": checked, "skipped": skipped, "violations": violations, "ok": not violations}
