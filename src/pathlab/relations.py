"""Relations over path graphs: joins, exact densities, the pathset predicate,
blow-up sections, minterm relations, decomposition-cost certificates, and the
random-restriction experiments.

A certificate asks for the minterm relation of many (subformula, graph)
pairs.  It sets up one packed walk per graph and reads every subformula's
relation off that walk, and it settles a pair whose subformula has no
literal on some edge of the graph as empty, with no scan.  The restricted
minterm count of the product runs as a DP over the layers of alpha.

Densities are exact rationals.  The pathset predicate compares against the
irrational-exponent threshold n^((k-1)/k) by raising both sides to the k-th
power, so the comparison stays in big integers; no tolerance exists anywhere
in this module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import compress, permutations, product
from operator import itemgetter
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from . import formulas, jointrees
from .errors import CheckFailedError, DomainError, InvalidParameterError, ResourceLimitError
from .paths import EMPTY, PathGraph, from_edges, full_path, vec_delta

# resource ceilings (each raises ResourceLimitError)
PATHSET_K_LIMIT = 10  # k of is_pathset
DEFAULT_MINTERM_BUDGET = 2_000_000  # scanned points of one minterm call
MONTECARLO_BUDGET = 50_000_000  # scanned points of all montecarlo_mpath2 trials
EPS1_K_LIMIT = 4  # k of montecarlo_eps1
EPS1_DRAW_LIMIT = 1 << 23  # leaves montecarlo_eps1 draws, trials * 2^t

# ---------------------------------------------------------------------------
# relations and densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathsetParams:
    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise InvalidParameterError(f"pathset parameters need n, k >= 1, got n={self.n}, k={self.k}")


class Relation:
    """A set of assignments V(graph) -> [n], attached to its graph."""

    __slots__ = ("graph", "n", "verts", "tuples")

    def __init__(self, graph: PathGraph, n: int, tuples: Iterable[Sequence[int]]):
        self.graph = graph
        self.n = n
        self.verts = tuple(graph.vertices())
        frozen = frozenset(tuple(t) for t in tuples)
        for t in frozen:
            if len(t) != len(self.verts) or any(not 1 <= x <= n for x in t):
                raise DomainError(f"tuple {t} does not fit V(G) -> [{n}]")
        self.tuples = frozen

    def __len__(self):
        return len(self.tuples)

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and self.graph == other.graph
            and self.n == other.n
            and self.tuples == other.tuples
        )

    def __hash__(self):
        return hash((self.graph, self.n, self.tuples))

    def __repr__(self):
        return f"Relation({self.graph!r}, n={self.n}, |A|={len(self.tuples)})"

    def assignments(self) -> Iterable[dict[int, int]]:
        for t in self.tuples:
            yield dict(zip(self.verts, t))

    @classmethod
    def full(cls, graph: PathGraph, n: int) -> "Relation":
        nv = graph.num_vertices
        return cls(graph, n, product(range(1, n + 1), repeat=nv))

    @classmethod
    def empty(cls, graph: PathGraph, n: int) -> "Relation":
        return cls(graph, n, ())

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "n": self.n,
            "tuples": sorted(list(t) for t in self.tuples),
        }

    @classmethod
    def from_json(cls, data) -> "Relation":
        return cls(PathGraph.from_json(data["graph"]), data["n"], data["tuples"])


def join(a: Relation, b: Relation) -> Relation:
    """Tuples over the union graph whose projections lie in both relations."""
    if a.n != b.n:
        raise DomainError(f"mismatched universes n={a.n} vs n={b.n}")
    g = a.graph.union(b.graph)
    # each vertex's position in a tuple of a followed by one of b
    at = {v: i for i, v in enumerate(b.verts, start=len(a.verts))}
    at.update((v, i) for i, v in enumerate(a.verts))
    pick = [at[v] for v in g.vertices()]
    shared = [v for v in b.verts if at[v] < len(a.verts)]
    key_a = [at[v] for v in shared]
    key_b = [b.verts.index(v) for v in shared]
    index: dict[tuple, list] = {}
    for tb in b.tuples:
        index.setdefault(tuple(tb[i] for i in key_b), []).append(tb)
    out = []
    for ta in a.tuples:
        for tb in index.get(tuple(ta[i] for i in key_a), ()):
            t = ta + tb
            out.append(tuple(t[i] for i in pick))
    return Relation(g, a.n, out)


def join_all(rels: Sequence[Relation]) -> Relation:
    out = rels[0]
    for r in rels[1:]:
        out = join(out, r)
    return out


def density(a: Relation, cond: PathGraph | None = None) -> Fraction:
    """mu(A), or the maximum density of A conditioned on a graph."""
    if cond is None or not cond:
        return Fraction(len(a.tuples), a.n ** len(a.verts))
    shared = [i for i, v in enumerate(a.verts) if cond.has_vertex(v)]
    return Fraction(_max_count(a.tuples, shared), a.n ** (len(a.verts) - len(shared)))


def _max_count(tuples: frozenset, positions: Sequence[int]) -> int:
    """The most tuples that agree on the given positions (0 for none)."""
    if not positions or not tuples:
        return len(tuples)
    key = itemgetter(*positions)
    counts: dict = {}
    for t in tuples:
        kt = key(t)
        counts[kt] = counts.get(kt, 0) + 1
    return max(counts.values())


def subgraphs_of_path(k: int) -> list[PathGraph]:
    """All 2^k subgraphs of Path_k (as interval unions)."""
    return [from_edges(i for i in range(1, k + 1) if (bits >> (i - 1)) & 1) for bits in range(1 << k)]


def is_pathset(a: Relation, params: PathsetParams) -> bool:
    """Exact predicate: mu(A | F) <= ntilde^(-delta(G - F)) for every subgraph
    F of Path_k, via integer comparison of k-th powers.

    Every quantity in it depends on F only through its trace S = V(F) & V(G):
    the shared and free vertices, the conditional count, and delta(G - F),
    the number of components of G that share no vertex with F, i.e. that
    hold no vertex of S.  So the check runs once per distinct trace: the
    traces are the OR-closure, from the empty set, of the vertex sets
    {i-1, i} & V(G) of the edges i of Path_k, as bitmasks over the
    positions of ``a.verts``."""
    n, k = params.n, params.k
    if k > PATHSET_K_LIMIT:
        raise ResourceLimitError(f"k={k} exceeds pathset-check limit {PATHSET_K_LIMIT}")
    if a.n != n:
        raise DomainError(f"relation universe {a.n} != params n={n}")
    if not a.graph.is_subgraph(full_path(k)):
        raise DomainError(f"{a.graph!r} is not a subgraph of Path_{k}")
    if not a.tuples:  # c = 0 for every F
        return True
    pos = {v: 1 << p for p, v in enumerate(a.verts)}
    traces = {0}
    for i in range(1, k + 1):
        touch = pos.get(i - 1, 0) | pos.get(i, 0)
        if touch:
            traces |= {trace | touch for trace in traces}
    comps = [pos[t] * 2 - pos[s] for s, t in a.graph.intervals]  # positions of s..t
    nv = len(a.verts)
    for trace in traces:
        shared = [p for p in range(nv) if trace >> p & 1]
        d = sum(1 for comp in comps if not comp & trace)
        c = _max_count(a.tuples, shared)
        # (c / n^free)^k <= n^-(k-1) d
        if c**k * n ** ((k - 1) * d) > n ** (k * (nv - len(shared))):
            return False
    return True


def chain_rule_check(
    rels: Sequence[Relation], cond: PathGraph = EMPTY, params: PathsetParams | None = None
) -> dict:
    """The join-density chain rule, its m-ary version over all permutations,
    and (for pathsets, when params are given) the ordered pathset bound."""
    if not rels:
        raise InvalidParameterError("the chain rule needs at least one relation")
    report: dict = {"checked": 0, "violations": []}
    joined = rels[0]
    if len(rels) >= 2:
        a, b = rels[0], join_all(rels[1:])
        joined = join(a, b)  # the join of all, by associativity
        lhs = density(joined, cond)
        rhs = density(a, cond) * density(b, cond.union(a.graph))
        report["checked"] += 1
        if lhs > rhs:
            report["violations"].append({"rule": "binary", "lhs": str(lhs), "rhs": str(rhs)})
    mu_join = density(joined)
    for perm in permutations(range(len(rels))):
        acc = EMPTY
        rhs = Fraction(1)
        for i in perm:
            rhs *= density(rels[i], acc)
            acc = acc.union(rels[i].graph)
        report["checked"] += 1
        if mu_join > rhs:
            report["violations"].append(
                {"rule": "m-ary", "perm": list(perm), "lhs": str(mu_join), "rhs": str(rhs)}
            )
    if params is not None and all(is_pathset(r, params) for r in rels):
        n, k = params.n, params.k
        nv = len(joined.verts)
        for perm in permutations(range(len(rels))):
            vd = vec_delta([rels[i].graph for i in perm])
            # mu^k <= ntilde^-vd  <=>  |A|^k n^((k-1) vd) <= n^(k nv)
            report["checked"] += 1
            if len(joined) ** k * n ** ((k - 1) * vd) > n ** (k * nv):
                report["violations"].append(
                    {"rule": "pathset-join", "perm": list(perm), "vec_delta": vd}
                )
    report["ok"] = not report["violations"]
    return report


# ---------------------------------------------------------------------------
# blow-up sections and minterm relations
# ---------------------------------------------------------------------------


def section(g: PathGraph, alpha: dict[int, int] | Sequence[int], n: int) -> frozenset:
    """Blow-up edges (i, alpha_{i-1}, alpha_i) of the copy of g selected by alpha."""
    if not isinstance(alpha, dict):
        alpha = dict(zip(g.vertices(), alpha))
    for v, x in alpha.items():
        if not 1 <= x <= n:
            raise DomainError(f"alpha[{v}] = {x} outside [{n}]")
    return frozenset((i, alpha[i - 1], alpha[i]) for i in g.edges())


Evaluator = Callable[[Callable[[object], int], int], int]
"""``f(column, full)``: the packed value of a function at many points at
once.  Bit j of ``column(var)`` says whether point j has the blow-up edge
``var``, and ``full`` has one bit per point."""


def formula_evaluator(phi) -> Evaluator:
    return lambda column, full: formulas._Walker(column, full)(phi)


def bmm_evaluator(n: int, k: int, a0: int = 1, ak: int = 1) -> Evaluator:
    return partial(formulas.bmm_table, n=n, k=k, a0=a0, ak=ak)


def _fold_or(x: int, width: int, count: int) -> int:
    """OR of the ``count`` chunks of ``width`` bits of x."""
    while count > 1:
        half = (count + 1) // 2
        x = (x & ((1 << half * width) - 1)) | (x >> half * width)
        count = half
    return x


def minterms(f: Evaluator, g: PathGraph, mode: Literal["M", "N"], n: int) -> Relation:
    """mode M: alpha whose section is a minimal 1-certificate of (monotone) f;
    mode N: alpha whose restricted subfunction depends on every edge.

    f is called once, on every point: point (w, alpha) is bit
    w * n^|V| + index(alpha), where index(alpha) reads alpha - 1 as a base-n
    number, first vertex most significant.  Variant w is, in mode M, the full
    section (w = 0) or the section without its w-th edge, and in mode N the
    edges of the section picked by the bits of w."""
    column, full, read = _minterm_scan(g, mode, n)
    return read(f(column, full))


def _minterm_scan(g: PathGraph, mode: str, n: int) -> tuple[Callable, int, Callable]:
    """The set-up and the read-out of :func:`minterms` on g: (column, full,
    read), where ``read(values)`` turns the packed values of a function at
    every point into its minterm relation.  One set-up serves every function
    scanned on the same (g, mode, n)."""
    if mode not in ("M", "N"):
        raise InvalidParameterError(f"unknown minterm mode {mode!r}")
    verts, edges = tuple(g.vertices()), tuple(g.edges())
    variants = (len(edges) + 1) if mode == "M" else (1 << len(edges))
    width = n ** len(verts)
    if width * variants > DEFAULT_MINTERM_BUDGET:
        raise ResourceLimitError("minterm scan exceeds evaluation budget")
    total = width * variants
    full, first = (1 << total) - 1, (1 << width) - 1
    if mode == "M":
        keeps = {i: full ^ (first << (e + 1) * width) for e, i in enumerate(edges)}
    else:
        keeps = {i: formulas._digit_mask(width << e, 1, 2, total) for e, i in enumerate(edges)}
    place = {v: n ** (len(verts) - 1 - p) for p, v in enumerate(verts)}
    # mask one variant wide of the alpha with alpha_v = x
    digit = cache(lambda v, x: formulas._digit_mask(place[v], x - 1, n, width))

    def column(var) -> int:
        i, a, b = var if isinstance(var, tuple) and len(var) == 3 else (0, 0, 0)
        if i not in keeps or not (1 <= a <= n and 1 <= b <= n):
            return 0
        return formulas._repeat(digit(i - 1, a) & digit(i, b), width, total) & keeps[i]

    def read(values: int) -> Relation:
        if mode == "M":
            hits = values & first & ~_fold_or(values >> width, width, len(edges))
        else:
            hits = first
            for e in range(len(edges)):
                hits &= _fold_or(formulas._flips(values, width << e, total), width, variants)
        bits = map("1".__eq__, reversed(format(hits, f"0{width}b")))
        return Relation(g, n, compress(product(range(1, n + 1), repeat=len(verts)), bits))

    return column, full, read


def _edge_support(root) -> dict:
    """Bit i of a node's entry is set when some literal (i, a, b), negated or
    not, lies below it; a literal whose edge is no plain index counts as on
    every edge.  One fold over the distinct nodes under ``root``."""
    support: dict = {}
    for node in jointrees._postorder(root):
        if node.op == "lit":
            var = node.var
            i = var[0] if isinstance(var, tuple) and len(var) == 3 else 0
            support[node] = 1 << i if isinstance(i, int) and i >= 0 else -1
        else:
            bits = 0
            for child in node.children:
                bits |= support[child]
            support[node] = bits
    return support


def _plain_minterms(n: int, root) -> Callable[[object, PathGraph], Relation]:
    """Minterm relation (mode M) of a node under ``root`` on a graph,
    memoised by (node, graph), so one certificate builds each distinct pair
    once.  Each graph has one packed walk, shared by every node scanned on
    it, so a subformula is evaluated once per graph.  A node with no
    literal on some edge of the graph keeps its value when that edge's
    variable is deleted, so no section is a minimal certificate: its
    relation is empty, and no scan runs."""
    support = _edge_support(root)
    # per graph: its edges as a bitmask, its empty relation, and its walk
    # with the read-out, set up when first needed
    graphs: dict[PathGraph, list] = {}
    memo: dict[tuple, Relation] = {}

    def plain(node, h: PathGraph) -> Relation:
        key = (node, h)
        got = memo.get(key)
        if got is None:
            on = graphs.get(h)
            if on is None:
                on = graphs[h] = [sum(1 << i for i in h.edges()), Relation.empty(h, n), None]
            if on[0] & ~support[node]:
                got = on[1]
            else:
                if on[2] is None:
                    column, full, read = _minterm_scan(h, "M", n)
                    on[2] = formulas._Walker(column, full), read
                walk, read = on[2]
                got = read(walk(node))
            memo[key] = got
        return got

    return plain


def restricted_minterms(
    fdm: formulas.DeMorgan,
    g: PathGraph,
    t: jointrees.JoinTree,
    n: int,
) -> Relation:
    """The tree-shaped subset of the minterm relation: literals only reach
    graphs of at most one edge, disjunctions filter, and conjunctions add the
    join along the tree split."""
    if not jointrees.is_strict(t):
        raise DomainError("the join tree must be strict")
    if t.graph != g:
        raise DomainError("join tree root graph differs from g")
    return _restricted(_plain_minterms(n, fdm), fdm, t, n)[0]


def _restricted(
    plain: Callable, fdm: formulas.DeMorgan, t: jointrees.JoinTree, n: int
) -> tuple[Relation, int]:
    """The fold behind :func:`restricted_minterms` and
    :func:`chi_decomposition_cost`, over the (subformula, subtree) pairs of
    a strict tree, children first: the tree-shaped minterm subset and its
    certified covering cost of each pair.  A gate on a graph of two or more
    edges takes both its children on the same subtree and, at a
    conjunction, also its left child on the left subtree and its right
    child on the right one.  The cost sums at gates and adds, at a
    conjunction, the larger cost across the tree split."""

    small = {x: x.graph.norm <= 1 for x in jointrees._postorder(t)}

    def parts(pair: tuple) -> tuple:
        node, tree = pair
        if node.left is None or small[tree]:
            return ()
        if node.op == "or":
            return (node.left, tree), (node.right, tree)
        if tree.left is None:
            raise DomainError("expected an internal node of a strict join tree")
        return (node.left, tree), (node.right, tree), (node.left, tree.left), (node.right, tree.right)

    got: dict[tuple, tuple[Relation, int]] = {}
    for pair in jointrees._postorder((fdm, t), children=parts):
        node, tree = pair
        h = tree.graph
        if small[tree]:
            rel = plain(node, h)
            got[pair] = rel, 1 if rel.tuples else 0
        elif node.left is None:
            got[pair] = Relation.empty(h, n), 0
        else:
            (left, left_cost), (right, right_cost) = got[node.left, tree], got[node.right, tree]
            tuples = left.tuples | right.tuples
            cost = left_cost + right_cost
            if node.op == "and":
                (a, a_cost), (b, b_cost) = got[node.left, tree.left], got[node.right, tree.right]
                tuples |= join(a, b).tuples
                cost += max(a_cost, b_cost)
            got[pair] = Relation(h, n, plain(node, h).tuples & tuples), cost
    return got[fdm, t]


# ---------------------------------------------------------------------------
# decomposition-cost certificates
# ---------------------------------------------------------------------------


def ntilde_power_mu(params: PathsetParams, psi_value: int, rel: Relation) -> float:
    """Float rendering of ntilde^psi * mu(rel)."""
    n, k = params.n, params.k
    exponent = Fraction(k - 1, k) * psi_value - len(rel.verts)
    return len(rel.tuples) * float(n) ** float(exponent)


def exceeds_ntilde_bound(cost: int, params: PathsetParams, psi_value: int, rel: Relation) -> bool:
    """cost >= ntilde^psi * mu(rel), exactly (k-th powers in big integers)."""
    n, k = params.n, params.k
    nv = len(rel.verts)
    return cost**k * n ** (k * nv) >= n ** ((k - 1) * psi_value) * len(rel.tuples) ** k


def chi_lower(t: jointrees.JoinTree, a: Relation, params: PathsetParams) -> dict:
    """The complexity floor ntilde^Psi(T) * mu(A) for a pathset A, as exact
    exponent data plus a float rendering."""
    if not is_pathset(a, params):
        raise DomainError("chi_lower is defined for pathsets only")
    if t.graph != a.graph:
        raise DomainError("join tree and relation live on different graphs")
    psi_value = jointrees.psi(t)
    return {
        "psi": psi_value,
        "count": len(a.tuples),
        "exponent": Fraction(params.k - 1, params.k) * psi_value - len(a.verts),
        "float": ntilde_power_mu(params, psi_value, a),
    }


def chi_decomposition_cost(
    t: jointrees.JoinTree,
    a: Relation | None,
    fdm: formulas.DeMorgan,
    params: PathsetParams,
) -> int:
    """Certified covering cost of the tree-shaped minterm subset, following
    the formula's gates (sums at gates, max across the tree split).  Checks
    the binomial upper bound in size(f) and the ntilde^Psi * mu lower bound."""
    n, k = params.n, params.k
    g = t.graph
    if not jointrees.is_strict(t):
        raise DomainError("the join tree must be strict")
    plain = _plain_minterms(n, fdm)
    graphs = subgraphs_of_path(k)
    # an empty relation is a pathset; this call keeps the pre-check's k ceiling
    is_pathset(Relation.empty(EMPTY, n), params)
    for node in jointrees._postorder(fdm):
        for h in graphs:
            rel = plain(node, h)
            if rel.tuples and not is_pathset(rel, params):
                raise DomainError(
                    f"minterm relation of a subformula on {h!r} is not a pathset"
                )

    mgt, total = _restricted(plain, fdm, t, n)
    d_cap = formulas.and_depth(fdm)
    bound = math.comb(d_cap + g.norm - 1, g.norm - 1) * formulas.size(fdm)
    if total > bound:
        raise CheckFailedError(f"certified cost {total} exceeds the binomial bound {bound}")
    if a is None:
        target = mgt
    else:
        if not a.tuples <= mgt.tuples:
            raise DomainError("relation is not inside the tree-shaped minterm subset")
        target = a
    psi_value = jointrees.psi(t)
    if not exceeds_ntilde_bound(total, params, psi_value, target):
        raise CheckFailedError("certified cost fell below the ntilde^Psi * mu floor")
    return total


# ---------------------------------------------------------------------------
# random restrictions
# ---------------------------------------------------------------------------


@dataclass
class RestrictionSample:
    zeta: np.ndarray  # shape (k, n, n), 0/1
    xi: np.ndarray  # induced sub-permutation matrices
    seed: int

    def xi_is_subperm(self) -> bool:
        return all(
            formulas.is_subperm_matrix(self.xi[i].tolist()) for i in range(self.xi.shape[0])
        )

    def xi_edges(self) -> frozenset:
        k, n, _ = self.xi.shape
        return frozenset(
            (i + 1, a + 1, b + 1)
            for i in range(k)
            for a in range(n)
            for b in range(n)
            if self.xi[i, a, b]
        )


def induced_subperm(zeta: np.ndarray) -> np.ndarray:
    """Keep an entry only when it is the unique 1 in its row and column."""
    rows = zeta.sum(axis=1, keepdims=True)
    cols = zeta.sum(axis=0, keepdims=True)
    return (zeta & (rows == 1) & (cols == 1)).astype(np.int8)


def sample_xi(n: int, k: int, seed: int) -> RestrictionSample:
    if n < 2 or k < 1:
        raise InvalidParameterError("need n >= 2 and k >= 1")
    rng = np.random.default_rng(seed)
    p = float(n) ** (-1.0 - 1.0 / (2.0 * k))
    zeta = (rng.random((k, n, n)) < p).astype(np.int8)
    xi = np.stack([induced_subperm(zeta[i]) for i in range(k)])
    return RestrictionSample(zeta, xi, seed)


def _image(reach: int, rows: list[int]) -> int:
    """The union of ``rows[v]`` over the bits v of ``reach``."""
    got = 0
    while reach:
        low = reach & -reach
        got |= rows[low.bit_length() - 1]
        reach ^= low
    return got


def _minterm_count_bmm_restricted(xi: np.ndarray, n: int, k: int) -> int:
    """|M_{Path_k}(bmm^(union Xi))|: the alpha whose section joins vertex 1
    of layer 0 to vertex 1 of layer k, and stops joining them when any one
    of its edges is deleted, counted by a DP over the layers, left to right.

    A state (alpha_i, F, S) counts the alpha-prefixes that reach it: F is
    the set of layer-i vertices reached with every section edge, S the
    union of the sets reached with exactly one section edge skipped (vertex
    v is bit v).  Each layer maps a reach set to the union of the Xi rows
    of its vertices, a union-preserving map, so "every one-skip reach set
    misses vertex 1" holds exactly when S misses it.  A state with F empty
    can never reach vertex 1 and is dropped."""
    states = {(a, 2, 0): 1 for a in range(1, n + 1)}  # alpha_0, F = {1}, S = {}
    for layer in xi.tolist():
        rows = [0] + [sum(1 << b for b, x in enumerate(row, 1) if x) for row in layer]
        nxt: dict[tuple, int] = {}
        for (a, f, s), count in states.items():
            sf = _image(f, rows)
            ss = _image(s, rows) | sf  # skipping this layer's edge leaves image(F)
            in_f, in_s = f >> a & 1, s >> a & 1
            if not (sf or in_f):  # F' would be empty for every alpha_(i+1)
                continue
            for b in range(1, n + 1):
                bit = 1 << b
                key = (b, sf | bit if in_f else sf, ss | bit if in_s else ss)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return sum(count for (_, f, s), count in states.items() if f & 2 and not s & 2)


def montecarlo_mpath2(n: int, k: int, trials: int, seed: int) -> dict:
    """Fraction of restriction samples for which the restricted minterm
    relation keeps density at least 1/(2 n^2)."""
    if n < 2 or k < 1:
        raise InvalidParameterError("need n >= 2 and k >= 1")
    if trials < 0:
        raise InvalidParameterError(f"trials must be >= 0, got {trials}")
    if n ** (k + 1) * (k + 1) * trials > MONTECARLO_BUDGET:
        raise ResourceLimitError("minterm scans exceed the Monte Carlo budget")
    threshold = Fraction(1, 2 * n * n)
    denom = n ** (k + 1)
    hits = 0
    rows = []
    for i in range(trials):
        count = _minterm_count_bmm_restricted(sample_xi(n, k, seed + i).xi, n, k)
        dens = Fraction(count, denom)
        ok = dens >= threshold
        hits += ok
        rows.append({"trial": i, "count": count, "density": str(dens), "hit": bool(ok)})
    return {
        "n": n,
        "k": k,
        "trials": trials,
        "seed": seed,
        "frequency": hits / trials if trials else 0.0,
        "threshold": str(threshold),
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# strictified random join trees
# ---------------------------------------------------------------------------


def montecarlo_eps1(
    k: int,
    t: int,
    trials: int,
    seed: int,
    p: Sequence[float] | None = None,
) -> dict:
    """Frequency with which the strictification of a random depth-t join tree
    (leaves drawn independently over the k single edges) collapses to the
    canonical doubling-combinator tree of all k edges."""
    if k < 1 or t < 0:
        raise InvalidParameterError("need k >= 1 and t >= 0")
    if trials < 0:
        raise InvalidParameterError(f"trials must be >= 0, got {trials}")
    if k > EPS1_K_LIMIT:
        raise ResourceLimitError(f"k={k} exceeds eps1 limit {EPS1_K_LIMIT}")
    # trials * 2^t > limit, with no trials counted as one and no 2^t built
    if max(trials, 1) > EPS1_DRAW_LIMIT >> t:
        raise ResourceLimitError(f"{trials} trials of 2^{t} leaves exceed eps1 draw limit {EPS1_DRAW_LIMIT}")
    if p is None:
        probs = np.full(k, 1.0 / k)
    else:
        probs = np.asarray(p, dtype=float)
        if len(probs) != k or abs(probs.sum() - 1.0) > 1e-9 or (probs <= 0).any():
            raise InvalidParameterError("p must be a positive length-k distribution")
    rng = np.random.default_rng(seed)

    # an id indexes ``trees``, the distinct strict trees met so far; a union
    # collapses onto a child with its graph, the rule strictify applies
    trees = [jointrees._edge_leaf(e) for e in range(1, k + 1)]
    ids_of = {tree: i for i, tree in enumerate(trees)}
    combine: dict[int, int] = {}  # (a << 32) + b -> the id of a's tree U b's tree

    def node_id(code: int) -> int:
        got = combine.get(code)
        if got is None:
            x = jointrees.node(trees[code >> 32], trees[code & 0xFFFFFFFF])
            x = jointrees._redundant_child(x, jointrees._graph) or x  # a tree is truthy
            got = ids_of.get(x)
            if got is None:
                got = ids_of[x] = len(trees)
                trees.append(x)
            combine[code] = got
        return got

    def fold(ids: np.ndarray) -> np.ndarray:
        """The id of each row's tree: the rows hold the leaf ids of complete
        binary trees, whose adjacent pairs are joined level by level."""
        while ids.shape[1] > 1:
            left = ids[:, 0::2]
            right = ids[:, 1::2]
            codes = left.astype(np.int64) * (1 << 32) + right
            uniq, inverse = np.unique(codes, return_inverse=True)
            mapped = np.array([node_id(c) for c in uniq.tolist()], dtype=np.int64)
            ids = mapped[inverse].reshape(left.shape)
        return ids[:, 0]

    # the leaves are drawn and folded in chunks of at most 2^16 consecutive
    # leaves, so memory does not grow with trials * 2^t: whole trials when a
    # trial fits, else one 2^16-leaf subtree at a time, each folded to one id
    # before the trial folds its subtrees' ids.  The generator's stream runs
    # on across calls, so the leaves are those of one (trials, 2^t) draw.
    # Leaf ids are edges - 1.
    span = min(1 << t, 1 << 16)  # leaves per row of a draw
    rows = (1 << 16) // span
    target = jointrees.sem(trees[:k])
    matches = 0
    for done in range(0, trials, rows):
        n = min(rows, trials - done)
        parts = [fold(rng.choice(k, size=(n, span), p=probs)) for _ in range((1 << t) // span)]
        # the target gets an id only if some trial built it
        matches += int((fold(np.stack(parts, axis=1)) == ids_of.get(target, -1)).sum())
    return {
        "k": k,
        "t": t,
        "trials": trials,
        "seed": seed,
        "matches": matches,
        "frequency": matches / trials if trials else 0.0,
    }
