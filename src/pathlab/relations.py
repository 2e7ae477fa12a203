"""Relations over path graphs: joins, exact densities, the pathset predicate,
blow-up sections, minterm relations, decomposition-cost certificates, and the
random-restriction experiments.

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

# resource ceilings (each raises ResourceLimitError); only the minterm-scan
# budget can be set per call, as ``minterms``'s budget
PATHSET_K_LIMIT = 10  # k of is_pathset
DEFAULT_MINTERM_BUDGET = 2_000_000  # scanned points of one minterm call
MONTECARLO_BUDGET = 50_000_000  # scanned points of all montecarlo_mpath2 trials
EPS1_K_LIMIT = 4  # k of montecarlo_eps1
EPS1_T_LIMIT = 14  # t of montecarlo_eps1

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
    verts = tuple(g.vertices())
    pos_a = [verts.index(v) for v in a.verts]
    shared = [v for v in b.verts if v in set(a.verts)]
    shared_in_b = [b.verts.index(v) for v in shared]
    index: dict[tuple, list] = {}
    for tb in b.tuples:
        index.setdefault(tuple(tb[i] for i in shared_in_b), []).append(tb)
    out = []
    b_pos = {v: i for i, v in enumerate(b.verts)}
    for ta in a.tuples:
        amap = dict(zip(a.verts, ta))
        key = tuple(amap[v] for v in shared)
        for tb in index.get(key, ()):
            merged = dict(amap)
            merged.update(zip(b.verts, tb))
            out.append(tuple(merged[v] for v in verts))
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
    if len(rels) >= 2:
        a, b = rels[0], join_all(rels[1:])
        lhs = density(join(a, b), cond)
        rhs = density(a, cond) * density(b, cond.union(a.graph))
        report["checked"] += 1
        if lhs > rhs:
            report["violations"].append({"rule": "binary", "lhs": str(lhs), "rhs": str(rhs)})
    joined = join_all(list(rels))
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


def minterms(
    f: Evaluator,
    g: PathGraph,
    mode: Literal["M", "N"],
    n: int,
    budget: int = DEFAULT_MINTERM_BUDGET,
) -> Relation:
    """mode M: alpha whose section is a minimal 1-certificate of (monotone) f;
    mode N: alpha whose restricted subfunction depends on every edge.

    f is called once, on every point: point (w, alpha) is bit
    w * n^|V| + index(alpha), where index(alpha) reads alpha - 1 as a base-n
    number, first vertex most significant.  Variant w is, in mode M, the full
    section (w = 0) or the section without its w-th edge, and in mode N the
    edges of the section picked by the bits of w."""
    if mode not in ("M", "N"):
        raise InvalidParameterError(f"unknown minterm mode {mode!r}")
    verts, edges = tuple(g.vertices()), tuple(g.edges())
    variants = (len(edges) + 1) if mode == "M" else (1 << len(edges))
    width = n ** len(verts)
    if width * variants > budget:
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

    values = f(column, full)
    if mode == "M":
        hits = values & first & ~_fold_or(values >> width, width, len(edges))
    else:
        hits = first
        for e in range(len(edges)):
            hits &= _fold_or(formulas._flips(values, width << e, total), width, variants)
    bits = map("1".__eq__, reversed(format(hits, f"0{width}b")))
    return Relation(g, n, compress(product(range(1, n + 1), repeat=len(verts)), bits))


def _strict_tree_parts(t: jointrees.JoinTree):
    if t.is_leaf:
        raise DomainError("expected an internal node of a strict join tree")
    return t.left, t.right


def _plain_minterms(n: int) -> Callable[[object, PathGraph], Relation]:
    """Minterm relation (mode M) of a formula node on a graph, memoised by
    (node, graph), so one certificate scans each distinct pair once."""
    memo: dict[tuple, Relation] = {}

    def plain(node, h: PathGraph) -> Relation:
        key = (node, h)
        got = memo.get(key)
        if got is None:
            got = minterms(formula_evaluator(node), h, "M", n)
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
    return _restricted(_plain_minterms(n), fdm, t, n)[0]


def _restricted(
    plain: Callable, fdm: formulas.DeMorgan, t: jointrees.JoinTree, n: int
) -> tuple[Relation, int]:
    """The walk behind :func:`restricted_minterms` and
    :func:`chi_decomposition_cost`, over a strict tree: the tree-shaped
    minterm subset and its certified covering cost, memoised by (subformula,
    subtree).  The cost sums at gates and adds, at a conjunction, the larger
    cost across the tree split."""
    memo: dict[tuple, tuple[Relation, int]] = {}

    def rec(node, tree: jointrees.JoinTree) -> tuple[Relation, int]:
        key = (node, tree)
        got = memo.get(key)
        if got is not None:
            return got
        h = tree.graph
        if h.norm <= 1:
            rel = plain(node, h)
            out = rel, 1 if rel.tuples else 0
        elif node.op not in ("and", "or"):
            out = Relation.empty(h, n), 0
        else:
            (left, left_cost), (right, right_cost) = rec(node.left, tree), rec(node.right, tree)
            parts = left.tuples | right.tuples
            cost = left_cost + right_cost
            if node.op == "and":
                t1, t2 = _strict_tree_parts(tree)
                (a, a_cost), (b, b_cost) = rec(node.left, t1), rec(node.right, t2)
                parts |= join(a, b).tuples
                cost += max(a_cost, b_cost)
            out = Relation(h, n, plain(node, h).tuples & parts), cost
        memo[key] = out
        return out

    return rec(fdm, t)


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
    plain = _plain_minterms(n)
    graphs = subgraphs_of_path(k)
    for node in jointrees._postorder(fdm):
        for h in graphs:
            if not is_pathset(plain(node, h), params):
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
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    rng = np.random.default_rng(seed)
    p = float(n) ** (-1.0 - 1.0 / (2.0 * k))
    zeta = (rng.random((k, n, n)) < p).astype(np.int8)
    xi = np.stack([induced_subperm(zeta[i]) for i in range(k)])
    return RestrictionSample(zeta, xi, seed)


def _minterm_count_bmm_restricted(xi: np.ndarray, n: int, k: int) -> int:
    """|M_{Path_k}(bmm^(union Xi))| by scanning all alpha and testing each
    single-edge deletion via bitmask reachability."""
    rows = [[0] * (n + 1) for _ in range(k + 1)]  # rows[i][a] = bitmask of b's
    for i in range(1, k + 1):
        for a in range(1, n + 1):
            mask = 0
            for b in range(1, n + 1):
                if xi[i - 1, a - 1, b - 1]:
                    mask |= 1 << b
            rows[i][a] = mask

    def reaches(alpha: tuple[int, ...], skip: int) -> bool:
        reach = 1 << 1  # start at index 1
        for i in range(1, k + 1):
            nxt = 0
            r = reach
            while r:
                low = r & -r
                r ^= low
                nxt |= rows[i][low.bit_length() - 1]
            if i != skip and (reach >> alpha[i - 1]) & 1:
                nxt |= 1 << alpha[i]
            reach = nxt
            if not reach:
                return False
        return bool((reach >> 1) & 1)

    count = 0
    for alpha in product(range(1, n + 1), repeat=k + 1):
        if not reaches(alpha, 0):
            continue
        if all(not reaches(alpha, i) for i in range(1, k + 1)):
            count += 1
    return count


def montecarlo_mpath2(
    n: int,
    k: int,
    trials: int,
    seed: int,
    f: Evaluator | None = None,
) -> dict:
    """Fraction of restriction samples for which the restricted minterm
    relation keeps density at least 1/(2 n^2)."""
    if n ** (k + 1) * (k + 1) * trials > MONTECARLO_BUDGET:
        raise ResourceLimitError("minterm scans exceed the Monte Carlo budget")
    threshold = Fraction(1, 2 * n * n)
    denom = n ** (k + 1)
    hits = 0
    rows = []
    for i in range(trials):
        sample = sample_xi(n, k, seed + i)
        if f is None:
            count = _minterm_count_bmm_restricted(sample.xi, n, k)
        else:
            xi_edges = sample.xi_edges()
            restricted: Evaluator = lambda column, full: f(
                lambda var: full if var in xi_edges else column(var), full
            )
            count = len(minterms(restricted, full_path(k), "M", n, MONTECARLO_BUDGET).tuples)
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
    if k > EPS1_K_LIMIT or t > EPS1_T_LIMIT:
        raise ResourceLimitError(f"limits are k <= {EPS1_K_LIMIT}, t <= {EPS1_T_LIMIT}")
    if p is None:
        probs = np.full(k, 1.0 / k)
    else:
        probs = np.asarray(p, dtype=float)
        if len(probs) != k or abs(probs.sum() - 1.0) > 1e-9 or (probs <= 0).any():
            raise InvalidParameterError("p must be a positive length-k distribution")
    rng = np.random.default_rng(seed)

    intern: dict = {}
    graph_mask: list[int] = []
    combine: dict[tuple[int, int], int] = {}

    def leaf_id(edge: int) -> int:
        key = ("leaf", 1 << (edge - 1))
        if key not in intern:
            intern[key] = len(intern)
            graph_mask.append(1 << (edge - 1))
        return intern[key]

    def node_id(a: int, b: int) -> int:
        got = combine.get((a, b))
        if got is not None:
            return got
        mask = graph_mask[a] | graph_mask[b]
        if graph_mask[a] == mask:
            out = a
        elif graph_mask[b] == mask:
            out = b
        else:
            key = ("node", a, b)
            if key not in intern:
                intern[key] = len(intern)
                graph_mask.append(mask)
            out = intern[key]
        combine[(a, b)] = out
        return out

    # intern the target by the same rules; it is strict, so no node collapses
    def intern_strict(tree: jointrees.JoinTree) -> int:
        if tree.is_leaf:
            return leaf_id(next(iter(tree.graph.edges())))
        return node_id(intern_strict(tree.left), intern_strict(tree.right))

    target = intern_strict(
        jointrees.sem([jointrees.leaf(from_edges([i])) for i in range(1, k + 1)])
    )

    leaf_ids = np.array([leaf_id(i) for i in range(1, k + 1)], dtype=np.int64)
    draws = rng.choice(k, size=(trials, 1 << t), p=probs)
    ids = leaf_ids[draws]
    width = 1 << t
    while width > 1:
        left = ids[:, 0:width:2]
        right = ids[:, 1:width:2]
        codes = left.astype(np.int64) * (1 << 32) + right
        uniq, inverse = np.unique(codes, return_inverse=True)
        mapped = np.array(
            [node_id(int(c >> 32), int(c & 0xFFFFFFFF)) for c in uniq], dtype=np.int64
        )
        ids = mapped[inverse].reshape(left.shape)
        width //= 2
    matches = int((ids[:, 0] == target).sum())
    return {
        "k": k,
        "t": t,
        "trials": trials,
        "seed": seed,
        "matches": matches,
        "frequency": matches / trials if trials else 0.0,
    }
