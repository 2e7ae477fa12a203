"""Reference computations the benchmark checks pathlab's answers against.

Everything here is written from the definitions, on plain tuples, and calls
no pathlab function: a verdict is only trusted when pathlab and this module
agree.  Graphs are tuples of ``(s, t)`` intervals, read from a
``PathGraph.intervals`` attribute; join trees and formulas are walked through
their public data attributes.  The routines are exhaustive and meant for the
small instances the benchmark draws for them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

# ---------------------------------------------------------------------------
# graphs as interval tuples
# ---------------------------------------------------------------------------


def touches(iv, ivs) -> bool:
    """Whether interval ``iv`` shares a vertex with any interval of ``ivs``."""
    s, t = iv
    return any(s <= t2 and s2 <= t for s2, t2 in ivs)


def measures(seq) -> tuple[int, int, int]:
    """(vec_delta, vec_lambda, vec_lambda_delta) of a sequence of interval
    tuples: each graph keeps the components that touch nothing placed
    before it."""
    acc: list = []
    vd = vl = vld = 0
    for g in seq:
        kept = [iv for iv in g if not touches(iv, acc)]
        d = len(kept)
        lam = max((t - s for s, t in kept), default=0)
        vd += d
        vl += lam
        vld += lam * d
        acc.extend(g)
    return vd, vl, vld


def ordering_optimum(members) -> int:
    """Max over all orderings of the distinct nonempty members of the
    surviving-component count, by a plain subset DP over Python integers."""
    members = sorted({tuple(g) for g in members if g})
    m = len(members)
    conflict = []
    for j, g in enumerate(members):
        conflict.append(
            [
                sum(1 << i for i, other in enumerate(members) if i != j and touches(iv, other))
                for iv in g
            ]
        )
    dp = [0] * (1 << m)
    for s in range(1, 1 << m):
        best = 0
        for j in range(m):
            if s >> j & 1:
                prev = s ^ (1 << j)
                v = dp[prev] + sum(1 for c in conflict[j] if not prev & c)
                if v > best:
                    best = v
        dp[s] = best
    return dp[-1]


def branch_coverings(tree) -> set[frozenset]:
    """Per root-to-leaf branch: the sibling graphs along it plus the leaf."""
    out: set[frozenset] = set()
    stack = [(tree, ())]
    while stack:
        node, sibs = stack.pop()
        if node.left is None:
            out.add(frozenset(sibs + (node.graph.intervals,)))
        else:
            stack.append((node.left, sibs + (node.right.graph.intervals,)))
            stack.append((node.right, sibs + (node.left.graph.intervals,)))
    return out


def psi(tree, memo: dict | None = None) -> int:
    """Psi-size of a join tree: the best ordering value over its branch
    coverings.  ``memo`` caches optima per covering across calls."""
    memo = {} if memo is None else memo
    best = 0
    for cov in branch_coverings(tree):
        got = memo.get(cov)
        if got is None:
            got = memo[cov] = ordering_optimum(cov)
        best = max(best, got)
    return best


def shift_perm(m: int, index_set) -> tuple[int, ...]:
    """sigma_I as a tuple of images: sigma(i_{h-1} + 1) = i_h, else j - 1."""
    perm = [j - 1 for j in range(1, m + 1)]
    prev = 0
    for i in sorted(index_set):
        perm[prev] = i
        prev = i
    return tuple(perm)


def apply(perm, seq) -> list:
    """Reorder ``seq`` by 1-based images: position p gets seq[perm[p] - 1]."""
    return [seq[p - 1] for p in perm]


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def vertices(ivs) -> tuple[int, ...]:
    return tuple(v for s, t in ivs for v in range(s, t + 1))


def join(verts_a, tuples_a, verts_b, tuples_b) -> set[tuple]:
    """Natural join on shared vertices, over the sorted union of vertices."""
    verts = sorted(set(verts_a) | set(verts_b))
    out = set()
    for ta in tuples_a:
        amap = dict(zip(verts_a, ta))
        for tb in tuples_b:
            if all(amap.get(v, x) == x for v, x in zip(verts_b, tb)):
                merged = dict(amap)
                merged.update(zip(verts_b, tb))
                out.add(tuple(merged[v] for v in verts))
    return out


def is_pathset(ivs, n: int, tuples, k: int) -> bool:
    """mu(A | F) <= n^(-(k-1)/k * delta(G - F)) for every edge subset F of
    Path_k, compared exactly as k-th powers of integers."""
    verts = vertices(ivs)
    for bits in range(1 << k):
        f = [(i - 1, i) for i in range(1, k + 1) if bits >> (i - 1) & 1]
        fverts = set(vertices(f))
        d = sum(1 for iv in ivs if not touches(iv, f))
        shared = [i for i, v in enumerate(verts) if v in fverts]
        free = len(verts) - len(shared)
        counts: dict[tuple, int] = {}
        for tup in tuples:
            key = tuple(tup[i] for i in shared)
            counts[key] = counts.get(key, 0) + 1
        c = max(counts.values(), default=0)
        if c**k * n ** ((k - 1) * d) > n ** (k * free):
            return False
    return True


def restricted_bmm_minterm_count(xi: np.ndarray) -> int:
    """Number of alpha in [n]^(k+1) whose blow-up path, together with the
    fixed edges of ``xi``, makes entry (1, 1) of the product 1 while no
    single path edge can be dropped."""
    k, n, _ = xi.shape
    fixed = {(i + 1, a + 1, b + 1) for i in range(k) for a in range(n) for b in range(n) if xi[i, a, b]}

    def reach(edges) -> bool:
        cur = {1}
        for i in range(1, k + 1):
            cur = {b for (j, a, b) in edges if j == i and a in cur}
        return 1 in cur

    count = 0
    for alpha in product(range(1, n + 1), repeat=k + 1):
        path = [(i, alpha[i - 1], alpha[i]) for i in range(1, k + 1)]
        edges = fixed | set(path)
        if reach(edges) and all(not reach(edges - {e} if e not in fixed else edges) for e in path):
            count += 1
    return count


def eps1_matches(k: int, t: int, trials: int, seed: int) -> int:
    """Replays the leaf draws of ``montecarlo_eps1`` and counts the random
    depth-t trees whose strictification is the doubling-combinator tree of
    the k single edges."""
    rng = np.random.default_rng(seed)
    draws = rng.choice(k, size=(trials, 1 << t), p=np.full(k, 1.0 / k))

    def sem(args):
        if len(args) == 1:
            return args[0]
        return strict_node(sem(args[:-1]), sem(args[:-2] + (args[-1],)))

    def strict_node(a, b):
        mask = a[0] | b[0]
        if a[0] == mask:
            return a
        if b[0] == mask:
            return b
        return (mask, a, b)

    leaves = tuple((1 << e, e) for e in range(k))
    target = sem(leaves)
    matches = 0
    for row in draws:
        level = [leaves[int(x)] for x in row]
        while len(level) > 1:
            level = [strict_node(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        matches += level[0] == target
    return matches


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


def evaluate(phi, env) -> int:
    """Value of a fan-in or binary AND/OR formula; ``env(var) -> 0/1``.
    Shared subformulas are evaluated once."""
    memo: dict[int, int] = {}

    def rec(node) -> int:
        got = memo.get(id(node))
        if got is None:
            if node.op == "const":
                got = node.value
            elif node.op == "lit":
                got = 1 - env(node.var) if node.neg else env(node.var)
            else:
                kids = node.children if hasattr(node, "children") else (node.left, node.right)
                vals = [rec(c) for c in kids]
                got = min(vals) if node.op == "and" else max(vals)
            memo[id(node)] = got
        return got

    return rec(phi)


def product_entry(matrices, a0: int = 1, ak: int = 1) -> int:
    """Entry (a0, ak) of the Boolean product of 0/1 matrices (1-based)."""
    reach = {a0}
    for mat in matrices:
        reach = {b + 1 for a in reach for b, x in enumerate(mat[a - 1]) if x}
    return 1 if ak in reach else 0


def matrices_of(index: int, n: int, k: int):
    """Input number ``index`` over the variable order (i, a, b), row-major."""
    bits = iter(range(k * n * n))
    return tuple(
        tuple(tuple((index >> next(bits)) & 1 for _b in range(n)) for _a in range(n))
        for _i in range(k)
    )


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def is_dyck(seq) -> bool:
    total = 0
    for r, a in enumerate(seq, start=1):
        total += a
        if a < 0 or total > r:
            return False
    return True


def gap(seq, k: int) -> Fraction:
    """Largest distance from a point of [0, k] to the nearest midpoint of a
    surviving component of the covering sequence."""
    acc: list = []
    mids = []
    for g in seq:
        mids += [Fraction(s + t, 2) for s, t in g if not touches((s, t), acc)]
        acc.extend(g)
    mids.sort()
    best = max(mids[0], k - mids[-1])
    for p, q in zip(mids, mids[1:]):
        best = max(best, (q - p) / 2)
    return best
