"""Unbounded fan-in and binary Boolean formulas over matrix-entry variables
or edge variables, with the block constructions for deciding the top-left
entry of a product of sub-permutation matrices.

Variable conventions: a matrix-entry variable is the triple ``(i, a, b)``
(1-based: entry (a, b) of the i-th matrix); an edge variable is the integer
``i`` for the i-th edge of the path.  Exhaustive checks run on truth tables
packed into Python big integers (bit j holds the value of input j).

A binary formula (``DeMorgan``) is a node kind of ``jointrees.BinaryTree``,
so it is interned; equality is identity.  The doubling combinator, its
depth, strictification and leaf restriction are the ``jointrees``
algorithms: this module only supplies the gate op, the truth-table value
that marks a redundant child, and the literal-to-constant relabelling.
"""

from __future__ import annotations

import random
from functools import partial, reduce
from itertools import product
from operator import or_
from typing import Callable, Literal, Sequence

from . import jointrees
from .errors import (
    ArityError,
    DomainError,
    InvalidParameterError,
    ResourceLimitError,
)
from .paths import EMPTY, PathGraph, from_edges

# resource ceilings (each raises ResourceLimitError); the two build
# ceilings are with the block constructions below
NVARS_LIMIT = 24  # variables of a matrix-variable truth table
EDGE_TABLE_LIMIT = 16  # edge variables of a binary formula's truth tables
STRICT_COUNT_BUDGET = 200_000  # formulas kept by count_strict_demorgan

# ---------------------------------------------------------------------------
# IR
# ---------------------------------------------------------------------------


class Formula:
    """Unbounded fan-in AND/OR tree over literals and constants."""

    __slots__ = ("op", "children", "var", "neg", "value")

    def __init__(self, op, children=(), var=None, neg=False, value=0):
        self.op = op
        self.children = children
        self.var = var
        self.neg = neg
        self.value = value

    def __repr__(self):
        if self.op == "const":
            return f"const({self.value})"
        if self.op == "lit":
            return f"lit({self.var}{', neg' if self.neg else ''})"
        return f"{self.op}<{len(self.children)}>"


def const(value: int) -> Formula:
    return Formula("const", value=1 if value else 0)


def lit(var, neg: bool = False) -> Formula:
    return Formula("lit", var=var, neg=neg)


def _gate(op: str, children: Sequence[Formula]) -> Formula:
    kids = []
    for c in children:
        if c.op == op:
            kids.extend(c.children)  # merge same-op gates, keeping depth tight
        else:
            kids.append(c)
    if not kids:
        raise ArityError(f"{op} gate needs at least one child")
    if len(kids) == 1:
        return kids[0]
    return Formula(op, tuple(kids))


def conj(children: Sequence[Formula]) -> Formula:
    return _gate("and", children)


def disj(children: Sequence[Formula]) -> Formula:
    return _gate("or", children)


class DeMorgan(jointrees.BinaryTree):
    """Binary AND/OR tree over the same leaves; equal formulas are one object."""

    __slots__ = ("op", "var", "neg", "value")

    def __new__(cls, op, left=None, right=None, var=None, neg=False, value=0):
        key = (cls, op, var, neg, value) if left is None else (cls, op, left, right)
        x = jointrees._NODES.get(key)
        if x is None:
            x = jointrees._new_node(cls, key, left, right, None if left is None else op)
            x.op, x.var, x.neg, x.value = op, var, neg, value
        return x

    def rebuild(self, left: "DeMorgan", right: "DeMorgan") -> "DeMorgan":
        return DeMorgan(self.op, left, right)

    @property
    def children(self) -> tuple:
        return () if self.left is None else (self.left, self.right)

    def __repr__(self):
        if self.op == "const":
            return f"dm_const({self.value})"
        if self.op == "lit":
            return f"dm_lit({self.var}{', neg' if self.neg else ''})"
        return f"dm_{self.op}"


def dm_const(value: int) -> DeMorgan:
    return DeMorgan("const", value=1 if value else 0)


def dm_lit(var, neg: bool = False) -> DeMorgan:
    return DeMorgan("lit", var=var, neg=neg)


def dm_and(left: DeMorgan, right: DeMorgan) -> DeMorgan:
    return DeMorgan("and", left, right)


def dm_or(left: DeMorgan, right: DeMorgan) -> DeMorgan:
    return DeMorgan("or", left, right)


# ---------------------------------------------------------------------------
# measures (one children-first fold over the distinct nodes)
# ---------------------------------------------------------------------------


def _measure(phi, combine, leaf_value=lambda node: 0):
    got: dict = {}
    for node in jointrees._postorder(phi):
        kids = node.children
        got[node] = combine(node, [got[c] for c in kids]) if kids else leaf_value(node)
    return got[phi]


def size(phi) -> int:
    """Number of leaves labeled by literals."""
    return _measure(phi, lambda node, vals: sum(vals), lambda node: 1 if node.op == "lit" else 0)


def depth(phi) -> int:
    return _measure(phi, lambda node, vals: 1 + max(vals))


def and_depth(phi) -> int:
    return _measure(phi, lambda node, vals: (1 if node.op == "and" else 0) + max(vals))


def fanin(phi) -> int:
    return _measure(phi, lambda node, vals: max(len(node.children), *vals))


def and_fanin(phi) -> int:
    return _measure(phi, lambda node, vals: max(len(node.children) if node.op == "and" else 0, *vals))


def is_monotone(phi) -> bool:
    return _measure(phi, lambda node, vals: all(vals), lambda node: not (node.op == "lit" and node.neg))


def and_left_depth(g: DeMorgan) -> int:
    """Left depth counting only the descents from AND gates."""
    return jointrees.left_depth(g, gates=("and",))


def variables(phi) -> set:
    return {node.var for node in jointrees._postorder(phi) if node.op == "lit"}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class _Walker:
    """Packed value of any node, memoised by node: bit j of ``column(var)`` is
    the value of the variable at point j, and ``full`` has one bit per point.
    A gate stops at the first child that decides it at every point.  Calls
    recurse through the instance, so no reference cycle outlives a walk."""

    __slots__ = ("column", "full", "memo")

    def __init__(self, column: Callable, full: int):
        self.column, self.full, self.memo = column, full, {}

    def __call__(self, node) -> int:
        got = self.memo.get(node)
        if got is not None:
            return got
        full = self.full
        if node.op == "const":
            v = full if node.value else 0
        elif node.op == "lit":
            v = self.column(node.var)
            if node.neg:
                v ^= full
        elif node.op == "and":
            v = full
            for c in node.children:
                v &= self(c)
                if not v:
                    break
        else:
            v = 0
            for c in node.children:
                v |= self(c)
                if v == full:
                    break
        self.memo[node] = v
        return v


def evaluate(phi, getval: Callable) -> int:
    """Evaluate against ``getval(var) -> 0/1``: the packed walk on one point."""
    return _Walker(getval, 1)(phi)


def matrix_env(matrices: Sequence[Sequence[Sequence[int]]]) -> Callable:
    def getval(var):
        i, a, b = var
        return 1 if matrices[i - 1][a - 1][b - 1] else 0

    return getval


# -- packed truth tables -----------------------------------------------------


def _repeat(block: int, width: int, total: int) -> int:
    """``block``, a pattern ``width`` bits wide, repeated over ``total`` bits
    (a multiple of ``width``)."""
    while width < total:
        block |= block << width
        width <<= 1
    return block & ((1 << total) - 1)


def _digit_mask(low: int, digit: int, radix: int, total: int) -> int:
    """Mask of the points j < ``total`` with (j // low) % radix == ``digit``."""
    return _repeat(((1 << low) - 1) << (digit * low), low * radix, total)


def _flips(table: int, low: int, total: int) -> int:
    """The points j < ``total`` with (j // low) % 2 == 0 where ``table`` differs
    from point j + low: nonzero iff ``table`` depends on that binary digit."""
    return (table ^ (table >> low)) & _digit_mask(low, 0, 2, total)


def var_table(index: int, nvars: int) -> int:
    """Truth table of variable ``index`` (0-based) over 2^nvars inputs."""
    return _digit_mask(1 << index, 1, 2, 1 << nvars)


def _variable_columns(varlist: Sequence) -> tuple[Callable, int]:
    """(column, full) over the 2^len(varlist) inputs; variable j is bit j of an input."""
    nv = len(varlist)
    tables = {v: var_table(j, nv) for j, v in enumerate(varlist)}

    def column(var) -> int:
        got = tables.get(var)
        if got is None:
            raise DomainError(f"variable {var!r} is not in the variable order")
        return got

    return column, (1 << (1 << nv)) - 1


def _check_nvars(varlist: Sequence) -> None:
    if len(varlist) > NVARS_LIMIT:
        raise ResourceLimitError(f"{len(varlist)} variables exceeds truth-table limit {NVARS_LIMIT}")


def truth_table(phi, varlist: Sequence) -> int:
    """Packed truth table of the formula over the given variable order."""
    _check_nvars(varlist)
    return _Walker(*_variable_columns(varlist))(phi)


# ---------------------------------------------------------------------------
# brute-force matrix oracles
# ---------------------------------------------------------------------------


def is_subperm_matrix(matrix: Sequence[Sequence[int]]) -> bool:
    n = len(matrix)
    for row in matrix:
        if sum(1 for x in row if x) > 1:
            return False
    for b in range(n):
        if sum(1 for a in range(n) if matrix[a][b]) > 1:
            return False
    return True


def bmm_table(column: Callable, full: int, n: int, k: int, a0: int = 1, ak: int = 1) -> int:
    """Packed entry (a0, ak) of the Boolean product of k n-by-n matrices, by
    reachability: bit j of ``column((i, a, b))`` is entry (a, b) of matrix i
    at point j, and ``full`` has one bit per point."""
    reach = {a0: full}
    for i in range(1, k + 1):
        reach = {
            b: reduce(or_, (v & column((i, a, b)) for a, v in reach.items() if v), 0)
            for b in range(1, n + 1)
        }
    return reach.get(ak, 0)


def oracle_bmm(matrices, a0: int = 1, ak: int = 1) -> int:
    """Entry (a0, ak) of the Boolean matrix product, by reachability."""
    return bmm_table(matrix_env(matrices), 1, len(matrices[0]), len(matrices), a0, ak)


def oracle_subpmm(matrices, a0: int = 1, ak: int = 1) -> int:
    for mat in matrices:
        if not is_subperm_matrix(mat):
            raise DomainError("input is not a tuple of sub-permutation matrices")
    return oracle_bmm(matrices, a0, ak)


def random_subperm_matrix(n: int, rng: random.Random):
    size = rng.randint(0, n)
    rows = rng.sample(range(n), size)
    cols = rng.sample(range(n), size)
    entries = set(zip(rows, cols))
    return tuple(
        tuple(1 if (a, b) in entries else 0 for b in range(n)) for a in range(n)
    )


# ---------------------------------------------------------------------------
# the block constructions
# ---------------------------------------------------------------------------

Kind = Literal["D", "C", "SigmaI", "SigmaII", "PiII"]

_BUILD_NODE_LIMIT = 4_000_000
# the construction recurses once per level; below the node budget only
# ell = 1 (k = 1) can ask for more levels than this
_BUILD_DEPTH_LIMIT = 64


def _walks(n: int, parts: int, a0: int, ak: int):
    """Index walks a0 -> ... -> ak over ``parts`` consecutive blocks."""
    for mids in product(range(1, n + 1), repeat=parts - 1):
        yield (a0, *mids, ak)


def _sigma(n: int, cuts: Sequence[int], a0: int, ak: int, child: Callable) -> Formula:
    """OR over the index walks of the AND of ``child(lo, hi, a, b)`` on each
    block (lo, hi]; correct for arbitrary Boolean matrices."""
    blocks = list(zip(cuts, cuts[1:]))
    return disj(
        [
            conj([child(lo, hi, w[i], w[i + 1]) for i, (lo, hi) in enumerate(blocks)])
            for w in _walks(n, len(blocks), a0, ak)
        ]
    )


def _pi(n: int, cuts: Sequence[int], a0: int, ak: int, child: Callable) -> Formula:
    """AND over the index walks of 'some block leaves the walk'; correct on
    sub-permutation matrices (at most one 1 per row and per column)."""
    blocks = list(zip(cuts, cuts[1:]))
    clauses = []
    for w in _walks(n, len(blocks), a0, ak):
        parts = [
            child(lo, hi, w[i], b)
            for i, (lo, hi) in enumerate(blocks[:-1])
            for b in range(1, n + 1)
            if b != w[i + 1]
        ]
        parts.append(child(*blocks[-1], w[-2], ak))
        clauses.append(disj(parts))
    return conj(clauses)


# recursive kind -> (its combinator, the kind of its blocks); D is SigmaI and
# C is PiII at d = 1, over single matrices
_KINDS = {
    "SigmaI": (_sigma, "SigmaI"),
    "SigmaII": (_sigma, "PiII"),
    "PiII": (_pi, "SigmaII"),
}
_FLAT = {"D": "SigmaI", "C": "PiII"}


def _matrix_lit(lits: dict, lo: int, hi: int, a: int, b: int) -> Formula:
    """The literal of entry (a, b) of matrix hi, one object per variable in
    ``lits``, the table of one build."""
    var = (hi, a, b)
    got = lits.get(var)
    if got is None:
        got = lits[var] = lit(var)
    return got


def _leaf_count(kind: str, n: int, ell: int, d: int) -> int:
    """Literal leaves of ``_block(kind, n, ell, d, ...)``: each level has
    n^(ell-1) walks, with ell children per walk under sigma and
    (ell-1)(n-1) + 1 under pi."""
    leaves = 1
    for _ in range(d):
        combine, kind = _KINDS[kind]
        per_walk = ell if combine is _sigma else (ell - 1) * (n - 1) + 1
        leaves *= n ** (ell - 1) * per_walk
    return leaves


def _block(
    kind: str, n: int, ell: int, d: int, lits: dict, lo: int, hi: int, a0: int, ak: int
) -> Formula:
    """``kind`` over matrices lo+1..hi, split into ``ell`` blocks down to
    single matrices at d = 1; ``lits`` holds the build's literals."""
    combine, inner = _KINDS[kind]
    cuts = range(lo, hi + 1, (hi - lo) // ell)
    child = partial(_matrix_lit, lits) if d == 1 else partial(_block, inner, n, ell, d - 1, lits)
    return combine(n, cuts, a0, ak, child)


def build_matrix_formula(
    kind: Kind, n: int, k: int, d: int = 1, a0: int = 1, ak: int = 1
) -> Formula:
    """Monotone formulas computing entry (a0, ak) of a k-fold matrix product:
    ``D``/``C`` are the flat disjunctive/conjunctive forms (d = 1); the three
    recursive kinds split the product into k^(1/d) consecutive blocks."""
    if n < 1 or k < 1 or not (1 <= a0 <= n and 1 <= ak <= n):
        raise InvalidParameterError("need n, k >= 1 and endpoint indices in [n]")
    if kind in _FLAT:
        if d != 1:
            raise InvalidParameterError(f"kind {kind} is the d=1 construction")
        kind, ell = _FLAT[kind], k
    elif kind not in _KINDS:
        raise InvalidParameterError(f"unknown kind {kind!r}")
    elif d < 1:
        raise InvalidParameterError("d must be >= 1")
    else:
        ell = jointrees._integer_root(k, d)
        if ell is None:
            raise InvalidParameterError(f"k^(1/d) = {k}^(1/{d}) is not an integer")
    if d > _BUILD_DEPTH_LIMIT:
        raise ResourceLimitError(f"d={d} levels exceed the build depth limit {_BUILD_DEPTH_LIMIT}")
    leaves = _leaf_count(kind, n, ell, d)
    if leaves > _BUILD_NODE_LIMIT:
        raise ResourceLimitError(
            f"{leaves} leaves for n={n}, k={k}, d={d} exceed the node budget {_BUILD_NODE_LIMIT}"
        )
    return _block(kind, n, ell, d, {}, 0, k, a0, ak)


# ---------------------------------------------------------------------------
# exhaustive / sampled correctness checks
# ---------------------------------------------------------------------------


def matrix_varlist(n: int, k: int) -> list[tuple[int, int, int]]:
    return [(i, a, b) for i in range(1, k + 1) for a in range(1, n + 1) for b in range(1, n + 1)]


def oracle_table(n: int, k: int, varlist: Sequence, a0: int = 1, ak: int = 1) -> int:
    """Packed truth table of the product entry (a0, ak) over all 2^(kn^2)
    inputs, by reachability on packed variable tables (independent of any
    formula construction)."""
    return bmm_table(*_variable_columns(varlist), n, k, a0, ak)


def _valid_mask(column: Callable, full: int, n: int, k: int, rows_only: bool) -> int:
    """Packed mask of the inputs where every matrix has at most one 1 per row
    (and per column unless ``rows_only``)."""
    mask = full
    for i in range(1, k + 1):
        for a in range(1, n + 1):
            for b1 in range(1, n + 1):
                for b2 in range(b1 + 1, n + 1):
                    mask &= full ^ (column((i, a, b1)) & column((i, a, b2)))
        if not rows_only:
            for b in range(1, n + 1):
                for a1 in range(1, n + 1):
                    for a2 in range(a1 + 1, n + 1):
                        mask &= full ^ (column((i, a1, b)) & column((i, a2, b)))
    return mask


def _decode_input(index: int, n: int, k: int, varlist: Sequence):
    matrices = [[[0] * n for _ in range(n)] for _ in range(k)]
    for pos, (i, a, b) in enumerate(varlist):
        matrices[i - 1][a - 1][b - 1] = (index >> pos) & 1
    return tuple(tuple(tuple(row) for row in mat) for mat in matrices)


def check_formula_correct(
    phi: Formula,
    n: int,
    k: int,
    mode: str = "exhaustive",
    input_class: Literal["any", "rows", "subperm"] = "subperm",
    a0: int = 1,
    ak: int = 1,
    count: int = 1000,
    seed: int = 0,
) -> dict:
    """Compare the formula against the brute-force product oracle.

    Exhaustive mode walks all 2^(kn^2) inputs via packed truth tables (the
    oracle table is built by reachability, independently of the formula);
    sample mode draws random tuples from the input class.
    """
    if mode == "exhaustive":
        varlist = matrix_varlist(n, k)
        _check_nvars(varlist)
        # one set of variable columns serves the formula, the oracle and the mask
        column, full = _variable_columns(varlist)
        f_table = _Walker(column, full)(phi)
        o_table = bmm_table(column, full, n, k, a0, ak)
        if input_class == "any":
            mask = full
        else:
            mask = _valid_mask(column, full, n, k, rows_only=input_class == "rows")
        diff = (f_table ^ o_table) & mask
        checked = mask.bit_count()
        if diff:
            idx = (diff & -diff).bit_length() - 1
            bad = _decode_input(idx, n, k, varlist)
            return {
                "ok": False,
                "checked": checked,
                "counterexample": {
                    "matrices": bad,
                    "formula": evaluate(phi, matrix_env(bad)),
                    "oracle": oracle_bmm(bad, a0, ak),
                },
            }
        return {"ok": True, "checked": checked}
    if mode != "sample":
        raise InvalidParameterError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    for trial in range(count):
        if input_class == "subperm":
            mats = tuple(random_subperm_matrix(n, rng) for _ in range(k))
        elif input_class == "rows":
            # one column per row, or none when the draw is n
            mats = tuple(
                tuple(
                    tuple(1 if b == col else 0 for b in range(n))
                    for col in (rng.randrange(n + 1) for _ in range(n))
                )
                for _ in range(k)
            )
        else:
            mats = tuple(
                tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n))
                for _ in range(k)
            )
        got = evaluate(phi, matrix_env(mats))
        want = oracle_bmm(mats, a0, ak)
        if got != want:
            return {
                "ok": False,
                "checked": trial + 1,
                "counterexample": {"matrices": mats, "formula": got, "oracle": want},
            }
    return {"ok": True, "checked": count}


# ---------------------------------------------------------------------------
# DeMorgan conversions
# ---------------------------------------------------------------------------


def _leaf_to_dm(node) -> DeMorgan:
    if node.op == "const":
        return dm_const(node.value)
    return dm_lit(node.var, node.neg)


def _fold_right(op: str, parts: list[DeMorgan]) -> DeMorgan:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = DeMorgan(op, p, out)
    return out


def _fold_balanced(op: str, parts: list[DeMorgan]) -> DeMorgan:
    if len(parts) == 1:
        return parts[0]
    mid = (len(parts) + 1) // 2
    return DeMorgan(op, _fold_balanced(op, parts[:mid]), _fold_balanced(op, parts[mid:]))


def convert(phi: Formula, style: Literal["right_deep", "balanced"]) -> DeMorgan:
    """Replace each fan-in-m gate by m-1 binary gates, either as a right-deep
    chain or as a left-heavy balanced tree."""
    fold = _fold_right if style == "right_deep" else _fold_balanced
    got: dict = {}
    for node in jointrees._postorder(phi):
        kids = node.children
        got[node] = fold(node.op, [got[c] for c in kids]) if kids else _leaf_to_dm(node)
    return got[phi]


def _picks(rng: random.Random, m: int, count: int) -> list[int]:
    """``[rng.randrange(m) for _ in range(count)]``, drawn the way
    ``randrange`` draws (bit_length(m) random bits, redrawn while >= m), so
    the stream stays the same without its per-call argument checks."""
    bits = m.bit_length()
    draw = rng.getrandbits
    out = []
    for _ in range(count):
        r = draw(bits)
        while r >= m:
            r = draw(bits)
        out.append(r)
    return out


def randomized_conversion(phi: Formula, t: int, seed: int) -> DeMorgan:
    """Sampled balanced conversion: each fan-in-m gate becomes a balanced
    tree of t*m - 1 binary gates over t*m uniformly chosen children, children
    sampled once each and reused; deterministic under the seed."""
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    rng = random.Random(seed)

    def rec(node: Formula) -> DeMorgan:
        if node.op in ("and", "or"):
            kids = [rec(c) for c in node.children]
            m = len(kids)
            return _fold_balanced(node.op, [kids[i] for i in _picks(rng, m, t * m)])
        return _leaf_to_dm(node)

    return rec(phi)


def randomized_conversion_value(phi: Formula, t: int, seed: int, getval: Callable) -> int:
    """Value of the sampled conversion on one input, without materializing
    the sample; consumes the generator stream exactly like
    :func:`randomized_conversion`, so equal seeds agree."""
    rng = random.Random(seed)

    def rec(node: Formula) -> int:
        if node.op in ("and", "or"):
            vals = [rec(c) for c in node.children]
            m = len(vals)
            chosen = [vals[i] for i in _picks(rng, m, t * m)]
            return min(chosen) if node.op == "and" else max(chosen)
        if node.op == "const":
            return node.value
        v = getval(node.var)
        return 1 - v if node.neg else v

    return rec(phi)


# ---------------------------------------------------------------------------
# strictness, doubling-combinator depth, support trees (edge-variable world)
# ---------------------------------------------------------------------------


def _edge_tables(k: int) -> Callable:
    """Memoized truth table of each node over the k edge variables."""
    if k > EDGE_TABLE_LIMIT:
        raise ResourceLimitError(f"{k} variables exceeds the 2^{EDGE_TABLE_LIMIT} table limit")
    return _Walker(*_variable_columns(range(1, k + 1)))


def dm_truth_table(g: DeMorgan, k: int) -> int:
    """Truth table over the k edge variables, packed into an int."""
    return _edge_tables(k)(g)


def strictify_demorgan(g: DeMorgan, k: int) -> DeMorgan:
    """Equivalent strict formula: drop any gate child computing the same
    function as the gate (checked by truth table)."""
    return jointrees.strictify(g, _edge_tables(k))


def is_strict_demorgan(g: DeMorgan, k: int) -> bool:
    return jointrees.is_strict(g, _edge_tables(k))


def sem_depth_demorgan(g: DeMorgan) -> int:
    """Minimum nesting depth of doubling-combinator applications (each of one
    gate type) expressing the formula."""
    return jointrees.sem_depth(g)


def sem_demorgan(parts: Sequence[DeMorgan], op: str) -> DeMorgan:
    """Doubling combinator over formulas with the given gate type."""
    return jointrees.sem(parts, join=partial(DeMorgan, op))


# -- support machinery --------------------------------------------------------


def support(g: DeMorgan, k: int) -> PathGraph:
    """Edges of Path_k the computed function depends on."""
    return _support(dm_truth_table(g, k), k)


def _support(table: int, k: int) -> PathGraph:
    return from_edges(i for i in range(1, k + 1) if _flips(table, 1 << (i - 1), 1 << k))


def dm_restrict(g: DeMorgan, keep: PathGraph) -> DeMorgan:
    """Syntactically send out-of-graph positive literals to 0 and negative
    literals to 1."""
    return jointrees.relabel_leaves(
        g, lambda x: dm_const(x.neg) if x.op == "lit" and not keep.has_edge(x.var) else x
    )


def _support_tree(g: DeMorgan, k: int, tables: Callable) -> jointrees.JoinTree:
    """The join tree whose leaves are the formula's dependent coordinates,
    built by the recursive restrict-children-to-support rule; one truth-table
    walk serves every node, and equal restricted subformulas are built once."""
    memo: dict = {}

    def rec(node: DeMorgan):
        got = memo.get(node)
        if got is None:
            if node.op == "const":
                got = jointrees.leaf(EMPTY)
            elif node.op == "lit":
                got = jointrees.leaf(from_edges([node.var]))
            else:
                supp = _support(tables(node), k)
                got = jointrees.node(
                    rec(dm_restrict(node.left, supp)), rec(dm_restrict(node.right, supp))
                )
            memo[node] = got
        return got

    return rec(g)


def support_tools(g: DeMorgan, k: int):
    """(support graph, restriction operator, support tree, strict support tree),
    all from one truth-table walk."""
    tables = _edge_tables(k)
    supp = _support(tables(g), k)
    stree = _support_tree(g, k, tables)
    return supp, (lambda h: dm_restrict(g, h)), stree, jointrees.strictify(stree)


# -- serialization --------------------------------------------------------------


def _leaf_sexpr(node) -> str:
    if node.op == "const":
        return f"(const {node.value})"
    var = " ".join(map(str, node.var)) if isinstance(node.var, tuple) else node.var
    return f"({'nlit' if node.neg else 'lit'} {var})"


def to_sexpr(phi) -> str:
    """Text form, e.g. ``(and (or (lit 1 2 3) ...) ...)``; matrix-entry
    variables print as three numbers, edge variables as one."""
    return jointrees._text(phi, _leaf_sexpr, lambda node: f"({node.op} ", " ")


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _node(op: str, arg, binary: bool):
    """A parsed node: ``arg`` is the value of a constant (0 or 1), the
    (variable, negated) pair of a literal, or the built children of a gate."""
    if op == "const":
        if arg not in (0, 1):
            raise ArityError(f"a constant is 0 or 1, not {arg!r}")
        return dm_const(arg) if binary else const(arg)
    if op == "lit":
        return dm_lit(*arg) if binary else lit(*arg)
    if op not in ("and", "or"):
        raise ArityError(f"unknown gate {op!r}")
    if not binary:
        return _gate(op, arg)
    if len(arg) != 2:
        raise ArityError("binary formulas need exactly two children per gate")
    return DeMorgan(op, arg[0], arg[1])


def from_sexpr(text: str, binary: bool = False):
    """Parse the text form one token at a time: ``gates`` holds the (head,
    children) of each gate still open, below one frame for the whole text."""
    tokens = _tokenize(text)
    gates: list[tuple[str, list]] = [("", [])]
    pos = 0
    while pos < len(tokens):
        if tokens[pos] == ")" and len(gates) > 1:
            head, kids = gates.pop()
            gates[-1][1].append(_node(head, kids, binary))
            pos += 1
            continue
        if tokens[pos] != "(" or pos + 1 == len(tokens):
            raise ArityError(f"expected '(' and a head at token {pos}")
        head = tokens[pos + 1]
        pos += 2
        if head not in ("const", "lit", "nlit"):
            gates.append((head, []))
            continue
        try:
            close = tokens.index(")", pos)
            nums = [int(tok) for tok in tokens[pos:close]]
        except ValueError:
            raise ArityError(f"{head} at token {pos - 2} needs integers and a ')'") from None
        if not nums or (head == "const" and len(nums) > 1):
            raise ArityError(f"{head} at token {pos - 2} has {len(nums)} arguments")
        var = tuple(nums) if len(nums) > 1 else nums[0]
        leaf = ("const", var) if head == "const" else ("lit", (var, head == "nlit"))
        gates[-1][1].append(_node(*leaf, binary))
        pos = close + 1
    if len(gates) > 1 or len(gates[0][1]) != 1:
        raise ArityError("the text is not one formula with balanced parentheses")
    return gates[0][1][0]


def to_json_dict(phi) -> dict:
    out: dict = {}
    for node in jointrees._postorder(phi):
        if node.op == "const":
            out[node] = {"const": node.value}
        elif node.op == "lit":
            var = list(node.var) if isinstance(node.var, tuple) else node.var
            out[node] = {"lit": var, "neg": node.neg}
        else:
            out[node] = {node.op: [out[c] for c in node.children]}
    return out[phi]


def from_json_dict(data, binary: bool = False):
    """Parse the JSON mirror children-first on an explicit stack: ``gates``
    holds the (head, children) of each gate being built, below one frame for
    the whole input, and ``join`` marks where the innermost one is done."""
    join = object()
    gates: list[tuple[str, list]] = [("", [])]
    stack = [data]
    while stack:
        item = stack.pop()
        if item is join:
            head, kids = gates.pop()
            gates[-1][1].append(_node(head, kids, binary))
            continue
        if not isinstance(item, dict):
            raise ArityError(f"a formula node is a JSON object, not {type(item).__name__}")
        head = "const" if "const" in item else "lit" if "lit" in item else next(iter(item), None)
        keys = {"lit", "neg"} if head == "lit" else {head}
        if head is None or not keys.issuperset(item):
            raise ArityError(f"a formula node has const, lit (and neg) or one gate, not {sorted(item)}")
        if head == "const":
            gates[-1][1].append(_node("const", item["const"], binary))
        elif head == "lit":
            var = tuple(item["lit"]) if isinstance(item["lit"], list) else item["lit"]
            gates[-1][1].append(_node("lit", (var, item.get("neg", False)), binary))
        elif isinstance(item[head], (list, tuple)):
            gates.append((head, []))
            stack.append(join)
            stack.extend(reversed(item[head]))
        else:
            raise ArityError(f"the children of {head!r} are a JSON list")
    return gates[0][1][0]


# -- exhaustive strict-formula count ------------------------------------------


def count_strict_demorgan(k: int, d: int, return_formulas: bool = False):
    """Number of distinct strict k-variable formulas of doubling-combinator
    depth at most d, by exhaustive generation with strictness pruning."""
    if k < 1 or d < 0:
        raise InvalidParameterError("need k >= 1 and d >= 0")
    base: list[DeMorgan] = [dm_const(0), dm_const(1)]
    for i in range(1, k + 1):
        base.append(dm_lit(i))
        base.append(dm_lit(i, neg=True))
    level = dict.fromkeys(base)
    for _ in range(d):
        new = dict(level)
        pool = list(level)

        def extend(seq: tuple, op: str):
            formula = sem_demorgan(seq, op)
            if not is_strict_demorgan(formula, k):
                return
            if formula not in new:
                new[formula] = None
                if len(new) > STRICT_COUNT_BUDGET:
                    raise ResourceLimitError(f"strict enumeration exceeded {STRICT_COUNT_BUDGET}")
            for g in pool:
                extend(seq + (g,), op)

        for op in ("and", "or"):
            for g1 in pool:
                for g2 in pool:
                    extend((g1, g2), op)
        level = new
    if return_formulas:
        return len(level), list(level)
    return len(level)
