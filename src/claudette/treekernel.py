"""SubSet Tree Kernel over constituency parse trees.

The kernel counts shared tree fragments that terminate either at leaves or at
non-terminal symbols, with a decay ``lam`` per expanded node:

    K(t1, t2) = sum over node pairs (n1, n2) of delta(n1, n2)

    delta = 0                       if production(n1) != production(n2)
    delta = lam                     if both nodes are preterminals
    delta = lam * prod_i (1 + delta(child_i(n1), child_i(n2)))   otherwise

Productions include the ordered child labels, so preterminals match only on
identical words, and nodes with one production have as many children.

**The node table.**  :class:`CompiledTrees` compiles its trees once into one
flat table of internal nodes, in preorder, tree after tree.  For each node it
stores its interned production id, its tree, its height (0 when every child
is a leaf) and its children in CSR form, so memory stays linear in the node
count however wide a node is.  The postings are the node ids sorted by
production, then by id: the nodes of one production in a contiguous range
of trees are one slice of them.

**One pass per block.**  :func:`_kernel_block` scores a block of query trees,
each against its own contiguous range of compiled trees, in one numpy pass.
As in the Fast Tree Kernel (Moschitti 2006, "Making tree kernels practical
for natural language learning", EACL), only node pairs with equal
productions are visited: one postings slice per query node gives them all in
one step.  They are laid out by the query node's height, so each level is one
contiguous slice, computed after the levels below it.  A query node's pairs
are consecutive and in posting order, so the delta of a child pair ``(c,
d)`` is found by arithmetic, with no search: at ``c``'s pair start plus
``d``'s posting rank minus the first rank of ``c``'s slice.  Each delta
multiplies its ``1 + delta`` factors in child order, and a skipped factor
``1 + 0`` is exact, so every delta is the recursive definition's bit for bit
and does not depend on which tree is the query.  Scoring a tree against a
whole forest at once follows Aiolli, Da San Martino, Sperduti and Moschitti
(2006, "Fast on-line kernel learning for trees", ICDM).

**The exact sum.**  A tree pair's kernel is the correctly rounded sum of its
deltas: ``np.bincount`` gives it where the pair has at most two deltas,
since ``0.0 + a + b`` is one correctly rounded add, and ``math.fsum`` gives
it for the rest.  It does not depend on the order of the pairs, so ``K(a, b)
== K(b, a)`` bit for bit, the Gram is the same bits however it is cut into
blocks, and a kernel row computed for a tree equals the corpus Gram's entries
for it, so LOO evaluation reads its held-out rows from the Gram.

:func:`gram_matrix` cuts the upper triangle into blocks of query trees under
a fixed pair budget, fills them in forked worker processes and reads the
self-kernels off its diagonal: one that overflows, or whose square is 0 or
overflows when normalizing, raises ``DegenerateTree``.
:func:`fragment_kernel_rows` enumerates fragments, an independent
exponential-time route that ``kernel-selftest`` checks a Gram against.
"""

from __future__ import annotations

import math
import mmap
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .trees import ParseTree
from .workers import fork_map

#: Default decay; common practice for this kernel family.
DEFAULT_LAMBDA = 0.4

#: Node pairs plus tree pairs per block (a tree over it is a block of its
#: own).  A block's arrays are a few of that length, so they stay small beside
#: the Gram's own pages, while numpy's fixed cost per call stays small beside
#: the work.
BLOCK_PAIRS = 8192


class InvalidLambda(ValueError):
    pass


class DegenerateTree(ValueError):
    """A tree whose self-kernel is zero (no internal nodes), or whose square
    is 0 or overflows, cannot be normalized; one whose self-kernel overflows
    cannot be used raw either."""


class TooLarge(ValueError):
    """Fragment enumeration is exponential; refuse trees above the node bound."""


def _check_lambda(lam: float) -> None:
    if not 0.0 < lam <= 1.0:
        raise InvalidLambda(f"lambda must be in (0, 1], got {lam}")


class _Nodes(NamedTuple):
    """The internal nodes of a list of trees, in preorder, tree after tree."""

    production: np.ndarray  # interned production id
    tree: np.ndarray  # index of the node's tree
    height: np.ndarray  # 0 when every child is a leaf, else 1 + the tallest internal child's
    child_ptr: np.ndarray  # node i's children are children[child_ptr[i]:child_ptr[i + 1]]
    children: np.ndarray  # node id of each child, -1 for a leaf
    tree_ptr: np.ndarray  # tree k's nodes are tree_ptr[k]:tree_ptr[k + 1]
    postings: np.ndarray  # node ids sorted by production, then by id
    rank: np.ndarray  # each node's position in postings
    keys: np.ndarray  # production * node count + node id along postings, ascending


def _compile(trees: Sequence[ParseTree], table: dict) -> _Nodes:
    """The node table of ``trees``, interning their productions in ``table``.
    Preorder puts every child after its parent, so heights are filled in
    reverse, children first."""
    production: list[int] = []
    parent: list[int] = []
    children: list[int] = []
    child_ptr, tree_ptr = [0], [0]
    for tree in trees:
        stack = [(tree, -1, -1)] if tree.children else []  # (node, its parent, its slot in children)
        while stack:
            node, up, slot = stack.pop()
            i = len(production)
            if up >= 0:
                children[slot] = i
            parent.append(up)
            kids = node.children
            production.append(table.setdefault((node.label, tuple([c.label for c in kids])), len(table)))
            base = len(children)
            children.extend([-1] * len(kids))
            child_ptr.append(len(children))
            stack.extend([(kids[k], i, base + k) for k in range(len(kids) - 1, -1, -1) if kids[k].children])
        tree_ptr.append(len(production))
    height = [0] * len(production)
    for i in range(len(production) - 1, -1, -1):
        up = parent[i]
        if up >= 0 and height[up] <= height[i]:
            height[up] = height[i] + 1
    prods = np.array(production, dtype=np.int64)
    tree_ptr_arr = np.array(tree_ptr, dtype=np.int64)
    postings = np.argsort(prods, kind="stable")
    rank = np.empty_like(postings)
    rank[postings] = np.arange(len(postings))
    return _Nodes(
        production=prods,
        tree=np.repeat(np.arange(len(trees)), np.diff(tree_ptr_arr)),
        height=np.array(height, dtype=np.int64),
        child_ptr=np.array(child_ptr, dtype=np.int64),
        children=np.array(children, dtype=np.int64),
        tree_ptr=tree_ptr_arr,
        postings=postings,
        rank=rank,
        keys=prods[postings] * len(prods) + postings,
    )


def _matches(queries: _Nodes, q0: int, q1: int, forest: _Nodes, lo: np.ndarray, hi: np.ndarray):
    """For each node of query trees ``q0:q1``, the postings slice
    ``first:last`` of the forest nodes that share its production and lie in
    forest trees ``lo[r]:hi[r]``, ``r`` being the node's query tree less
    ``q0``.  A production the forest lacks has an empty slice."""
    a, b = queries.tree_ptr[q0], queries.tree_ptr[q1]
    key = queries.production[a:b] * len(forest.production)
    r = queries.tree[a:b] - q0
    first = np.searchsorted(forest.keys, key + forest.tree_ptr[lo[r]])
    last = np.searchsorted(forest.keys, key + forest.tree_ptr[hi[r]])
    return first, last


def _kernel_block(
    queries: _Nodes, q0: int, q1: int, forest: _Nodes, lo: np.ndarray, hi: np.ndarray, lam: float
) -> np.ndarray:
    """Raw kernels of query trees ``q0:q1`` against forest trees
    ``lo[r]:hi[r]``: ``out[r, c] = K(query q0 + r, forest tree lo[r] + c)``
    for ``c < hi[r] - lo[r]``, and 0 past that."""
    a = queries.tree_ptr[q0]
    first, last = _matches(queries, q0, q1, forest, lo, hi)
    # the pairs of each query node, in order of height, then of node
    order = np.argsort(queries.height[a : queries.tree_ptr[q1]], kind="stable")
    counts = (last - first)[order]
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    width = int((hi - lo).max()) if len(lo) else 0
    if not total:
        return np.zeros((q1 - q0, width))
    start = np.empty_like(ends)
    start[order] = ends - counts
    owner = np.repeat(order, counts)  # query node of each pair, less a
    target = forest.postings[np.arange(total) + np.repeat(first[order] - (ends - counts), counts)]
    heights = queries.height[a + order]
    level = np.concatenate(([0], ends))[np.searchsorted(heights, np.arange(heights[-1] + 2))]

    delta = np.full(total, lam)  # the pairs at height 0 are done
    # A delta past the double range becomes inf here, silently: the kernels it
    # reaches are refused by _check_normalizable or, unnormalized, by the
    # finiteness checks of gram_matrix's diagonal and of CompiledTrees.rows.
    with np.errstate(over="ignore"):
        for h in range(1, len(level) - 1):
            s0, s1 = int(level[h]), int(level[h + 1])
            if s0 == s1:
                continue
            q, t = owner[s0:s1] + a, target[s0:s1]
            arity = queries.child_ptr[q + 1] - queries.child_ptr[q]
            offsets = np.cumsum(arity) - arity
            k = np.arange(int(arity.sum()))
            cq = queries.children[k + np.repeat(queries.child_ptr[q] - offsets, arity)]
            ct = forest.children[k + np.repeat(forest.child_ptr[t] - offsets, arity)]
            both = np.flatnonzero((cq >= 0) & (ct >= 0))
            same = queries.production[cq[both]] == forest.production[ct[both]]
            k, cq, ct = both[same], cq[both[same]] - a, ct[both[same]]
            if not len(k):
                continue
            pair = np.repeat(np.arange(s1 - s0), arity)[k]
            factors = 1.0 + delta[start[cq] + forest.rank[ct] - first[cq]]
            # lam, then each pair's factors in child order, multiplied left to right
            per_pair = np.bincount(pair, minlength=s1 - s0)
            heads = np.arange(s1 - s0) + np.cumsum(per_pair) - per_pair
            seq = np.empty(s1 - s0 + len(k))
            seq[heads] = lam
            seq[pair + np.arange(1, len(k) + 1)] = factors
            delta[s0:s1] = np.multiply.reduceat(seq, heads)

    r = queries.tree[a + owner] - q0
    key = r * width + forest.tree[target] - lo[r]
    size = (q1 - q0) * width
    out = np.bincount(key, weights=delta, minlength=size)
    many = np.flatnonzero(np.bincount(key, minlength=size)[key] > 2)
    if len(many):
        many = many[np.argsort(key[many], kind="stable")]
        keys, bounds = np.unique(key[many], return_index=True)
        values = delta[many].tolist()
        bounds = bounds.tolist() + [len(values)]
        try:
            out[keys] = [math.fsum(values[i:j]) for i, j in zip(bounds, bounds[1:])]
        except OverflowError:  # fsum refuses a finite sum past the double range
            out[keys] = [_fsum_or_inf(values[i:j]) for i, j in zip(bounds, bounds[1:])]
    return out.reshape(q1 - q0, width)


def _fsum_or_inf(values: list[float]) -> float:
    """The correctly rounded sum of positive deltas, inf past the double range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _blocks(queries: _Nodes, forest: _Nodes, lo: np.ndarray, hi: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive runs ``(q0, q1)`` of query trees, each with at most
    ``BLOCK_PAIRS`` node pairs plus tree pairs, or of one tree over that."""
    n = len(queries.tree_ptr) - 1
    first, last = _matches(queries, 0, n, forest, lo, hi)
    cumulative = np.concatenate(([0], np.cumsum(last - first)))[queries.tree_ptr]
    cost = np.diff(cumulative) + (hi - lo)
    blocks, q0, used = [], 0, 0
    for q, c in enumerate(cost.tolist()):
        if q > q0 and used + c > BLOCK_PAIRS:
            blocks.append((q0, q))
            q0, used = q, 0
        used += c
    if q0 < n:
        blocks.append((q0, n))
    return blocks


def _kernels(queries: _Nodes, forest: _Nodes, lo: np.ndarray, width: int, lam: float) -> np.ndarray:
    """Raw kernels of every query tree ``r`` against forest trees
    ``lo[r]:lo[r] + width``, block by block in this process."""
    hi = lo + width
    blocks = _blocks(queries, forest, lo, hi)
    if not blocks:
        return np.zeros((0, width))
    return np.concatenate([_kernel_block(queries, q0, q1, forest, lo[q0:q1], hi[q0:q1], lam) for q0, q1 in blocks])


def _self_kernels(nodes: _Nodes, lam: float) -> np.ndarray:
    return _kernels(nodes, nodes, np.arange(len(nodes.tree_ptr) - 1), 1, lam).reshape(-1)


def _check_normalizable(self_kernels: np.ndarray, what: str = "tree") -> None:
    """Refuse a self-kernel ``d`` with ``d * d`` outside (0, inf): normalizing
    divides by products ``d_i * d_j``, which lie between their squares."""
    with np.errstate(over="ignore"):
        square = self_kernels * self_kernels
    bad = np.flatnonzero(~((square > 0.0) & (square < np.inf)))
    if len(bad):
        k = int(bad[0])
        raise DegenerateTree(f"{what} {k} has self-kernel {self_kernels[k]:.3g}, whose square is 0 or overflows: "
                             "cannot normalize")


@dataclass(frozen=True)
class KernelGram:
    matrix: np.ndarray
    lam: float
    normalized: bool


class CompiledTrees:
    """Trees compiled once into one node table, with their self-kernels when
    normalizing.  Rows only read the table, so threads may share one."""

    def __init__(self, trees: Sequence[ParseTree], lam: float = DEFAULT_LAMBDA, normalize: bool = True):
        _check_lambda(lam)
        self.lam, self.normalize = lam, normalize
        self.productions: dict = {}
        self.nodes = _compile(trees, self.productions)
        self.size = len(trees)
        self.self_kernels = _self_kernels(self.nodes, lam) if normalize else None
        if normalize:
            _check_normalizable(self.self_kernels)

    def rows(self, trees: Sequence[ParseTree]) -> np.ndarray:
        """Kernel values of each of ``trees`` against every compiled tree,
        one row per tree.  Productions the table lacks are interned in a copy
        of it, so they match nothing compiled here and the table is never
        written."""
        queries = _compile(trees, dict(self.productions))
        K = _kernels(queries, self.nodes, np.zeros(len(trees), dtype=np.int64), self.size, self.lam)
        if self.normalize:
            self_k = _self_kernels(queries, self.lam)
            _check_normalizable(self_k, "input tree")
            K /= np.sqrt(self_k[:, None] * self.self_kernels)
        elif not np.isfinite(K).all():
            k = int(np.flatnonzero(~np.isfinite(K).all(axis=1))[0])
            raise DegenerateTree(f"input tree {k} has a kernel that overflows")
        return K


def gram_matrix(
    trees: Sequence[ParseTree], lam: float = DEFAULT_LAMBDA, normalize: bool = True
) -> KernelGram:
    """Pairwise kernel matrix, each tree compiled once and each unordered pair
    computed once.  Blocks of rows are filled by
    :func:`~claudette.workers.fork_map` workers, which share the node table
    copy-on-write and write into one shared anonymous mapping, so no values
    cross a pipe and each entry is the one a single process computes."""
    nodes = CompiledTrees(trees, lam, normalize=False).nodes
    n = len(trees)
    shared = mmap.mmap(-1, max(8 * n * n, 1))  # zero-filled; length 0 is refused
    K = np.frombuffer(shared, dtype=np.float64, count=n * n).reshape(n, n)
    lo, hi = np.arange(n), np.full(n, n)

    def fill(block: tuple[int, int]) -> None:
        q0, q1 = block
        values = _kernel_block(nodes, q0, q1, nodes, lo[q0:q1], hi[q0:q1], lam)
        for r, i in enumerate(range(q0, q1)):
            K[i, i:] = K[i:, i] = values[r, : n - i]

    fork_map(fill, _blocks(nodes, nodes, lo, hi))
    diag = K.diagonal().copy()
    if normalize:
        _check_normalizable(diag)
        step = max(1, BLOCK_PAIRS // max(n, 1))
        for i in range(0, n, step):
            K[i : i + step] /= np.sqrt(diag[i : i + step, None] * diag)
        np.fill_diagonal(K, 1.0)
    elif not np.isfinite(diag).all():
        k = int(np.flatnonzero(~np.isfinite(diag))[0])
        raise DegenerateTree(f"tree {k} has self-kernel {diag[k]:.3g}: the raw kernel overflows")
    return KernelGram(matrix=K, lam=lam, normalized=normalize)


# ---------------------------------------------------------------------------
# Exhaustive fragment oracle
# ---------------------------------------------------------------------------

def enumerate_fragments_oracle(tree: ParseTree, max_nodes: int = 16) -> Counter:
    """All kernel fragments of ``tree`` as canonical bracketed strings.

    A fragment is rooted at any internal node; at each included internal node
    either all children are included or none (the node then terminates the
    fragment as a bare non-terminal).  Expanded preterminals include their
    word.  The multiset counts duplicate fragments separately.
    """
    if tree.n_nodes() > max_nodes:
        raise TooLarge(f"tree has {tree.n_nodes()} nodes; oracle bound is {max_nodes}")
    fragments: Counter = Counter()
    for node in tree.internal_nodes():
        fragments.update(_expansions(node))
    return fragments


def _expansions(node: ParseTree) -> list[str]:
    """All fragment strings rooted at ``node`` with ``node`` expanded."""
    per_child: list[list[str]] = []
    for child in node.children:
        if child.is_leaf:
            per_child.append([child.label])
        else:
            per_child.append([child.label] + _expansions(child))
    return [
        "(" + node.label + " " + " ".join(combo) + ")"
        for combo in product(*per_child)
    ]


def random_tree(
    rng,
    max_nodes: int = 12,
    labels: Sequence[str] = ("A", "B", "C"),
    words: Sequence[str] = ("x", "y", "z"),
) -> ParseTree:
    """Small random tree over a tight alphabet (for self-tests).

    ``rng`` is a ``random.Random``; the tight alphabet makes shared
    productions, and hence nonzero kernel values, likely.
    """

    def build(budget: int) -> tuple[ParseTree, int]:
        if budget < 4 or rng.random() < 0.4:
            return ParseTree(rng.choice(labels), [ParseTree(rng.choice(words))]), 2
        used = 1
        kids: list[ParseTree] = []
        for _ in range(rng.randint(1, 3)):
            if budget - used < 2:
                break
            child, child_used = build(budget - used)
            kids.append(child)
            used += child_used
        if not kids:
            return ParseTree(rng.choice(labels), [ParseTree(rng.choice(words))]), 2
        return ParseTree(rng.choice(labels), kids), used

    tree, _ = build(max(max_nodes, 2))
    return tree


def fragment_kernel_rows(trees: Sequence[ParseTree], lam: float = 1.0, max_nodes: int = 16):
    """Each tree's kernel values against every tree of ``trees``, one row at
    a time, from explicit fragment enumeration: each matching fragment pair
    adds ``lam ** e``, ``e`` being its count of expanded nodes (of ``(`` in
    its canonical string), so at lam = 1 an entry counts matching pairs.
    Each tree's fragments are enumerated once."""
    _check_lambda(lam)
    fragments = [enumerate_fragments_oracle(t, max_nodes) for t in trees]
    holders: dict[str, tuple[list[int], list[int]]] = {}
    for i, frags in enumerate(fragments):
        for frag, count in frags.items():
            held, counts = holders.setdefault(frag, ([], []))
            held.append(i)
            counts.append(count)
    index = {
        frag: (np.array(held), np.array(counts) * lam ** frag.count("("))
        for frag, (held, counts) in holders.items()
    }
    for frags in fragments:
        row = np.zeros(len(trees))
        for frag, count in frags.items():
            held, weights = index[frag]
            row[held] += count * weights
        yield row

