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

**One summation order.**  A tree pair's kernel is ``0.0`` plus its deltas
in ascending order (:func:`_ascending_sums`).  No delta is below ``lam`` and
a height-0 pair's is exactly ``lam``, so a tree pair's height-0 deltas come
first; they are counted, not sorted, and their running sum is read from a
table.  The rest are ordered by tree pair, then delta, with two plain
argsorts, and one ``np.bincount`` adds it all in that order.  A pair's
deltas are one multiset whichever tree is the query, so ``K(a, b) == K(b,
a)`` bit for bit, the Gram is the same bits however it is cut into blocks,
and a kernel row computed for a tree equals the corpus Gram's entries for
it, so LOO evaluation reads its held-out rows from the Gram.  For positive
terms ascending order also has the smallest error bound of any order of
recursive summation (Higham 1993, "The accuracy of floating point
summation", SIAM J. Sci. Comput.).

:func:`gram_matrix` cuts the upper triangle into blocks of query trees under
a fixed pair budget, fills them (in forked worker processes when the trees
make ``GRAM_FORK_PAIRS`` node pairs or more) and reads the self-kernels off
its diagonal: one that overflows, or whose square is 0 or overflows when
normalizing, raises ``DegenerateTree``.  A tree with more node pairs than
``MAX_TREE_PAIRS`` raises ``TooManyPairs`` before any block is computed, and
a Gram over ``MAX_GRAM_BYTES`` raises ``GramTooLarge`` before it is mapped.
:func:`fragment_kernel_rows` enumerates fragments, an independent
exponential-time route that ``kernel-selftest`` checks a Gram against.
"""

from __future__ import annotations

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

#: Node pairs below which :func:`gram_matrix` fills every block in this
#: process (32 full blocks).  A fork costs about 3 ms: the call, the child's
#: start and its reaping, and the parent's copy-on-write faults after it.
#: Measured on a 2-core x86-64 machine (Python 3.11, numpy 2.4), medians of 9
#: alternating fills, one process against forking: the 140 ``planted``
#: fixture trees (40k pairs) took 14.2 against 17.6 ms and the 320
#: ``adjacency`` trees (153k) 21.2 against 22.1 ms; forking won from 355k
#: pairs (49.4 against 52.1 ms), at 607k (88.5 against 119.8 ms) and at 1.36M
#: (167 against 249 ms).
GRAM_FORK_PAIRS = 1 << 18

#: Node pairs one tree may make with the trees it is scored against.  A
#: block's arrays peak at about 100 bytes a pair, so this caps a block near
#: 1.7 GB; a tree over it, such as one node with a few thousand equal
#: children, is refused with ``TooManyPairs`` before anything is allocated
#: for its pairs.
MAX_TREE_PAIRS = 1 << 24

#: Bytes of the one mapping a :func:`gram_matrix` fills, ``8 n**2`` for ``n``
#: trees: 2 GiB admits 16,384 trees, the paper-scale 12,000 taking 1.15 GB.
#: A larger Gram is refused with ``GramTooLarge`` before it is mapped, where
#: the mapping would fail or the fill be killed for want of memory.
MAX_GRAM_BYTES = 1 << 31


class InvalidLambda(ValueError):
    pass


class TooManyPairs(ValueError):
    """A tree whose node pairs pass ``MAX_TREE_PAIRS``."""


class GramTooLarge(ValueError):
    """A Gram whose ``8 n**2`` bytes pass ``MAX_GRAM_BYTES``."""


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
    stack: list = []  # (node, its parent, its slot in children)
    pop, push, intern = stack.pop, stack.append, table.setdefault
    for tree in trees:
        if tree.children:
            push((tree, -1, -1))
        while stack:
            node, up, slot = pop()
            i = len(production)
            if up >= 0:
                children[slot] = i
            parent.append(up)
            kids = node.children
            production.append(intern((node.label, tuple([c.label for c in kids])), len(table)))
            base = len(children)
            children.extend([-1] * len(kids))
            child_ptr.append(len(children))
            for k in range(len(kids) - 1, -1, -1):
                if kids[k].children:
                    push((kids[k], i, base + k))
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


def _matches(queries: _Nodes, forest: _Nodes, lo: np.ndarray, hi: np.ndarray):
    """For each query node, the postings slice ``first:last`` of the forest
    nodes that share its production and lie in forest trees ``lo[r]:hi[r]``,
    ``r`` being the node's query tree.  A production the forest lacks has an
    empty slice."""
    key = queries.production * len(forest.production)
    r = queries.tree
    first = np.searchsorted(forest.keys, key + forest.tree_ptr[lo[r]])
    last = np.searchsorted(forest.keys, key + forest.tree_ptr[hi[r]])
    return first, last


def _child_pairs(queries: _Nodes, q: np.ndarray, forest: _Nodes, t: np.ndarray):
    """The child pairs with equal productions of node pairs ``(q[i], t[i])``,
    by ``i``, then child order: for each, ``i``, the query child and the
    forest child."""
    arity = queries.child_ptr[q + 1] - queries.child_ptr[q]
    offsets = np.cumsum(arity) - arity
    k = np.arange(int(arity.sum()))
    cq = queries.children[k + np.repeat(queries.child_ptr[q] - offsets, arity)]
    ct = forest.children[k + np.repeat(forest.child_ptr[t] - offsets, arity)]
    both = np.flatnonzero((cq >= 0) & (ct >= 0))
    same = both[queries.production[cq[both]] == forest.production[ct[both]]]
    return np.repeat(np.arange(len(q)), arity)[same], cq[same], ct[same]


def _kernel_block(
    queries: _Nodes, q0: int, q1: int, forest: _Nodes, lo: np.ndarray, hi: np.ndarray,
    first: np.ndarray, last: np.ndarray, lam: float,
) -> np.ndarray:
    """Raw kernels of query trees ``q0:q1`` against forest trees
    ``lo[q]:hi[q]``: ``out[r, c] = K(query q0 + r, forest tree lo[q0 + r] +
    c)`` for ``c < hi[q0 + r] - lo[q0 + r]``, and 0 past that.  ``first`` and
    ``last`` are :func:`_blocks`' matches of every query node."""
    a, b = queries.tree_ptr[q0], queries.tree_ptr[q1]
    lo, hi, first, last = lo[q0:q1], hi[q0:q1], first[a:b], last[a:b]
    # the pairs of each query node, in order of height, then of node
    order = np.argsort(queries.height[a:b], kind="stable")
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

    # A pair of height 1 and up multiplies lam by 1 + the delta of each child
    # pair with equal productions, in child order.  Which child pairs those
    # are does not depend on any delta, so they are found for all levels at
    # once; each level, lowest first, then gathers its factors and multiplies.
    h0 = int(level[1])
    pair, cq, ct = _child_pairs(queries, owner[h0:] + a, forest, target[h0:])
    cq -= a
    child = start[cq] + forest.rank[ct] - first[cq]  # each factor's child pair
    # lam, then each pair's factors in child order, multiplied left to right
    per_pair = np.bincount(pair, minlength=total - h0)
    heads = np.arange(total - h0) + np.cumsum(per_pair) - per_pair
    seq = np.empty(total - h0 + len(pair))
    seq[heads] = lam
    spot = pair + np.arange(1, len(pair) + 1)
    # where each level from height 1 up starts in the pairs, the factors and seq
    pairs_at = level[1:].tolist()
    factors_at = np.searchsorted(pair, level[1:] - h0).tolist()
    seq_at = np.concatenate((heads, [len(seq)]))[level[1:] - h0].tolist()

    delta = np.full(total, lam)  # the pairs at height 0 are done
    # A delta past the double range becomes inf here, silently: the kernels it
    # reaches are refused by _check_normalizable or, unnormalized, by the
    # finiteness checks of gram_matrix's diagonal and of CompiledTrees.rows.
    with np.errstate(over="ignore"):
        for h in range(len(pairs_at) - 1):
            f0, f1 = factors_at[h], factors_at[h + 1]
            if f0 == f1:
                continue
            s0, s1, g0 = pairs_at[h], pairs_at[h + 1], seq_at[h]
            seq[spot[f0:f1]] = 1.0 + delta[child[f0:f1]]
            delta[s0:s1] = np.multiply.reduceat(seq[g0 : seq_at[h + 1]], heads[s0 - h0 : s1 - h0] - g0)

    r = queries.tree[a + owner] - q0
    key = r * width + forest.tree[target] - lo[r]
    return _ascending_sums(key, delta, h0, (q1 - q0) * width, lam).reshape(q1 - q0, width)


def _ascending_sums(key: np.ndarray, delta: np.ndarray, h0: int, size: int, lam: float) -> np.ndarray:
    """Each tree pair's deltas added to ``0.0`` in ascending order, ``out[k]``
    for the pairs with ``key == k < size``; the first ``h0`` pairs are the
    height-0 ones.  A sum past the double range becomes inf here, silently:
    the kernels it reaches are refused as in :func:`_kernel_block`.

    No delta is below ``lam``, and a height-0 delta is exactly ``lam``, so a
    tree pair's ``c`` height-0 deltas come first, and their running sum is
    ``flat[c - 1]``: one ``bincount`` counts them, and they are not sorted.
    The other pairs follow by tree pair, then delta: two plain argsorts,
    since the combined keys are distinct and any sort gives their one order
    (equal deltas may swap, which adds the same bits).  A block holds at most
    ``MAX_TREE_PAIRS`` (2**24) pairs and ``key < size``, so ``key * m +
    rank < size * 2**24`` stays below 2**63 unless ``out``, ``size``
    doubles, passes 4 TiB."""
    count = np.bincount(key[:h0], minlength=size)
    held = np.flatnonzero(count)
    flat = np.add.accumulate(np.full(int(count.max()) if h0 else 0, lam))
    key, delta = key[h0:], delta[h0:]
    m = len(delta)
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(delta)] = np.arange(m)
    ascending = np.argsort(key * m + rank)
    return np.bincount(
        np.concatenate((held, key[ascending])),
        weights=np.concatenate((flat[count[held] - 1], delta[ascending])),
        minlength=size,
    )


def _blocks(
    queries: _Nodes, forest: _Nodes, lo: np.ndarray, hi: np.ndarray, what: str = "tree"
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray, int]:
    """Consecutive runs ``(q0, q1)`` of query trees, each with at most
    ``BLOCK_PAIRS`` node pairs plus tree pairs, or of one tree over that;
    then the :func:`_matches` ``first`` and ``last`` of every query node, which
    :func:`_kernel_block` reads, and the node pairs of all query trees.  A
    query tree with more than ``MAX_TREE_PAIRS`` node pairs raises
    ``TooManyPairs``, naming it as ``what`` and its index."""
    n = len(queries.tree_ptr) - 1
    first, last = _matches(queries, forest, lo, hi)
    running = np.concatenate(([0], np.cumsum(last - first)))
    pairs = np.diff(running[queries.tree_ptr])
    over = np.flatnonzero(pairs > MAX_TREE_PAIRS)
    if len(over):
        k = int(over[0])
        raise TooManyPairs(f"{what} {k} makes {int(pairs[k]):,} node pairs with the trees it is scored against, "
                           f"over the limit of {MAX_TREE_PAIRS:,}")
    cost = pairs + (hi - lo)
    blocks, q0, used = [], 0, 0
    for q, c in enumerate(cost.tolist()):
        if q > q0 and used + c > BLOCK_PAIRS:
            blocks.append((q0, q))
            q0, used = q, 0
        used += c
    if q0 < n:
        blocks.append((q0, n))
    return blocks, first, last, int(running[-1])


def _kernels(
    queries: _Nodes, forest: _Nodes, lo: np.ndarray, width: int, lam: float, what: str = "tree"
) -> np.ndarray:
    """Raw kernels of every query tree ``r`` against forest trees
    ``lo[r]:lo[r] + width``, block by block in this process."""
    hi = lo + width
    blocks, first, last, _ = _blocks(queries, forest, lo, hi, what)
    if not blocks:
        return np.zeros((0, width))
    return np.concatenate([_kernel_block(queries, q0, q1, forest, lo, hi, first, last, lam) for q0, q1 in blocks])


def _self_kernels(nodes: _Nodes, lam: float, what: str = "tree") -> np.ndarray:
    return _kernels(nodes, nodes, np.arange(len(nodes.tree_ptr) - 1), 1, lam, what).reshape(-1)


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
        K = _kernels(queries, self.nodes, np.zeros(len(trees), dtype=np.int64), self.size, self.lam, "input tree")
        if self.normalize:
            self_k = _self_kernels(queries, self.lam, "input tree")
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
    computed once, into one anonymous mapping of ``8 n**2`` bytes; more than
    ``MAX_GRAM_BYTES`` raises ``GramTooLarge`` before anything is compiled or
    mapped.  Trees that make fewer than ``GRAM_FORK_PAIRS`` node pairs fill
    their blocks of rows in this process: a fork costs about 3 ms, as much as
    three blocks.  More are filled by :func:`~claudette.workers.fork_map`
    workers, which share the node table copy-on-write and write into the
    mapping, so no values cross a pipe.  Either way each entry is the one a
    single process computes."""
    n = len(trees)
    if 8 * n * n > MAX_GRAM_BYTES:
        raise GramTooLarge(f"the Gram of {n:,} trees takes {8 * n * n:,} bytes, over the limit of {MAX_GRAM_BYTES:,}")
    nodes = CompiledTrees(trees, lam, normalize=False).nodes
    lo, hi = np.arange(n), np.full(n, n)
    blocks, first, last, pairs = _blocks(nodes, nodes, lo, hi)
    shared = mmap.mmap(-1, max(8 * n * n, 1))  # zero-filled; length 0 is refused
    K = np.frombuffer(shared, dtype=np.float64, count=n * n).reshape(n, n)

    def fill(block: tuple[int, int]) -> None:
        q0, q1 = block
        values = _kernel_block(nodes, q0, q1, nodes, lo, hi, first, last, lam)
        for r, i in enumerate(range(q0, q1)):
            K[i, i:] = K[i:, i] = values[r, : n - i]

    if pairs < GRAM_FORK_PAIRS:
        for block in blocks:
            fill(block)
    else:
        fork_map(fill, blocks)
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

