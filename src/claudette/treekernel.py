"""SubSet Tree Kernel over constituency parse trees.

The kernel counts shared tree fragments that terminate either at leaves or at
non-terminal symbols, with a decay ``lam`` per expanded node:

    K(t1, t2) = sum over node pairs (n1, n2) of delta(n1, n2)

    delta = 0                       if production(n1) != production(n2)
    delta = lam                     if both nodes are preterminals
    delta = lam * prod_i (1 + delta(child_i(n1), child_i(n2)))   otherwise

Productions include the ordered child labels, so preterminals match only on
identical words.  As in the Fast Tree Kernel (Moschitti 2006, "Making tree
kernels practical for natural language learning", EACL), each tree is compiled
once into interned production ids, and only node pairs with equal productions
are visited, bottom-up and without recursion.  The deltas are summed with
``math.fsum``, which rounds correctly and so does not depend on the order of
the pairs: ``K(a, b) == K(b, a)`` bit for bit, and a kernel row computed for a
tree equals the corpus Gram's entries for it, so LOO evaluation reads its
held-out rows from the Gram.  ``gram_matrix`` fills the Gram's rows in forked
worker processes, each entry by the same call as in one process, so the
matrix is the same bits.  ``enumerate_fragments_oracle`` provides an
independent exponential-time route used to verify the kernel.
"""

from __future__ import annotations

import math
import mmap
from collections import Counter
from dataclasses import dataclass
from itertools import chain, product
from typing import NamedTuple, Sequence

import numpy as np

from .trees import ParseTree
from .workers import fork_map

#: Default decay; common practice for this kernel family.
DEFAULT_LAMBDA = 0.4


class InvalidLambda(ValueError):
    pass


class DegenerateTree(ValueError):
    """A tree whose self-kernel is zero (no internal nodes) cannot be normalized."""


class TooLarge(ValueError):
    """Fragment enumeration is exponential; refuse trees above the node bound."""


def _check_lambda(lam: float) -> None:
    if not 0.0 < lam <= 1.0:
        raise InvalidLambda(f"lambda must be in (0, 1], got {lam}")


class _Compiled(NamedTuple):
    productions: list[int]  # production id per internal node, in preorder
    children: list[tuple[int, ...]]  # child node indices, -1 for a leaf
    by_production: dict[int, list[int]]  # node indices per production id, ascending


def _compile(tree: ParseTree, table: dict, grow: bool = True) -> _Compiled:
    """Flatten ``tree``, interning its productions in ``table``.  Preorder puts
    every child after its parent.  With ``grow=False`` the table is only read:
    an unknown production gets a negative id private to this tree, so it
    matches nothing else compiled against ``table``."""
    nodes = tree.internal_nodes()
    index = {id(n): i for i, n in enumerate(nodes)}
    local: dict = {}
    productions: list[int] = []
    by_production: dict[int, list[int]] = {}
    for i, n in enumerate(nodes):
        prod = n.production()
        pid = table.get(prod)
        if pid is None:
            pid = table.setdefault(prod, len(table)) if grow else local.setdefault(prod, -1 - len(local))
        productions.append(pid)
        by_production.setdefault(pid, []).append(i)
    children = [tuple(index.get(id(c), -1) for c in n.children) for n in nodes]
    return _Compiled(productions, children, by_production)


def _kernel(a: _Compiled, b: _Compiled, lam: float) -> float:
    """Raw kernel of two trees compiled against one table.  ``rows[i]`` maps
    the nodes of ``b`` sharing node ``i``'s production to delta, filled in
    reverse preorder so child pairs come first.  Skipping a factor ``1 + 0``
    is exact, and each delta multiplies its factors in child order, so every
    delta is the recursive definition's bit for bit and does not depend on
    which tree is ``a``.  ``math.fsum`` rounds their sum correctly, whatever
    the order, so ``_kernel(a, b, lam) == _kernel(b, a, lam)``."""
    b_nodes, b_children = b.by_production, b.children
    rows: list[dict[int, float] | None] = [None] * len(a.productions)
    for i in range(len(a.productions) - 1, -1, -1):
        js = b_nodes.get(a.productions[i])
        if js is None:
            continue
        kids = [(k, rows[c]) for k, c in enumerate(a.children[i]) if c >= 0 and rows[c]]
        if not kids:
            rows[i] = dict.fromkeys(js, lam)
            continue
        rows[i] = row = {}
        for j in js:
            value = lam
            b_kids = b_children[j]
            for k, child_row in kids:
                d = child_row.get(b_kids[k])
                if d is not None:
                    value *= 1.0 + d
            row[j] = value
    return math.fsum(chain.from_iterable(row.values() for row in rows if row))


def sstk(t1: ParseTree, t2: ParseTree, lam: float = DEFAULT_LAMBDA) -> float:
    """Raw SubSet Tree Kernel value between two trees."""
    _check_lambda(lam)
    table: dict = {}
    return _kernel(_compile(t1, table), _compile(t2, table), lam)


@dataclass(frozen=True)
class KernelGram:
    matrix: np.ndarray
    lam: float
    normalized: bool


class CompiledTrees:
    """Trees compiled once against one production table, with their
    self-kernels.  Rows only read the table, so threads may share one."""

    def __init__(self, trees: Sequence[ParseTree], lam: float = DEFAULT_LAMBDA, normalize: bool = True):
        _check_lambda(lam)
        self.lam, self.normalize = lam, normalize
        self.productions: dict = {}
        self.trees = [_compile(t, self.productions) for t in trees]
        self.self_kernels = [_kernel(c, c, lam) for c in self.trees]
        for i, k in enumerate(self.self_kernels):
            if normalize and k <= 0.0:
                raise DegenerateTree(f"tree {i} has zero self-kernel; cannot normalize")

    def row(self, tree: ParseTree) -> np.ndarray:
        """Kernel values of ``tree`` against every compiled tree."""
        c = _compile(tree, self.productions, grow=False)
        row = [_kernel(c, other, self.lam) for other in self.trees]
        if self.normalize:
            self_k = _kernel(c, c, self.lam)
            if self_k <= 0.0:
                raise DegenerateTree("input tree has zero self-kernel; cannot normalize")
            row = [k / float(np.sqrt(self_k * other_k)) for k, other_k in zip(row, self.self_kernels)]
        return np.array(row, dtype=np.float64)


def gram_matrix(
    trees: Sequence[ParseTree], lam: float = DEFAULT_LAMBDA, normalize: bool = True
) -> KernelGram:
    """Pairwise kernel matrix, each tree compiled once and each unordered pair
    computed once.  The rows are filled by :func:`~claudette.workers.fork_map`
    workers, which share the compiled trees copy-on-write and write into one
    shared anonymous mapping, so no values cross a pipe and each entry is the
    one a single process computes."""
    compiled = CompiledTrees(trees, lam, normalize)
    diag = compiled.self_kernels
    n = len(diag)
    shared = mmap.mmap(-1, max(8 * n * n, 1))  # zero-filled; length 0 is refused
    K = np.frombuffer(shared, dtype=np.float64, count=n * n).reshape(n, n)

    def fill_row(i: int) -> None:
        a = compiled.trees[i]
        K[i, i] = 1.0 if normalize else diag[i]
        for j in range(i + 1, n):
            value = _kernel(a, compiled.trees[j], lam)
            if normalize:
                value /= float(np.sqrt(diag[i] * diag[j]))
            K[i, j] = K[j, i] = value

    fork_map(fill_row, range(n))
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


def fragment_pair_kernel(
    t1: ParseTree, t2: ParseTree, lam: float = 1.0, max_nodes: int = 16
) -> float:
    """Kernel value computed from explicit fragment enumeration.

    Each matching fragment pair contributes lam ** (number of expanded nodes
    in the fragment); the expansion count equals the number of '(' in the
    canonical string.  At lam = 1 this is the integer count of matching pairs.
    """
    _check_lambda(lam)
    f1 = enumerate_fragments_oracle(t1, max_nodes)
    f2 = enumerate_fragments_oracle(t2, max_nodes)
    total = 0.0
    for frag, c1 in f1.items():
        c2 = f2.get(frag)
        if c2:
            total += c1 * c2 * lam ** frag.count("(")
    return total
