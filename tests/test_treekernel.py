from __future__ import annotations

import math
import operator
import os
import random
import sys
import threading
import time
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    _compile,
    _kernel,
    ascending_sum,
    fragment_pair_kernel,
    lexsort_block_sums,
    production,
    reference_gram,
    reference_rows,
    sstk,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from claudette import treekernel
from claudette.treekernel import (
    CompiledTrees,
    DegenerateTree,
    InvalidLambda,
    TooLarge,
    TooManyPairs,
    enumerate_fragments_oracle,
    gram_matrix,
    random_tree,
)
from claudette.trees import ParseTree, parse_bracketed, read_treebank_groups

# the adjacency corpus's deep trees, on which the order of a kernel's sum can
# change its last bit
ADJACENCY_TREES = [
    tree
    for group in read_treebank_groups(Path(__file__).parent / "fixtures" / "adjacency_trees.txt")
    for tree in group
]

T = parse_bracketed("(S (A a) (B b))")
T_DISJOINT = parse_bracketed("(S (C c) (D d))")
T_HALF = parse_bracketed("(S (A a) (D d))")


def reference_deltas(t1: ParseTree, t2: ParseTree, lam: float) -> list[float]:
    """The deltas of the node pairs the compiled kernel visits, from the
    recursive definition, in its block's layout with ``t1`` as the query: by
    the ``t1`` node's height, then preorder, then ``t2`` preorder."""
    prod = {id(n): production(n) for n in t1.internal_nodes() + t2.internal_nodes()}
    by_prod: dict = {}
    for n in t2.internal_nodes():
        by_prod.setdefault(prod[id(n)], []).append(n)
    height: dict = {}
    for n in reversed(t1.internal_nodes()):
        height[id(n)] = max((1 + height[id(c)] for c in n.children if c.children), default=0)
    memo: dict = {}

    def delta(a: ParseTree, b: ParseTree) -> float:
        if not a.children or not b.children or prod[id(a)] != prod[id(b)]:
            return 0.0
        key = (id(a), id(b))
        if key not in memo:
            value = lam
            if not (a.is_preterminal and b.is_preterminal):
                for ca, cb in zip(a.children, b.children):
                    value *= 1.0 + delta(ca, cb)
            memo[key] = value
        return memo[key]

    queries = sorted(t1.internal_nodes(), key=lambda n: height[id(n)])
    return [delta(n1, n2) for n1 in queries for n2 in by_prod.get(prod[id(n1)], ())]


def reference_sstk(t1: ParseTree, t2: ParseTree, lam: float) -> float:
    """The recursive kernel the compiled one replaced, its deltas added in
    ascending order as the compiled one adds them: its values are the ones
    ``sstk`` must reproduce bit for bit."""
    return ascending_sum(reference_deltas(t1, t2, lam))


# Labels and words share "x", so a leaf can carry an internal node's label:
# (A x) and (A (x y)) then have one production but different child kinds.
LEAVES = st.builds(ParseTree, st.sampled_from(["x", "y"]))
TREES = st.recursive(
    LEAVES,
    lambda kids: st.builds(ParseTree, st.sampled_from(["A", "B", "x"]), st.lists(kids, min_size=1, max_size=3)),
    max_leaves=14,
)


class TestSstk:
    def test_self_kernel_lambda_one_counts_fragments(self):
        assert sstk(T, T, 1.0) == 6.0

    def test_self_kernel_decayed(self):
        # 0.5 + 0.5 + 0.5 * 1.5 * 1.5
        assert sstk(T, T, 0.5) == pytest.approx(2.125, abs=1e-12)

    def test_disjoint_productions_zero(self):
        for lam in (1.0, 0.5, 0.4):
            assert sstk(T, T_DISJOINT, lam) == 0.0

    def test_shared_preterminal_only(self):
        # root productions S->A B vs S->A D differ; only (A a) matches
        assert sstk(T, T_HALF, 1.0) == 1.0

    def test_symmetry_exact(self):
        rng = random.Random(5)
        for _ in range(30):
            t1 = random_tree(rng, max_nodes=12)
            t2 = random_tree(rng, max_nodes=12)
            assert sstk(t1, t2, 0.4) == sstk(t2, t1, 0.4)

    def test_invalid_lambda(self):
        for lam in (0.0, -0.1, 1.5):
            with pytest.raises(InvalidLambda):
                sstk(T, T, lam)

    def test_monotone_in_lambda(self):
        rng = random.Random(11)
        for _ in range(20):
            t1 = random_tree(rng, max_nodes=12)
            t2 = random_tree(rng, max_nodes=12)
            values = [sstk(t1, t2, lam) for lam in (0.1, 0.4, 0.7, 1.0)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_preterminal_words_must_match(self):
        t1 = parse_bracketed("(A a)")
        t2 = parse_bracketed("(A b)")
        assert sstk(t1, t2, 1.0) == 0.0
        assert sstk(t1, t1, 1.0) == 1.0


class TestNormalized:
    def test_identical_trees(self):
        assert CompiledTrees([T], 1.0).rows([T])[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_trees(self):
        assert CompiledTrees([T_DISJOINT], 0.4).rows([T])[0, 0] == 0.0

    def test_one_sixth_case(self):
        assert CompiledTrees([T_HALF], 1.0).rows([T])[0, 0] == pytest.approx(1 / 6, abs=1e-12)

    def test_degenerate_tree(self):
        leaf_only = ParseTree("a")
        with pytest.raises(DegenerateTree):
            CompiledTrees([T], 1.0).rows([leaf_only])


def complete_tree(depth: int) -> ParseTree:
    """A complete binary tree over the one production ``X -> X X``, with
    ``(X w)`` leaves: at lambda 1 its self-kernel squares to doubles over
    depth."""
    return parse_bracketed("(X w)") if depth == 0 else ParseTree("X", [complete_tree(depth - 1), complete_tree(depth - 1)])


# 1,023 distinct preterminals under one root: at lambda 1 the root pair's
# delta is 2 ** 1023, and two of them sum past the double range.
BIG = ParseTree("W", [ParseTree(f"P{k}", [ParseTree(f"p{k}")]) for k in range(1023)])


class TestSelfKernelRange:
    """Normalizing divides by ``sqrt(d_i * d_j)``; a self-kernel whose square
    is 0 or overflows is refused, where it used to normalize kernels to 0."""

    def test_the_largest_normalizable_tree_reads_one(self):
        tree = complete_tree(8)
        assert sstk(tree, tree, 1.0) == pytest.approx(3.79e90, rel=1e-3)
        assert gram_matrix([tree, tree], 1.0).matrix.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_the_depth_9_pair_is_refused(self):
        tree = complete_tree(9)
        assert sstk(tree, tree, 1.0) == pytest.approx(1.438e181, rel=1e-3)  # its square overflows
        with pytest.raises(DegenerateTree, match="tree 0 has self-kernel 1.44e[+]181, whose square .* overflows"):
            gram_matrix([tree, tree], 1.0)
        with pytest.raises(DegenerateTree, match="tree 1 has self-kernel"):
            CompiledTrees([T, tree], 1.0)
        with pytest.raises(DegenerateTree, match="input tree 1 has self-kernel"):
            CompiledTrees([T], 1.0).rows([T, tree])
        # unnormalized kernels divide by nothing and stay finite
        assert CompiledTrees([T], 1.0, normalize=False).rows([tree]).tolist() == [[0.0]]
        assert gram_matrix([T, tree], 1.0, normalize=False).matrix[1, 1] == sstk(tree, tree, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_infinite_self_kernel_is_refused(self):
        with pytest.raises(DegenerateTree, match="tree 1 has self-kernel inf, whose square"):
            gram_matrix([T, complete_tree(10)], 1.0)
        with pytest.raises(DegenerateTree, match="tree 1 has self-kernel inf: the raw kernel overflows"):
            gram_matrix([T, complete_tree(10)], 1.0, normalize=False)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_finite_sum_past_the_double_range_is_refused(self):
        # a kernel between trees holding BIG twice and once sums 2 or 4
        # deltas of 2 ** 1023, which np.bincount turns into inf with no warning
        assert sstk(BIG, BIG, 1.0) == 2.0**1023 + 1023
        twice = ParseTree("Z", [BIG, BIG])
        for normalize in (True, False):
            with pytest.raises(DegenerateTree, match="tree 0 has self-kernel inf"):
                gram_matrix([twice, T], 1.0, normalize)
        # a raw row that overflows against a support tree that does not
        with pytest.raises(DegenerateTree, match="input tree 1 has a kernel that overflows"):
            CompiledTrees([T, BIG], 1.0, normalize=False).rows([T, twice])

    def test_an_underflowing_square_is_refused(self):
        # lambda 1e-200: T's self-kernel is about 3e-200, whose square is 0
        with pytest.raises(DegenerateTree, match="square is 0"):
            gram_matrix([T, T], 1e-200)
        with pytest.raises(DegenerateTree):
            CompiledTrees([T], 1e-200)


class TestFragmentOracle:
    def test_single_preterminal(self):
        assert dict(enumerate_fragments_oracle(parse_bracketed("(A a)"))) == {"(A a)": 1}

    def test_six_fragments(self):
        frags = enumerate_fragments_oracle(T)
        assert sorted(frags) == [
            "(A a)",
            "(B b)",
            "(S (A a) (B b))",
            "(S (A a) B)",
            "(S A (B b))",
            "(S A B)",
        ]
        assert sum(frags.values()) == 6

    def test_duplicate_fragments_counted(self):
        tree = parse_bracketed("(S (A a) (A a))")
        frags = enumerate_fragments_oracle(tree)
        assert frags["(A a)"] == 2

    def test_too_large(self):
        rng = random.Random(0)
        big = random_tree(rng, max_nodes=40)
        while big.n_nodes() <= 16:
            big = random_tree(rng, max_nodes=40)
        with pytest.raises(TooLarge):
            enumerate_fragments_oracle(big)

    def test_oracle_equivalence_exact_at_lambda_one(self):
        rng = random.Random(42)
        for _ in range(60):
            t1 = random_tree(rng, max_nodes=12)
            t2 = random_tree(rng, max_nodes=12)
            fast = sstk(t1, t2, 1.0)
            oracle = fragment_pair_kernel(t1, t2, 1.0)
            assert fast == oracle  # both integer-valued

    def test_oracle_equivalence_decayed(self):
        rng = random.Random(43)
        for _ in range(60):
            t1 = random_tree(rng, max_nodes=12)
            t2 = random_tree(rng, max_nodes=12)
            for lam in (0.5, 0.4):
                assert sstk(t1, t2, lam) == pytest.approx(
                    fragment_pair_kernel(t1, t2, lam), abs=1e-9
                )


class TestGramMatrix:
    def test_single_tree(self):
        gram = gram_matrix([T], lam=1.0, normalize=False)
        assert gram.matrix.shape == (1, 1)
        assert gram.matrix[0, 0] == 6.0
        gram_n = gram_matrix([T], lam=1.0, normalize=True)
        assert gram_n.matrix[0, 0] == pytest.approx(1.0)

    def test_identical_trees_all_equal(self):
        gram = gram_matrix([T, T], lam=0.4, normalize=False)
        assert np.all(gram.matrix == gram.matrix[0, 0])

    def test_matches_pairwise_oracle(self):
        rng = random.Random(9)
        trees = [random_tree(rng, max_nodes=10) for _ in range(10)]
        gram = gram_matrix(trees, lam=0.4, normalize=False)
        for i in range(10):
            for j in range(10):
                assert gram.matrix[i, j] == pytest.approx(
                    fragment_pair_kernel(trees[i], trees[j], 0.4), abs=1e-9
                )

    def test_normalized_diagonal_and_symmetry(self):
        rng = random.Random(13)
        trees = [random_tree(rng, max_nodes=12) for _ in range(8)]
        gram = gram_matrix(trees, lam=0.4, normalize=True)
        assert np.allclose(gram.matrix, gram.matrix.T, atol=1e-9)
        assert np.allclose(np.diag(gram.matrix), 1.0, atol=1e-9)
        assert np.all(gram.matrix <= 1.0 + 1e-9)

    def test_psd_spot_check(self):
        rng = random.Random(17)
        for _ in range(3):
            trees = [random_tree(rng, max_nodes=12) for _ in range(15)]
            gram = gram_matrix(trees, lam=0.4, normalize=True)
            eigenvalues = np.linalg.eigvalsh(gram.matrix)
            assert eigenvalues.min() >= -1e-8

    def test_degenerate_tree_reports_index(self):
        with pytest.raises(DegenerateTree) as err:
            gram_matrix([T, ParseTree("lonely")], lam=0.4, normalize=True)
        assert "1" in str(err.value)

    def test_kernel_row_matches_gram(self):
        rng = random.Random(21)
        trees = [random_tree(rng, max_nodes=10) for _ in range(6)]
        gram = gram_matrix(trees, lam=0.4, normalize=True)
        row = CompiledTrees(trees, 0.4, True).rows([trees[2]])[0]
        assert np.allclose(row, gram.matrix[2], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_oracle_equivalence_property(seed):
    rng = random.Random(seed)
    t1 = random_tree(rng, max_nodes=10)
    t2 = random_tree(rng, max_nodes=10)
    assert sstk(t1, t2, 1.0) == fragment_pair_kernel(t1, t2, 1.0)
    assert sstk(t1, t2, 0.4) == pytest.approx(fragment_pair_kernel(t1, t2, 0.4), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(TREES, TREES, st.sampled_from([0.4, 0.5, 1.0]))
def test_sstk_equals_recursive_reference_exactly(t1, t2, lam):
    assert sstk(t1, t2, lam) == reference_sstk(t1, t2, lam)
    assert sstk(t1, t1, lam) == reference_sstk(t1, t1, lam)


def sampled_trees(count: int, seed: int, max_nodes: int) -> list[ParseTree]:
    rng = random.Random(seed)
    return [random_tree(rng, max_nodes=max_nodes) for _ in range(count)]


@pytest.mark.parametrize(
    "trees, lam, normalize",
    [pytest.param(sampled_trees(8, 31, 16), 0.4, normalize, id=str(normalize)) for normalize in (True, False)]
    # the trees and raw Grams of ``kernel-selftest --pairs 6 --seed 1``: pair
    # k's kernel is entry (2k, 2k + 1)
    + [pytest.param(sampled_trees(12, 1, 12), lam, False, id=f"selftest-{lam}") for lam in (1.0, 0.5, 0.4)],
)
def test_gram_and_kernel_row_entries_equal_the_pairwise_formula(trees, lam, normalize):
    probe = random_tree(random.Random(32), max_nodes=16, labels=("A", "B", "D"))

    def expected(a: ParseTree, b: ParseTree) -> float:
        value = sstk(a, b, lam)
        if normalize:
            value /= float(np.sqrt(sstk(a, a, lam) * sstk(b, b, lam)))
        return value

    gram = gram_matrix(trees, lam=lam, normalize=normalize).matrix
    for i in range(len(trees)):
        for j in range(len(trees)):
            if i == j:
                want = 1.0 if normalize else sstk(trees[i], trees[i], lam)
            else:
                want = expected(trees[min(i, j)], trees[max(i, j)])
            assert gram[i, j] == want, (i, j)
    for tree in trees[:3] + [probe]:
        row = CompiledTrees(trees, lam, normalize).rows([tree])[0]
        assert row.tolist() == [expected(tree, other) for other in trees]


class TestCompiledTrees:
    def test_unseen_productions_leave_the_table_unchanged(self):
        support = CompiledTrees([T, T_HALF], lam=1.0)
        size = len(support.productions)
        novel = parse_bracketed("(S (A a) (E (F f) (F f)))")
        # only (A a) matches a support tree; the unseen productions still count in the
        # novel tree's self-kernel: S 2*5, (A a) 1, E 2*2, four (F f) pairs 4, total 19
        assert support.rows([novel])[0].tolist() == [1.0 / float(np.sqrt(19.0 * 6.0))] * 2
        assert CompiledTrees([T, T_HALF], lam=1.0, normalize=False).rows([novel])[0].tolist() == [1.0, 1.0]
        assert len(support.productions) == size

    def test_degenerate_support_tree(self):
        with pytest.raises(DegenerateTree):
            CompiledTrees([T, ParseTree("lonely")], lam=0.4)
        raw = CompiledTrees([T, ParseTree("lonely")], lam=0.4, normalize=False)
        assert raw.rows([T])[0].tolist() == [sstk(T, T, 0.4), 0.0]


def test_threads_share_compiled_trees_read_only():
    rng = random.Random(41)
    support = CompiledTrees([random_tree(rng, max_nodes=16) for _ in range(12)], lam=0.4)
    # a fourth label makes unseen productions likely in every probe
    probes = [random_tree(rng, max_nodes=16, labels=("A", "B", "D")) for _ in range(24)]
    expected = [support.rows([t])[0].tolist() for t in probes]
    size = len(support.productions)
    results: dict[int, list] = {}

    def work(k: int) -> None:
        results[k] = [support.rows([t])[0].tolist() for t in probes]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results.get(k) for k in range(6)] == [expected] * 6
    assert len(support.productions) == size


def test_deep_trees_need_no_recursion():
    depth = 3000
    tree = ParseTree("W", [ParseTree("w")])
    for level in range(depth):
        tree = ParseTree(f"N{level}", [tree])
    # delta along a unary chain of distinct productions: d_0 = lam, d_k = lam * (1 + d_{k-1})
    lam = 0.4
    deltas = [lam]
    for _ in range(depth):
        deltas.append(lam * (1.0 + deltas[-1]))
    self_k = ascending_sum(deltas)
    assert sstk(tree, tree, lam) == self_k
    gram = gram_matrix([tree, T], lam=lam, normalize=False)
    assert gram.matrix.tolist() == [[self_k, 0.0], [0.0, sstk(T, T, lam)]]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([0.4, 0.7, 1.0]))
def test_kernel_is_symmetric_bit_for_bit_on_random_trees(seed, lam):
    rng = random.Random(seed)
    t1, t2 = random_tree(rng, max_nodes=24), random_tree(rng, max_nodes=24)
    table: dict = {}
    assert sstk(t1, t2, lam) == sstk(t2, t1, lam) == _kernel(_compile(t1, table), _compile(t2, table), lam)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(ADJACENCY_TREES) - 1), st.sampled_from([0.3, 0.4, 0.7]))
def test_kernel_is_symmetric_bit_for_bit_on_adjacency_trees(i, lam):
    # one tree against every tree, as the query and as the forest: an
    # order-dependent sum breaks symmetry for about one pair in a hundred at lam = 0.4
    as_query = CompiledTrees(ADJACENCY_TREES, lam, normalize=False).rows([ADJACENCY_TREES[i]])[0]
    as_forest = CompiledTrees([ADJACENCY_TREES[i]], lam, normalize=False).rows(ADJACENCY_TREES)[:, 0]
    assert as_query.tolist() == as_forest.tolist()
    assert as_query.tolist() == reference_rows(ADJACENCY_TREES, [ADJACENCY_TREES[i]], lam, False)[0].tolist()


# Trees rooted at an internal node, so that every self-kernel is positive.
ROOTED = st.builds(ParseTree, st.sampled_from(["A", "B", "x"]), st.lists(TREES, min_size=1, max_size=3))
# Queries add a label and a word no support tree has: productions the
# support's table lacks, beside ones it has.
QUERY_LEAVES = st.builds(ParseTree, st.sampled_from(["x", "y", "w"]))
QUERIES = st.builds(
    ParseTree,
    st.sampled_from(["A", "B", "C"]),
    st.lists(
        st.recursive(
            QUERY_LEAVES,
            lambda kids: st.builds(ParseTree, st.sampled_from(["A", "B", "C", "x"]), st.lists(kids, min_size=1, max_size=3)),
            max_leaves=10,
        ),
        min_size=1,
        max_size=3,
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(ROOTED, min_size=0, max_size=7),
    st.lists(QUERIES, min_size=0, max_size=3),
    st.sampled_from([0.3, 0.4, 1.0]),
    st.booleans(),
)
def test_block_routine_equals_the_per_pair_reference_exactly(trees, queries, lam, normalize):
    # the Gram, and rows for support trees and for trees with unseen productions
    gram = gram_matrix(trees, lam=lam, normalize=normalize).matrix
    assert gram.tobytes() == reference_gram(trees, lam, normalize).tobytes()
    probes = trees[:2] + queries
    rows = CompiledTrees(trees, lam, normalize).rows(probes)
    assert rows.shape == (len(probes), len(trees))
    assert rows.tobytes() == reference_rows(trees, probes, lam, normalize).tobytes()


def test_three_deltas_are_added_in_ascending_order():
    # 0.9 + 1.71 + 2.439 gives 5.0489999999999995, where the correctly
    # rounded sum the kernel once gave is 5.049
    t1 = parse_bracketed("(A (B (B (A x) (A z))))")
    t2 = parse_bracketed("(B (B (A x) (A (B x) (B x) (A y))))")
    deltas = reference_deltas(t1, t2, 0.9)
    want = ascending_sum(deltas)
    assert len(deltas) == 3 and want != math.fsum(deltas)
    assert sstk(t1, t2, 0.9) == sstk(t2, t1, 0.9) == want
    assert gram_matrix([t1, t2], lam=0.9, normalize=False).matrix[0, 1] == want


def test_a_sum_in_the_block_layout_would_depend_on_the_query():
    # the pair's six deltas, five of lam and one of lam * (1 + lam), are one
    # multiset either way round; added in the block's layout they give 6.21
    # with t1 as the query and 6.210000000000001 with t2
    t1 = parse_bracketed("(C (B (B x)))")
    t2 = parse_bracketed("(A (B (B (B z) (B z) (B (B (A (B (B (B (B x))))))))))")
    layouts = [reference_deltas(t1, t2, 0.9), reference_deltas(t2, t1, 0.9)]
    assert sorted(layouts[0]) == sorted(layouts[1])
    in_layout = [reduce(operator.add, deltas, 0.0) for deltas in layouts]
    want = ascending_sum(layouts[0])
    assert in_layout[0] == want != in_layout[1]
    assert sstk(t1, t2, 0.9) == sstk(t2, t1, 0.9) == want
    assert gram_matrix([t1, t2], lam=0.9, normalize=False).matrix[0, 1] == want


def test_a_node_of_50000_children_costs_memory_linear_in_the_nodes(monkeypatch):
    # children padded to the widest node would take 1,501 x 50,000 slots
    # (600 MB); in CSR form they take 50,000.  A small lam keeps the root's
    # 1,500-factor product finite.
    kids = [ParseTree(f"w{k}") if k % 100 >= 3 else ParseTree("P", [ParseTree(f"w{k}")]) for k in range(50_000)]
    wide = ParseTree("S", kids)
    other = parse_bracketed("(S (P w0) (Q q))")
    lam = 0.05
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # so tracemalloc sees every block
    tracemalloc.start()
    began = time.perf_counter()
    try:
        gram = gram_matrix([wide, other], lam=lam, normalize=False).matrix
        row = CompiledTrees([wide, other], lam, normalize=False).rows([wide])[0]
        value = sstk(wide, wide, lam)
        elapsed = time.perf_counter() - began
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = reference_gram([wide, other], lam, False)
    assert gram.tobytes() == want.tobytes()
    assert row.tolist() == want[0].tolist()
    assert value == want[0, 0] and math.isfinite(value)
    assert elapsed < 20.0
    assert peak < 64 * 2**20, peak


@pytest.mark.parametrize("normalize", [True, False])
def test_kernel_row_equals_the_gram_entries_exactly(normalize):
    trees = ADJACENCY_TREES[:90]
    support_rows = list(range(1, len(trees), 3))
    gram = gram_matrix(trees, lam=0.4, normalize=normalize).matrix
    support = CompiledTrees([trees[s] for s in support_rows], 0.4, normalize)
    for i, tree in enumerate(trees):
        if i not in support_rows:
            assert support.rows([tree])[0].tolist() == gram[i, support_rows].tolist(), i


def test_gram_bytes_do_not_depend_on_the_block_cut(monkeypatch):
    trees = ADJACENCY_TREES[:90]
    whole = gram_matrix(trees, lam=0.4, normalize=True).matrix.tobytes()
    nodes = CompiledTrees(trees, 0.4, normalize=False).nodes
    lo, hi = np.arange(90), np.full(90, 90)
    assert len(treekernel._blocks(nodes, nodes, lo, hi)[0]) < 90
    monkeypatch.setattr(treekernel, "BLOCK_PAIRS", 16)
    assert len(treekernel._blocks(nodes, nodes, lo, hi)[0]) == 90
    assert gram_matrix(trees, lam=0.4, normalize=True).matrix.tobytes() == whole


def test_gram_equals_its_transpose_exactly():
    gram = gram_matrix(ADJACENCY_TREES[:90], lam=0.4, normalize=True).matrix
    assert np.array_equal(gram, gram.T)


class LexsortChecked:
    """Replaces ``treekernel._ascending_sums`` (while entered) with a spy
    that checks each block's sums, bit for bit, against the lexsort of every
    pair, and the premise of summing height-0 pairs from their count: they
    are exactly lam, and no other delta is below it.  ``seen`` holds each
    block's height-0 pair count and its other deltas."""

    def __init__(self, monkeypatch):
        self.seen: list[tuple[int, np.ndarray]] = []
        real = treekernel._ascending_sums

        def checked(key, delta, h0, size, lam):
            out = real(key, delta, h0, size, lam)
            assert out.tobytes() == lexsort_block_sums(key, delta, size).tobytes()
            assert (delta[:h0] == lam).all() and (delta[h0:] >= lam).all()
            self.seen.append((h0, delta[h0:].copy()))
            return out

        monkeypatch.setattr(treekernel, "_ascending_sums", checked)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # every block in this process


def block(trees: list[ParseTree], lam: float, q0: int = 0, q1: int | None = None, lo: int = 0) -> np.ndarray:
    """Raw kernels of trees ``q0:q1`` against trees ``lo:``, as one block."""
    q1 = len(trees) if q1 is None else q1
    nodes = CompiledTrees(trees, lam, normalize=False).nodes
    lo, hi = np.full(len(trees), lo), np.full(len(trees), len(trees))
    first, last = treekernel._matches(nodes, nodes, lo, hi)
    return treekernel._kernel_block(nodes, q0, q1, nodes, lo, hi, first, last, lam)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8), st.sampled_from([0.3, 0.4, 0.9, 1.0]))
def test_block_sums_equal_the_lexsort_of_every_pair_bit_for_bit(seed, n, lam):
    rng = random.Random(seed)
    trees = [random_tree(rng, max_nodes=rng.randint(2, 24)) for _ in range(n)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        spy = LexsortChecked(monkeypatch)
        whole = block(trees, lam)
        for q in range(n):  # single-tree blocks
            assert block(trees, lam, q, q + 1).tobytes() == whole[q].tobytes()
        gram_matrix(trees, lam=lam, normalize=False)
        CompiledTrees(trees[1:], lam, normalize=True).rows(trees[:2])
    assert spy.seen


def test_block_sums_cover_ties_at_lam_overflow_and_one_sided_blocks(monkeypatch):
    spy = LexsortChecked(monkeypatch)
    # the A pair is at height 1 and exactly lam, as its B children differ in
    # word, and it ties with the two D pairs at height 0
    tie = [parse_bracketed("(S (A (B x)) (D w) (D w))"), parse_bracketed("(R (A (B y)) (D w))")]
    assert block(tie, 0.4)[0, 1] == ascending_sum([0.4, 0.4, 0.4])
    assert any(h0 and (deltas == 0.4).any() for h0, deltas in spy.seen)
    spy.seen.clear()
    no_height_0 = [parse_bracketed("(A (B x))"), parse_bracketed("(A (B y))")]
    assert block(no_height_0, 0.4, 0, 1, lo=1).tolist() == [[0.4]]
    only_height_0 = [parse_bracketed("(S (B x))"), parse_bracketed("(T (B x) (B x))")]
    assert block(only_height_0, 0.4, 0, 1, lo=1).tolist() == [[0.8]]
    assert [(h0, len(deltas)) for h0, deltas in spy.seen] == [(0, 1), (2, 0)]
    # at lam = 1 a complete binary tree of depth 10 overflows to inf, raw
    def complete(d: int) -> str:
        return "(X w)" if d == 0 else f"(X {complete(d - 1)} {complete(d - 1)})"

    deep = parse_bracketed(complete(10))
    assert np.isinf(block([deep, T], 1.0)[0, 0])
    assert np.isinf(spy.seen[-1][1]).any()


def test_a_tree_over_the_pair_budget_is_refused_before_any_block(monkeypatch):
    # the wide tree makes 3 x 3 X pairs plus its S pair with itself
    small, wide = parse_bracketed("(S (X a))"), parse_bracketed("(S (X a) (X a) (X a))")
    monkeypatch.setattr(treekernel, "MAX_TREE_PAIRS", 9)

    def refuse(*args):
        raise AssertionError("a block was computed")

    with monkeypatch.context() as m:
        m.setattr(treekernel, "_kernel_block", refuse)
        with pytest.raises(TooManyPairs, match="^tree 1 makes 10 node pairs .* limit of 9$"):
            gram_matrix([small, wide])
        with pytest.raises(TooManyPairs, match="^tree 1 makes 10 node pairs"):
            CompiledTrees([small, wide])
    with pytest.raises(TooManyPairs, match="^input tree 1 makes 10 node pairs"):
        CompiledTrees([small]).rows([small, wide])
    monkeypatch.setattr(treekernel, "MAX_TREE_PAIRS", 10)
    assert gram_matrix([small, wide]).matrix.shape == (2, 2)
