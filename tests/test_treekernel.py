from __future__ import annotations

import math
import os
import random
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import _compile, _kernel, reference_gram, reference_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from claudette.treekernel import (
    CompiledTrees,
    DegenerateTree,
    InvalidLambda,
    TooLarge,
    enumerate_fragments_oracle,
    fragment_pair_kernel,
    gram_matrix,
    random_tree,
    sstk,
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


def reference_sstk(t1: ParseTree, t2: ParseTree, lam: float) -> float:
    """The recursive kernel the compiled one replaced, its deltas summed
    with ``math.fsum`` as the compiled one sums them: its values are the ones
    ``sstk`` must reproduce bit for bit."""
    prod = {id(n): n.production() for n in t1.internal_nodes() + t2.internal_nodes()}
    by_prod: dict = {}
    for n in t2.internal_nodes():
        by_prod.setdefault(prod[id(n)], []).append(n)
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

    return math.fsum(
        delta(n1, n2) for n1 in t1.internal_nodes() for n2 in by_prod.get(prod[id(n1)], ())
    )


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
        assert CompiledTrees([T], 1.0).row(T)[0] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_trees(self):
        assert CompiledTrees([T_DISJOINT], 0.4).row(T)[0] == 0.0

    def test_one_sixth_case(self):
        assert CompiledTrees([T_HALF], 1.0).row(T)[0] == pytest.approx(1 / 6, abs=1e-12)

    def test_degenerate_tree(self):
        leaf_only = ParseTree("a")
        with pytest.raises(DegenerateTree):
            CompiledTrees([T], 1.0).row(leaf_only)


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
        row = CompiledTrees(trees, 0.4, True).row(trees[2])
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


@pytest.mark.parametrize("normalize", [True, False])
def test_gram_and_kernel_row_entries_equal_the_pairwise_formula(normalize):
    rng = random.Random(31)
    trees = [random_tree(rng, max_nodes=16) for _ in range(8)]
    probe = random_tree(random.Random(32), max_nodes=16, labels=("A", "B", "D"))
    lam = 0.4

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
        row = CompiledTrees(trees, lam, normalize).row(tree)
        assert row.tolist() == [expected(tree, other) for other in trees]


class TestCompiledTrees:
    def test_unseen_productions_leave_the_table_unchanged(self):
        support = CompiledTrees([T, T_HALF], lam=1.0)
        size = len(support.productions)
        novel = parse_bracketed("(S (A a) (E (F f) (F f)))")
        # only (A a) matches a support tree; the unseen productions still count in the
        # novel tree's self-kernel: S 2*5, (A a) 1, E 2*2, four (F f) pairs 4, total 19
        assert support.row(novel).tolist() == [1.0 / float(np.sqrt(19.0 * 6.0))] * 2
        assert CompiledTrees([T, T_HALF], lam=1.0, normalize=False).row(novel).tolist() == [1.0, 1.0]
        assert len(support.productions) == size

    def test_degenerate_support_tree(self):
        with pytest.raises(DegenerateTree):
            CompiledTrees([T, ParseTree("lonely")], lam=0.4)
        raw = CompiledTrees([T, ParseTree("lonely")], lam=0.4, normalize=False)
        assert raw.row(T).tolist() == [sstk(T, T, 0.4), 0.0]


def test_threads_share_compiled_trees_read_only():
    rng = random.Random(41)
    support = CompiledTrees([random_tree(rng, max_nodes=16) for _ in range(12)], lam=0.4)
    # a fourth label makes unseen productions likely in every probe
    probes = [random_tree(rng, max_nodes=16, labels=("A", "B", "D")) for _ in range(24)]
    expected = [support.row(t).tolist() for t in probes]
    size = len(support.productions)
    results: dict[int, list] = {}

    def work(k: int) -> None:
        results[k] = [support.row(t).tolist() for t in probes]

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
    self_k = math.fsum(deltas)
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
    as_query = CompiledTrees(ADJACENCY_TREES, lam, normalize=False).row(ADJACENCY_TREES[i])
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


def test_three_deltas_are_summed_exactly():
    # three node pairs whose left-to-right sum, in the block's order, misses
    # the correctly rounded sum by one bit: a plain sum serves two deltas only
    t1 = parse_bracketed("(A (B (B (A x) (A z))))")
    t2 = parse_bracketed("(B (B (A x) (A (B x) (B x) (A y))))")
    table: dict = {}
    want = _kernel(_compile(t1, table), _compile(t2, table), 0.9)
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
        row = CompiledTrees([wide, other], lam, normalize=False).row(wide)
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
            assert support.row(tree).tolist() == gram[i, support_rows].tolist(), i


def test_gram_equals_its_transpose_exactly():
    gram = gram_matrix(ADJACENCY_TREES[:90], lam=0.4, normalize=True).matrix
    assert np.array_equal(gram, gram.T)
