from __future__ import annotations

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import outcome, production, reference_parse_bracketed
from claudette.treekernel import _compile, gram_matrix, random_tree
from claudette.trees import (
    MAX_DEPTH,
    EmptyNode,
    ParseTree,
    TrailingInput,
    TreeBankMismatch,
    TreeParseError,
    TreeTooDeep,
    UnbalancedParens,
    align_treebank,
    load_treebank,
    parse_bracketed,
    read_treebank_groups,
    write_treebank_groups,
)

COMPLEX = (
    "(S (NP (NP (NNS Sections)) (PP (IN of) (NP (DT the) (NN platform) (NNS terms))))"
    " (VP (VBP remain) (PP (IN under) (NP (NP (NN review))"
    " (PP (IN of) (NP (QP (CD two) (CC or) (JJR fewer) (NNS boards))))))) (. .))"
)


class TestParseBracketed:
    def test_basic_structure(self):
        tree = parse_bracketed("(S (A a) (B b))")
        assert tree.label == "S"
        assert [c.label for c in tree.children] == ["A", "B"]
        assert all(c.is_preterminal for c in tree.children)
        assert tree.children[0].children[0].label == "a"

    def test_whitespace_insensitive(self):
        messy = "( S\n\t( A   a )\n( B b )  )"
        assert parse_bracketed(messy) == parse_bracketed("(S (A a) (B b))")

    def test_canonical_round_trip(self):
        tree = parse_bracketed(COMPLEX)
        assert tree.to_bracketed() == COMPLEX
        assert parse_bracketed(tree.to_bracketed()) == tree

    def test_period_labels(self):
        tree = parse_bracketed("(. .)")
        assert tree.is_preterminal and tree.label == "." and tree.children[0].label == "."

    def test_unbalanced(self):
        with pytest.raises(UnbalancedParens):
            parse_bracketed("(S (A a)")
        with pytest.raises(UnbalancedParens):
            parse_bracketed("")
        with pytest.raises(UnbalancedParens):
            parse_bracketed("just a token")

    def test_empty_node(self):
        with pytest.raises(EmptyNode):
            parse_bracketed("()")
        with pytest.raises(EmptyNode):
            parse_bracketed("(S)")
        with pytest.raises(EmptyNode):
            parse_bracketed("((A a))")

    def test_trailing_input(self):
        with pytest.raises(TrailingInput):
            parse_bracketed("(A a) extra")
        with pytest.raises(TrailingInput):
            parse_bracketed("(A a) (B b)")

    def test_depth_limit(self):
        deepest = "(A " * MAX_DEPTH + "x" + ")" * MAX_DEPTH
        tree = parse_bracketed(deepest)
        assert tree.depth() == MAX_DEPTH
        assert tree.to_bracketed() == deepest
        assert tree == parse_bracketed(deepest) and hash(tree) == hash(parse_bracketed(deepest))
        for depth in (MAX_DEPTH + 1, 3000):
            with pytest.raises(TreeTooDeep) as err:
                parse_bracketed("(A " * depth + "x" + ")" * depth)
            assert isinstance(err.value, TreeParseError)


class TestParseTree:
    def test_production(self):
        tree = parse_bracketed("(S (A a) (B b))")
        assert production(tree) == ("S", ("A", "B"))
        assert production(tree.children[0]) == ("A", ("a",))
        assert production(tree.children[0].children[0]) is None

    def test_node_counts(self):
        tree = parse_bracketed("(S (A a) (B b))")
        assert tree.n_nodes() == 5
        assert len(tree.internal_nodes()) == 3
        assert len(tree.preterminals()) == 2

    def test_preterminal_definition(self):
        tree = parse_bracketed("(S (A a) (B (C c)))")
        a, b = tree.children
        assert a.is_preterminal
        assert not b.is_preterminal  # child is itself internal

    def test_preorder_nodes(self):
        tree = parse_bracketed("(S (A a) (B b))")
        assert [n.label for n in tree.nodes()] == ["S", "A", "a", "B", "b"]

    def test_depth_counts_bracket_levels(self):
        assert ParseTree("x").depth() == 0
        assert parse_bracketed("(A a)").depth() == 1
        assert parse_bracketed("(S (A a) (B (C c)))").depth() == 3

    def test_deep_tree_built_in_code(self):
        # built, not parsed, so MAX_DEPTH does not apply: nothing may recurse
        def chain(depth):
            tree = ParseTree("x")
            for _ in range(depth):
                tree = ParseTree("A", [tree, ParseTree("y")])
            return tree

        tree = chain(3000)
        text = tree.to_bracketed()
        assert text == "(A " * 3000 + "x" + " y)" * 3000
        assert tree.depth() == 3000
        assert tree == chain(3000) and hash(tree) == hash(chain(3000))
        assert tree != chain(2999)
        assert tree != ParseTree("A", [chain(2999), ParseTree("z")])


class TestTreebank:
    def test_group_round_trip(self, tmp_path):
        groups = [
            [parse_bracketed("(S (A a) (B b))"), parse_bracketed("(A x)")],
            [parse_bracketed(COMPLEX)],
        ]
        path = tmp_path / "trees.txt"
        write_treebank_groups(groups, path)
        assert read_treebank_groups(path) == groups

    def test_a_line_error_names_the_file_and_the_line(self, tmp_path):
        path = tmp_path / "trees.txt"
        path.write_text("(A a)\n\n(B b) extra\n", encoding="utf-8")
        with pytest.raises(TrailingInput) as err:
            read_treebank_groups(path)
        assert str(err.value) == f"{path}: unexpected trailing input starting at 'extra' (line 3)"

    def test_align_validates_document_count(self, mini_corpus):
        with pytest.raises(TreeBankMismatch):
            align_treebank([[parse_bracketed("(A a)")]], mini_corpus)

    def test_align_validates_sentence_counts(self, mini_corpus):
        groups = [[parse_bracketed("(A a)")] for _ in range(mini_corpus.M)]
        with pytest.raises(TreeBankMismatch):
            align_treebank(groups, mini_corpus)

    def test_fixture_treebank_aligns(self, fixtures_dir, mini_corpus):
        treebank = load_treebank(fixtures_dir / "mini_trees.txt", mini_corpus)
        assert set(treebank) == {d.name for d in mini_corpus.documents}
        for doc in mini_corpus.documents:
            assert len(treebank[doc.name]) == len(doc.sentences)

    def test_leaf_equality_and_hash(self):
        assert ParseTree("x") == ParseTree("x")
        assert hash(ParseTree("x")) == hash(ParseTree("x"))
        assert ParseTree("x") != ParseTree("y")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 24))
def test_random_tree_canonical_round_trip(seed, max_nodes):
    tree = random_tree(random.Random(seed), max_nodes=max_nodes)
    assert parse_bracketed(tree.to_bracketed()) == tree
    assert tree.n_nodes() <= max_nodes


_BRACKET_PIECES = ["(", ")", "(S", "(NP", " ", "\t", "\n", "\x1c", "\xa0", "\u2028", "x", "İ", ".", "_", "<"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_BRACKET_PIECES), max_size=40).map("".join))
def test_parse_bracketed_equals_character_loop(text):
    assert outcome(parse_bracketed, text) == outcome(reference_parse_bracketed, text)


_TREE_LINES = ["(S (NP x) (. .))", "(NP İ)", "(S (S x) _)"]
_LINES = st.one_of(
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(_TREE_LINES),
    st.lists(st.sampled_from(_BRACKET_PIECES), max_size=12).map("".join),
)


def _reference_groups(text, path):
    """``read_treebank_groups``'s grouping of ``text``, read from ``path``:
    every line parsed by the character-loop reference, and a line's error
    raised again naming the file and the line."""
    groups, current = [], []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            if current:
                groups.append(current)
                current = []
            continue
        try:
            current.append(reference_parse_bracketed(line))
        except TreeParseError as err:
            raise type(err)(f"{path}: {err} (line {number})") from None
    if current:
        groups.append(current)
    return groups


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINES, max_size=10).map("\n".join))
def test_read_treebank_groups_equals_reference_line_by_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("treebank") / "trees.txt"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_treebank_groups, path) == outcome(_reference_groups, text, path)


class TestSharedLeaves:
    """The reader gives every occurrence of a word in one file one leaf
    object.  Trees that share leaves must behave like trees that do not."""

    @pytest.fixture(scope="class")
    def both(self, fixtures_dir):
        path = fixtures_dir / "planted_trees.txt"
        shared = [t for group in read_treebank_groups(path) for t in group]
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        return shared, [reference_parse_bracketed(line) for line in lines]

    def test_leaves_are_shared_only_by_the_reader(self, both):
        shared, separate = both

        def leaves(trees):
            return [n for t in trees for n in t.nodes() if n.is_leaf]

        words = {n.label for n in leaves(shared)}
        assert len({id(n) for n in leaves(shared)}) == len(words) < len(leaves(shared))
        assert len({id(n) for n in leaves(separate)}) == len(leaves(separate))

    def test_equality_hash_and_text(self, both):
        shared, separate = both
        assert shared == separate
        assert [hash(t) for t in shared] == [hash(t) for t in separate]
        assert [t.to_bracketed() for t in shared] == [t.to_bracketed() for t in separate]

    def test_node_table(self, both):
        shared, separate = both
        a, b = _compile(shared, {}), _compile(separate, {})
        for field in a._fields:
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_gram_bytes(self, both):
        shared, separate = both
        assert gram_matrix(shared).matrix.tobytes() == gram_matrix(separate).matrix.tobytes()


_MB = 1_000_000
_HOSTILE_SECONDS = 5.0  # fixed, about ten times the slowest read (200,000 children)


@pytest.mark.parametrize(
    "text, groups",
    [
        pytest.param("(" * _MB, EmptyNode, id="1MB-of-open"),
        pytest.param("(A " * (_MB // 3), TreeTooDeep, id="1MB-nested"),
        pytest.param(")" * _MB, UnbalancedParens, id="1MB-of-close"),
        pytest.param("(A " + "w" * _MB + ")", [1], id="1MB-token"),
        pytest.param("(S" + " (X a)" * 200_000 + ")", [1], id="200k-children"),
        pytest.param("(A a)\n" * 20_000, [20_000], id="20k-one-line-trees"),
        pytest.param("(A\x00 \x00)\n(B b\x00c)\n", [2], id="NUL-in-words"),
        pytest.param("\x00" * 1000, UnbalancedParens, id="NUL-line"),
        pytest.param("(S (A a) (B b))\r\n(A x)\r\n\r\n(C c)\r\n", [2, 1], id="CRLF"),
    ],
)
def test_hostile_input_in_bounded_time(tmp_path, text, groups):
    """Each hostile input parses, or raises a ``TreeParseError``, within a
    fixed bound, read both as a file and as one string, and the same as the
    references.  ``groups`` is the file's group sizes or its error type."""
    path = tmp_path / "hostile.txt"
    path.write_bytes(text.encode("utf-8"))
    results = {}
    for read, arg in ((read_treebank_groups, path), (parse_bracketed, text)):
        start = time.perf_counter()
        results[read] = outcome(read, arg)
        assert time.perf_counter() - start < _HOSTILE_SECONDS, read.__name__
    read = results[read_treebank_groups]
    if isinstance(groups, list):
        assert [len(g) for g in read] == groups
    else:
        assert read[0] is groups
    assert read == outcome(_reference_groups, text, path)
    parsed = results[parse_bracketed]
    assert isinstance(parsed, ParseTree) or issubclass(parsed[0], TreeParseError)
    assert parsed == outcome(reference_parse_bracketed, text)
