from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import csr_dot, left_to_right, reference_term_table, rows_from_pairs, sentence_of, vectorize_all
from hypothesis import strategies as st

from claudette.corpus import LabeledSentence, Sentence, tokenize
from claudette.features import (
    DimensionMismatch,
    FeatureConfig,
    MissingTree,
    TermTable,
    Vocabulary,
    build_vocabulary,
    extract_ngrams,
    extract_terms,
    pos_bag,
)
from claudette.modelio import canonical_json_bytes, vocabulary_from_record, vocabulary_record
from claudette.trees import ParseTree, parse_bracketed


def sent(text: str) -> LabeledSentence:
    return LabeledSentence(start=0, end=len(text), text=text, tokens=tuple(tokenize(text)), labels=frozenset())


def weights_of(text: str, vocab: Vocabulary, config: FeatureConfig) -> dict[str, float]:
    """The TF-IDF row of one sentence as {term: weight}."""
    X = vectorize_all([sent(text)], None, vocab, config)
    assert len(X) == 1 and X.dim == vocab.size
    return {vocab.terms[i]: w for i, w in zip(X.indices.tolist(), X.data.tolist())}


def l2_norm(weights: dict[str, float]) -> float:
    return math.sqrt(sum(w * w for w in weights.values()))


class TestExtractNgrams:
    def test_bigrams(self):
        assert extract_ngrams(["a", "b", "c"], 2) == ["w2:a_b", "w2:b_c"]

    def test_window_longer_than_input(self):
        assert extract_ngrams(["a"], 2) == []

    def test_duplicates_kept(self):
        assert extract_ngrams(["a", "b", "a", "b"], 2) == ["w2:a_b", "w2:b_a", "w2:a_b"]

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            extract_ngrams(["a"], 0)


class TestPosBag:
    def test_two_preterminals(self):
        assert pos_bag(parse_bracketed("(S (A a) (B b))")) == ["p:A", "p:B"]

    def test_single_preterminal(self):
        assert pos_bag(parse_bracketed("(A a)")) == ["p:A"]

    def test_rich_tree_left_to_right(self):
        tree = parse_bracketed(
            "(S (NP (NP (NNS Sections)) (PP (IN of) (NP (DT the) (NN platform) (NNS terms))))"
            " (VP (VBP remain) (PP (IN under) (NP (NP (NN review))"
            " (PP (IN of) (NP (QP (CD two) (CC or) (JJR fewer) (NNS boards))))))) (. .))"
        )
        bag = pos_bag(tree)
        for tag in ("p:NNS", "p:IN", "p:DT", "p:NN", "p:VBP", "p:CD", "p:CC", "p:JJR"):
            assert tag in bag
        assert bag[0] == "p:NNS" and bag[-1] == "p:."


class TestBuildVocabulary:
    def test_unigrams_min_df_one(self):
        vocab = build_vocabulary(
            [sent("a b"), sent("b c")], None, FeatureConfig(ngram_orders=(1,))
        )
        assert vocab.terms == ("w1:a", "w1:b", "w1:c")
        assert vocab.df == (1, 2, 1)
        assert vocab.n_fit == 2

    def test_min_df_two(self):
        vocab = build_vocabulary(
            [sent("a b"), sent("b c")], None, FeatureConfig(ngram_orders=(1,), min_df=2)
        )
        assert vocab.terms == ("w1:b",)

    def test_orders_one_and_two(self):
        vocab = build_vocabulary([sent("a b")], None, FeatureConfig(ngram_orders=(1, 2)))
        assert vocab.terms == ("w1:a", "w1:b", "w2:a_b")

    def test_missing_tree_error(self):
        cfg = FeatureConfig(use_pos=True)
        with pytest.raises(MissingTree):
            build_vocabulary([sent("a b")], None, cfg)
        with pytest.raises(MissingTree):
            build_vocabulary([sent("a b")], [None], cfg)

    def test_pos_terms_included(self):
        cfg = FeatureConfig(ngram_orders=(1,), use_pos=True)
        vocab = build_vocabulary([sent("a b")], [parse_bracketed("(S (A a) (B b))")], cfg)
        assert "p:A" in vocab.terms and "p:B" in vocab.terms

    def test_index_order_is_lexicographic_not_first_seen(self):
        v1 = build_vocabulary([sent("zebra apple")], None, FeatureConfig(ngram_orders=(1,)))
        v2 = build_vocabulary([sent("apple zebra")], None, FeatureConfig(ngram_orders=(1,)))
        assert v1.terms == v2.terms == ("w1:apple", "w1:zebra")


class TestVectorize:
    CFG = FeatureConfig(ngram_orders=(1,))

    def fit(self):
        return build_vocabulary(
            [sent("arbitration binding arbitration"), sent("binding contract")],
            None,
            self.CFG,
        )

    def test_tfidf_example_against_hand_oracle(self):
        vocab = self.fit()
        got = weights_of("arbitration binding arbitration", vocab, self.CFG)

        # hand evaluation of tf * (ln((1+N)/(1+df)) + 1), then L2 normalization
        idf_arb = math.log((1 + 2) / (1 + 1)) + 1
        idf_bind = math.log((1 + 2) / (1 + 2)) + 1
        raw = {"w1:arbitration": 2 * idf_arb, "w1:binding": 1 * idf_bind}
        norm = math.sqrt(sum(w * w for w in raw.values()))
        expected = {t: w / norm for t, w in raw.items()}

        assert got == pytest.approx(expected, abs=1e-12)
        assert got["w1:arbitration"] == pytest.approx(0.9422, abs=1e-4)
        assert got["w1:binding"] == pytest.approx(0.3352, abs=1e-4)

    def test_out_of_vocabulary_gives_zero_vector(self):
        vocab = self.fit()
        assert weights_of("totally unseen words", vocab, self.CFG) == {}

    def test_nonzero_output_is_unit_norm(self):
        vocab = self.fit()
        assert l2_norm(weights_of("binding contract contract", vocab, self.CFG)) == pytest.approx(1.0, abs=1e-9)

    def test_log_tf_variant(self):
        cfg = FeatureConfig(ngram_orders=(1,), log_tf=True)
        vocab = build_vocabulary(
            [sent("arbitration binding arbitration"), sent("binding contract")], None, cfg
        )
        got = weights_of("arbitration binding arbitration", vocab, cfg)
        idf_arb = math.log(3 / 2) + 1
        raw_arb = (1 + math.log(2)) * idf_arb
        raw_bind = 1.0
        norm = math.sqrt(raw_arb**2 + raw_bind**2)
        assert got["w1:arbitration"] == pytest.approx(raw_arb / norm, abs=1e-12)

    def test_sparsity_bound(self):
        vocab = self.fit()
        assert len(weights_of("arbitration binding arbitration", vocab, self.CFG)) <= 3  # extracted terms

    def test_determinism(self):
        vocab1, vocab2 = self.fit(), self.fit()
        assert vocab1 == vocab2
        v1 = vectorize_all([sent("binding arbitration")], None, vocab1, self.CFG)
        v2 = vectorize_all([sent("binding arbitration")], None, vocab2, self.CFG)
        for name in ("indptr", "indices", "data"):
            assert getattr(v1, name).tobytes() == getattr(v2, name).tobytes()


words = st.lists(st.sampled_from("alpha beta gamma delta epsilon zeta".split()), min_size=0, max_size=8)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(words, min_size=1, max_size=6), words)
    def test_norm_is_one_or_zero(self, fit_docs, query):
        cfg = FeatureConfig(ngram_orders=(1, 2))
        corpus = [sent(" ".join(ws)) for ws in fit_docs]
        vocab = build_vocabulary(corpus, None, cfg)
        weights = weights_of(" ".join(query), vocab, cfg)
        assert l2_norm(weights) == pytest.approx(1.0, abs=1e-9) or not weights

    @settings(max_examples=60, deadline=None)
    @given(st.lists(words, min_size=2, max_size=6), words, words)
    def test_dot_product_bound(self, fit_docs, q1, q2):
        cfg = FeatureConfig(ngram_orders=(1,))
        vocab = build_vocabulary([sent(" ".join(ws)) for ws in fit_docs], None, cfg)
        a = weights_of(" ".join(q1), vocab, cfg)
        b = weights_of(" ".join(q2), vocab, cfg)
        assert -1e-9 <= sum(w * b.get(t, 0.0) for t, w in a.items()) <= 1.0 + 1e-9

    def test_idf_monotone_nonincreasing_in_df(self):
        vocab = Vocabulary(terms=("t1", "t2", "t3"), df=(1, 2, 3), n_fit=3)
        idfs = vocab._idf.tolist()
        assert idfs == sorted(idfs, reverse=True)
        assert idfs[0] > idfs[1] > idfs[2]  # strict below n_fit


class TestRows:
    X = rows_from_pairs([[(0, 1.0), (2, 3.0)], [], [(1, 2.0)], [(0, -1.0), (1, 0.5), (3, 4.0)]], 4)

    def test_slice_shares_the_arrays_and_rebases_indptr(self):
        part = self.X[2:4]
        assert len(part) == 2 and part.dim == 4
        assert part.indptr.tolist() == [0, 1, 4]
        assert part.indices.tolist() == [1, 0, 1, 3]
        assert part.data.tolist() == [2.0, -1.0, 0.5, 4.0]
        assert np.shares_memory(part.indices, self.X.indices)
        assert np.shares_memory(part.data, self.X.data)

    def test_empty_slice_and_empty_row(self):
        for empty in (self.X[1:1], self.X[3:1], self.X[9:]):
            assert len(empty) == 0 and empty.indptr.tolist() == [0]
            assert csr_dot(empty, np.ones(4)) == []
        assert self.X[1:2].indptr.tolist() == [0, 0]
        assert csr_dot(self.X[1:2], np.ones(4)) == [0.0]

    def test_dot_is_one_per_row(self):
        w = np.array([2.0, 5.0, 1.0, 0.5])
        assert csr_dot(self.X, w) == [5.0, 0.0, 10.0, 2.5]
        assert csr_dot(self.X[2:], w) == [10.0, 2.5]

    def test_dot_raises_on_a_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            csr_dot(self.X, np.zeros(3))

    def test_helper_rejects_unsorted_repeated_and_out_of_range_indices(self):
        for row in ([(2, 1.0), (1, 1.0)], [(1, 1.0), (1, 1.0)], [(0, 1.0), (9, 1.0)], [(-1, 1.0)]):
            with pytest.raises(ValueError):
                rows_from_pairs([row], 4)


# ---------------------------------------------------------------------------
# The term table against the per-sentence loop it replaced
# ---------------------------------------------------------------------------

def reference_vocabulary(sentences, trees, config) -> Vocabulary:
    df: Counter[str] = Counter()
    for i, sentence in enumerate(sentences):
        df.update(set(extract_terms(sentence, trees[i] if trees else None, config)))
    kept = sorted(t for t, d in df.items() if d >= config.min_df)
    return Vocabulary(kept, [df[t] for t in kept], n_fit=len(sentences))


def reference_vectors(sentences, trees, vocab, config) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each sentence's (indices, weights), vectorized on its own, with each
    IDF computed from the vocabulary's df and n_fit."""
    index = dict(zip(vocab.terms, range(vocab.size)))
    out = []
    for i, sentence in enumerate(sentences):
        counts = Counter(extract_terms(sentence, trees[i] if trees else None, config))
        pairs = []
        for term, count in counts.items():
            idx = index.get(term)
            if idx is not None:
                tf = 1.0 + math.log(count) if config.log_tf else float(count)
                idf = math.log((1.0 + vocab.n_fit) / (1.0 + vocab.df[idx])) + 1.0
                pairs.append((idx, tf * idf))
        pairs.sort()
        indices = np.array([i for i, _ in pairs], dtype=np.int64)
        values = np.array([w for _, w in pairs], dtype=np.float64)
        nrm = math.sqrt(left_to_right(v * v for v in values.tolist()))
        out.append((indices, values / nrm if nrm > 0.0 else values))
    return out


def same_bytes(got, want: list[tuple[np.ndarray, np.ndarray]], dim: int) -> bool:
    """Whether the ``Rows`` batch ``got`` holds the rows ``want``, byte for byte."""
    indptr = np.array([0] + [len(i) for i, _ in want], dtype=np.int64).cumsum()
    indices = np.concatenate([i for i, _ in want] + [np.zeros(0, np.int64)])
    data = np.concatenate([v for _, v in want] + [np.zeros(0, np.float64)])
    return got.dim == dim and all(
        g.dtype == w.dtype and g.tobytes() == w.tobytes()
        for g, w in ((got.indptr, indptr), (got.indices, indices), (got.data, data))
    )


TAG_OF = {"a": "DT", "b": "NN", "c": "NN", "d": "VB", "e": "JJ", "heldout": "UH", "only": "RB"}
mixed_case = st.lists(st.sampled_from(["a", "A", "b", "B", "c", "d", "D", "e"]), max_size=7).map(sentence_of)


def tagged(sentence: Sentence) -> ParseTree:
    if not sentence.tokens:
        return ParseTree("S")  # a bare leaf has no preterminals
    return ParseTree("S", [ParseTree(TAG_OF[t.lower()], [ParseTree(t)]) for t in sentence.tokens])


def sentences_of(*token_tuples: tuple[str, ...]) -> list[Sentence]:
    return [sentence_of(tokens) for tokens in token_tuples]


class TestTermTable:
    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.lists(mixed_case, min_size=1, max_size=5), min_size=2, max_size=5),
        st.data(),
        st.sets(st.integers(1, 3), min_size=1),
        st.integers(1, 3),
        st.booleans(),
        st.booleans(),
    )
    def test_fold_features_are_bit_identical_to_the_loop(self, docs, data, orders, min_df, log_tf, use_pos):
        cfg = FeatureConfig(ngram_orders=tuple(orders), min_df=min_df, log_tf=log_tf, use_pos=use_pos)
        held = data.draw(st.integers(0, len(docs) - 1))
        docs = [list(d) for d in docs]
        docs[held].append(sentence_of(("Heldout", "only", "Heldout")))  # terms no training row has
        docs[(held + 1) % len(docs)].append(sentence_of(()))  # a training sentence with no terms
        sentences = [s for d in docs for s in d]
        trees = [tagged(s) for s in sentences] if use_pos else None
        table = TermTable(sentences, trees, cfg)
        starts = np.cumsum([0] + [len(d) for d in docs])
        rows = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in range(len(docs)) if i != held])
        train = [sentences[r] for r in rows]
        train_trees = [trees[r] for r in rows] if use_pos else None
        vocab = table.vocabulary(rows)
        assert vocab == reference_vocabulary(train, train_trees, cfg)
        assert vocab == build_vocabulary(train, train_trees, cfg)
        seen = {
            t for i, s in enumerate(train)
            for t in extract_terms(s, train_trees[i] if use_pos else None, cfg)
        }
        held_only = set(table.terms) - seen
        assert held_only and held_only.isdisjoint(vocab.terms)  # c10's leakage rule
        X = table.vectorize(vocab, rows)
        want = reference_vectors(train, train_trees, vocab, cfg)
        assert same_bytes(X, want, vocab.size)
        assert same_bytes(vectorize_all(train, train_trees, vocab, cfg), want, vocab.size)

        # the held-out rows, through the table and through a fresh one
        held_rows = np.arange(starts[held], starts[held + 1])
        held_sents = docs[held]
        held_trees = [trees[r] for r in held_rows] if use_pos else None
        want = reference_vectors(held_sents, held_trees, vocab, cfg)
        assert same_bytes(table.vectorize(vocab, held_rows), want, vocab.size)
        assert same_bytes(vectorize_all(held_sents, held_trees, vocab, cfg), want, vocab.size)

    def test_rows_are_sorted_term_ids_with_counts(self):
        table = TermTable(sentences_of(("b", "a", "b"), (), ("c",)), None, FeatureConfig(ngram_orders=(1,)))
        assert table.terms == ("w1:a", "w1:b", "w1:c")
        assert table.indptr.tolist() == [0, 2, 2, 3]
        assert table.indices.tolist() == [0, 1, 2]
        assert table.tf.tolist() == [1.0, 2.0, 1.0]
        X = table.vectorize(table.vocabulary())
        assert X.indptr.tolist() == [0, 2, 2, 3]

    def test_missing_trees_rejected(self):
        cfg = FeatureConfig(ngram_orders=(1,), use_pos=True)
        with pytest.raises(MissingTree):
            TermTable(sentences_of(("a",)), None, cfg)
        with pytest.raises(MissingTree):
            TermTable(sentences_of(("a",)), [None], cfg)


class TestVectorizeAll:
    """A request's rows, built with no table, against the per-sentence reference."""

    VOCAB_TEXT = sentences_of(("a", "b", "a"), ("b", "c"), ("d",))

    def check(self, sentences, trees, vocab, cfg):
        X = vectorize_all(sentences, trees, vocab, cfg)
        assert X.indptr.shape == (len(sentences) + 1,)
        assert same_bytes(X, reference_vectors(sentences, trees, vocab, cfg), vocab.size)
        return X

    def test_no_sentences(self):
        cfg = FeatureConfig()
        vocab = TermTable(self.VOCAB_TEXT, None, cfg).vocabulary()
        X = self.check([], None, vocab, cfg)
        assert X.indptr.tolist() == [0] and X.indices.size == 0

    def test_sentences_with_no_known_term_give_zero_rows(self):
        cfg = FeatureConfig()
        vocab = TermTable(self.VOCAB_TEXT, None, cfg).vocabulary()
        X = self.check(sentences_of(("x", "y"), (), ("a", "x"), ("z",)), None, vocab, cfg)
        assert X.indptr.tolist() == [0, 0, 0, 1, 1]

    def test_an_empty_vocabulary(self):
        cfg = FeatureConfig(min_df=9)
        vocab = file_copy(TermTable(self.VOCAB_TEXT, None, cfg).vocabulary())
        assert vocab.size == 0
        X = self.check(sentences_of(("a", "b"), (), ("c",)), None, vocab, cfg)
        assert X.dim == 0 and X.indptr.tolist() == [0, 0, 0, 0]

    def test_repeated_terms_under_log_tf(self):
        cfg = FeatureConfig(log_tf=True)
        vocab = file_copy(TermTable(self.VOCAB_TEXT, None, cfg).vocabulary())
        X = self.check(sentences_of(("a", "a", "a", "b", "a", "b"), ("b",) * 7, ("a", "c", "a")), None, vocab, cfg)
        assert len(set(X.data.tolist())) > 2

    def test_pos_terms_from_trees(self):
        cfg = FeatureConfig(use_pos=True)
        text = sentences_of(("a", "b", "a"), ("heldout", "only"), ())
        trees = [tagged(s) for s in text]
        vocab = file_copy(TermTable(self.VOCAB_TEXT, [tagged(s) for s in self.VOCAB_TEXT], cfg).vocabulary())
        X = self.check(text, trees, vocab, cfg)
        assert any(vocab.terms[c].startswith("p:") for c in X.indices.tolist())

    def test_missing_trees_rejected(self):
        cfg = FeatureConfig(use_pos=True)
        vocab = TermTable(self.VOCAB_TEXT, [tagged(s) for s in self.VOCAB_TEXT], cfg).vocabulary()
        for trees in (None, [None]):
            with pytest.raises(MissingTree):
                vectorize_all(sentences_of(("a",)), trees, vocab, cfg)


def same_arrays(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def file_copy(vocab: Vocabulary) -> Vocabulary:
    """``vocab`` as a model file saves it and ``load_model`` reads it back."""
    return vocabulary_from_record(json.loads(canonical_json_bytes(vocabulary_record(vocab))))


sentence_lists = st.lists(mixed_case, max_size=8)  # empty sentences and zero rows too
orders = st.sets(st.integers(1, 3), min_size=1).map(tuple)


class TestArrayFolds:
    """The flat table and its array vocabularies against the builds they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(sentence_lists, orders, st.booleans(), st.booleans())
    def test_table_equals_the_counter_build(self, sentences, ngram_orders, log_tf, use_pos):
        cfg = FeatureConfig(ngram_orders=ngram_orders, log_tf=log_tf, use_pos=use_pos)
        trees = [tagged(s) for s in sentences] if use_pos else None
        table = TermTable(sentences, trees, cfg)
        terms, indptr, indices, tf = reference_term_table(sentences, trees, cfg)
        assert table.terms == terms and table.n_rows == len(sentences)
        for got, want in ((table.indptr, indptr), (table.indices, indices), (table.tf, tf)):
            assert same_arrays(got, want)

    @settings(max_examples=150, deadline=None)
    @given(sentence_lists, st.data(), orders, st.integers(1, 4), st.booleans())
    def test_table_vocabulary_equals_its_strings_and_its_file_copy(self, sentences, data, ngram_orders, min_df, log_tf):
        cfg = FeatureConfig(ngram_orders=ngram_orders, min_df=min_df, log_tf=log_tf)
        table = TermTable(sentences, None, cfg)
        picked = data.draw(st.lists(st.booleans(), min_size=len(sentences), max_size=len(sentences)))
        rows = np.flatnonzero(np.array(picked, dtype=bool))
        others = np.flatnonzero(~np.array(picked, dtype=bool))
        vocab = table.vocabulary(rows)
        for X in (table.vectorize(vocab, rows), table.vectorize(vocab, others), table.vectorize(vocab)):
            assert X.dim == vocab.size
        # a fold reads no term string: the column map comes from the ids
        assert not {"terms", "df", "_index"} & set(vars(vocab))

        want = reference_vocabulary([sentences[r] for r in rows], None, cfg)
        assert vocab == want and want == vocab and vocab.size == want.size == len(vocab)
        assert same_arrays(vocab._idf, want._idf)
        assert canonical_json_bytes(vocabulary_record(vocab)) == canonical_json_bytes(vocabulary_record(want))

        # a request's rows under the model file's vocabulary are the fold's rows
        copy = file_copy(vocab)
        for which in (rows, others, None):
            X = table.vectorize(vocab, which)
            Y = vectorize_all(sentences if which is None else [sentences[r] for r in which], None, copy, cfg)
            assert X.dim == Y.dim
            for name in ("indptr", "indices", "data"):
                assert same_arrays(getattr(X, name), getattr(Y, name))

    def test_min_df_above_every_df_gives_an_empty_vocabulary(self):
        sentences = sentences_of(("a", "b"), ("b",), ())
        table = TermTable(sentences, None, FeatureConfig(ngram_orders=(1, 2), min_df=4))
        vocab = table.vocabulary()
        assert vocab.size == 0 and vocab.terms == () and vocab.df == () and vocab.n_fit == 3
        assert vocab == Vocabulary((), (), 3) == file_copy(vocab)
        assert vocab._idf.dtype == np.float64 and vocab._idf.shape == (0,)
        for X in (table.vectorize(vocab), vectorize_all(sentences, None, file_copy(vocab), table.config)):
            assert X.dim == 0 and X.indptr.tolist() == [0, 0, 0, 0]
            assert X.indices.size == X.data.size == 0

    def test_a_vocabulary_from_elsewhere_is_refused(self):
        sentences = sentences_of(("a", "b"), ("b",))
        table = TermTable(sentences, None, FeatureConfig(ngram_orders=(1,)))
        vocab = table.vocabulary()
        other = TermTable(sentences, None, FeatureConfig(ngram_orders=(1,))).vocabulary()
        for foreign in (file_copy(vocab), other):
            assert foreign == vocab
            with pytest.raises(ValueError, match="not taken from this table"):
                table.vectorize(foreign)

    def test_duplicate_or_unsorted_terms_are_refused(self):
        for terms in (("w1:a", "w1:a"), ("w1:b", "w1:a")):
            with pytest.raises(ValueError):
                Vocabulary(terms, (1, 1), 2)
