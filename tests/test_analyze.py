"""Text scored by a linear scorer in Python floats against :func:`decide` on
the numpy batch: the same analyses, the same bits."""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest

from claudette import features, svm
from claudette.analyze import Predictor, decide
from claudette.corpus import ClauseCategory, load_corpus, segment_sentences
from claudette.features import FeatureConfig, MissingTree, Vocabulary, vectorize_all
from claudette.modelio import CorpusTable, ModelBundle, fit
from claudette.svm import LinearModel, TrainConfig
from claudette.trees import load_treebank

FIXTURES = Path(__file__).parent / "fixtures"
CORPORA = ("mini", "planted", "adjacency")
CONFIGS = {
    "default": FeatureConfig(),
    "log_tf": FeatureConfig(log_tf=True),
    "min_df-2": FeatureConfig(min_df=2),
    "ngrams-1-2-3": FeatureConfig(ngram_orders=(1, 2, 3)),
    "use_pos": FeatureConfig(use_pos=True),
}
KINDS = ("linear-bow", "category-ovr", "kernel-sstk")


@functools.lru_cache(maxsize=None)
def corpus_with_trees(name: str):
    corpus = load_corpus(FIXTURES / name)
    return corpus, load_treebank(FIXTURES / f"{name}_trees.txt", corpus)


@functools.lru_cache(maxsize=None)
def bundles(name: str, config: str) -> dict[str, ModelBundle]:
    """The three linear scorers' bundles fitted on corpus ``name``; the
    kernel bundle carries the linear-bow model as its fallback, as ``train``
    attaches it."""
    corpus, treebank = corpus_with_trees(name)
    table = CorpusTable(corpus.documents, treebank, CONFIGS[config])
    fitted = {kind: fit(kind, table, TrainConfig(seed=7)) for kind in KINDS}
    fitted["kernel-sstk"].fallback = fitted["linear-bow"].model
    return fitted


def linear_models(bundle: ModelBundle) -> dict[str, LinearModel]:
    if bundle.kind == "category-ovr":
        return {cat.symbol: m for cat, m in bundle.model.items()}
    return {"detection": bundle.fallback if bundle.kind == "kernel-sstk" else bundle.model}


def batch_decision(bundle: ModelBundle, sentences, trees=None):
    return decide(bundle, sentences, vectorize_all(sentences, trees, bundle.vocabulary, bundle.feature_config))


def same(got, want) -> bool:
    """Equal analyses and warnings, every score to the bit: a float's repr
    round-trips, and tells 0.0 from -0.0."""
    return repr(got) == repr(want)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("corpus", CORPORA)
@pytest.mark.parametrize("kind", KINDS)
def test_text_scores_equal_decide_on_the_batch(kind, corpus, config):
    bundle = bundles(corpus, config)[kind]
    predictor = Predictor(bundle)
    assert predictor.scorers is not None
    documents, treebank = corpus_with_trees(corpus)
    for doc in documents.documents:
        sentences = segment_sentences(doc.plain_text)
        trees = treebank[doc.name] if bundle.feature_config.use_pos else None
        if kind == "kernel-sstk" and trees is not None:
            # trees make the kernel score kernel rows; without them its
            # fallback has no POS terms to read
            with pytest.raises(MissingTree):
                predictor.predict(sentences)
            continue
        got = predictor.predict(sentences, trees)
        assert same(got, batch_decision(bundle, sentences, trees)), doc.name
        assert all(type(s) is float for a in got[0] for s in a.scores.values())


@pytest.mark.parametrize("kind", KINDS)
def test_a_sentence_with_no_vocabulary_term_scores_exactly_b(kind):
    bundle = bundles("mini", "default")[kind]
    sentences = segment_sentences("The provider may terminate the account. Zzyzx qwv plonk")
    X = vectorize_all(sentences, None, bundle.vocabulary, bundle.feature_config)
    assert len(X) == 2 and X.indptr[1] == X.indptr[2] > 0
    got = Predictor(bundle).predict(sentences)
    assert same(got, batch_decision(bundle, sentences))
    assert got[0][1].scores == {name: m.b for name, m in linear_models(bundle).items()}


@pytest.mark.parametrize("kind", KINDS)
def test_an_empty_vocabulary_scores_every_sentence_b(kind):
    fitted = bundles("mini", "default")[kind]
    biases = [-0.25 + 0.125 * i for i in range(len(ClauseCategory))]
    empty = {cat: LinearModel(w=np.zeros(0), b=b) for cat, b in zip(ClauseCategory, biases)}
    if kind == "category-ovr":
        scorer = {"model": empty}
    elif kind == "linear-bow":
        scorer = {"model": empty[ClauseCategory.JURISDICTION]}
    else:
        scorer = {"fallback": empty[ClauseCategory.ARBITRATION]}
    bundle = dataclasses.replace(fitted, vocabulary=Vocabulary((), (), 5), **scorer)
    sentences = segment_sentences("The provider may terminate the account. Another sentence here.")
    got = Predictor(bundle).predict(sentences)
    assert same(got, batch_decision(bundle, sentences))
    want = {name: m.b for name, m in linear_models(bundle).items()}
    assert [a.scores for a in got[0]] == [want, want]
    assert any(a.detection for a in got[0]) == (max(want.values()) >= 0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_a_body_with_no_sentence(kind):
    bundle = bundles("mini", "default")[kind]
    sentences = segment_sentences(" \n\t ")
    assert sentences == []
    got = Predictor(bundle).predict(sentences)
    assert same(got, batch_decision(bundle, sentences))
    assert got[0] == []


@pytest.mark.parametrize("kind", KINDS)
def test_linear_text_requests_make_no_numpy_call(kind, monkeypatch):
    bundle = bundles("mini", "log_tf")[kind]
    predictor = Predictor(bundle)
    text = (FIXTURES / "mini" / "alpha.txt").read_text(encoding="utf-8")
    want = predictor.analyze(text)
    # vectorize_all, Rows and predict_linear reach numpy through these names
    monkeypatch.setattr(features, "np", None)
    monkeypatch.setattr(svm, "np", None)
    assert same(predictor.analyze(text), want)
