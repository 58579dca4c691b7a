"""The one prediction path behind predict, the service and LOO evaluation.

:func:`decide` scores one document's sentences from their kernel rows or
else their TF-IDF rows, and :func:`_verdicts` turns the scores into
analyses.  A LOO fold reads the rows from its corpus table as one batch.  A
:class:`Predictor` makes them from text, with a kernel bundle's support trees
compiled once.  A linear scorer (linear-bow, each category-ovr model, a
kernel bundle's fallback) scores text in Python floats, with no numpy call:
:func:`features.tfidf_rows` weights each sentence's row, and each score adds
``w[c] * x`` to ``0.0`` left to right, then ``b``, the bits of
:func:`svm.predict_linear` on the batch.  The front ends serialize results
with :func:`result_json`, so their outputs agree byte for byte.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Sequence

from . import seqmodel, svm, treekernel
from .corpus import Sentence, segment_sentences
from .features import DimensionMismatch, MissingTree, Rows, tfidf_rows, vectorize_all
from .modelio import ModelBundle, canonical_json_bytes
from .trees import ParseTree


@dataclass
class SentenceAnalysis:
    text: str
    start: int
    end: int
    detection: bool
    scores: dict[str, float] = field(default_factory=dict)
    categories: list[str] = field(default_factory=list)


@dataclass
class AnalysisResult:
    text: str
    model_kind: str
    sentences: list[SentenceAnalysis]
    warnings: list[str] = field(default_factory=list)


class TreeAlignmentError(ValueError):
    pass


def _linear_models(bundle: ModelBundle) -> dict[str, svm.LinearModel] | None:
    """The linear models that score a bundle's TF-IDF rows, by score name: one
    per category for category-ovr, or a kernel bundle's embedded fallback.
    None for the chain and for a kernel bundle with no fallback."""
    if bundle.kind == "category-ovr":
        return {cat.symbol: m for cat, m in bundle.model.items()}
    if bundle.kind == "linear-bow":
        return {"detection": bundle.model}
    if bundle.kind == "kernel-sstk" and bundle.fallback is not None:
        return {"detection": bundle.fallback}
    return None


def _verdicts(
    bundle: ModelBundle,
    sentences: Sequence[Sentence],
    score_maps: Sequence[dict[str, float]],
    flags: Sequence[bool] | None = None,
) -> tuple[list[SentenceAnalysis], list[str]]:
    """Analyses of the sentences of one document from their scores, and any
    warnings.

    ``flags`` are the decisions of a model that makes its own: the kernel
    SVM's signs, the chain's Viterbi labels.  Without them the scores are
    linear: a sentence is flagged when any of its scores is >= 0, a
    category-ovr sentence lists the categories that are, and a kernel bundle
    warns that it fell back to its embedded linear model.
    """
    warnings: list[str] = []
    categories: list[list[str]] = [[] for _ in sentences]
    if flags is None:
        flags = [any(s >= 0.0 for s in sm.values()) for sm in score_maps]
        if bundle.kind == "category-ovr":
            categories = [sorted(sym for sym, s in sm.items() if s >= 0.0) for sm in score_maps]
        elif bundle.kind == "kernel-sstk":
            warnings.append("no parse trees supplied; fell back to the embedded linear model")
    analyses = [
        SentenceAnalysis(
            text=sent.text,
            start=sent.start,
            end=sent.end,
            detection=flag,
            scores=sm,
            categories=cats,
        )
        for sent, flag, sm, cats in zip(sentences, flags, score_maps, categories)
    ]
    return analyses, warnings


def decide(
    bundle: ModelBundle,
    sentences: Sequence[Sentence],
    X: Rows | None,
    kernel_rows: Sequence[Sequence[float]] | None = None,
) -> tuple[list[SentenceAnalysis], list[str]]:
    """Analyses of the sentences of one document, and any warnings.

    A kernel model scores ``kernel_rows``, each sentence's kernel values
    against the support set in support order.  Otherwise ``X`` holds the
    sentences' TF-IDF rows under the bundle's vocabulary: linear models (one
    per category for ``category-ovr``, or a kernel model's embedded fallback,
    with a warning) flag a sentence at ``w.x + b >= 0``; the chain model
    decodes the whole document with Viterbi.
    """
    if kernel_rows is not None:
        scores = svm.predict_kernel(bundle.model, kernel_rows)
        return _verdicts(bundle, sentences, [{"detection": s} for s in scores], [s >= 0.0 for s in scores])
    if bundle.kind == "chain":
        lattice = seqmodel._lattice(bundle.model, X) if len(X) else []
        flags = [y == 1 for y in seqmodel._decode(bundle.model, lattice)[0]] if lattice else []
        # informational only: the decoded lattice's emission gap, ignoring transitions
        return _verdicts(bundle, sentences, [{"detection": e[1] - e[0]} for e in lattice], flags)
    linear = _linear_models(bundle)
    if linear is None:
        raise MissingTree("kernel model has no linear fallback and no trees were supplied")
    scores = {name: svm.predict_linear(m, X) for name, m in linear.items()}
    return _verdicts(bundle, sentences, [{name: s[i] for name, s in scores.items()} for i in range(len(X))])


class Predictor:
    """A model bundle compiled for prediction: a kernel bundle's support
    trees, the vocabulary's term index and IDF floats, and each linear
    scorer's weights as an ``array('d')`` are built here, once, so that
    threads may share the Predictor and no request pays for them."""

    def __init__(self, bundle: ModelBundle):
        self.bundle = bundle
        self.kind = bundle.kind
        vocab = bundle.vocabulary
        vocab._index, vocab._idf_floats
        self.support: treekernel.CompiledTrees | None = None
        if bundle.kind == "kernel-sstk":
            model = bundle.model
            self.support = treekernel.CompiledTrees(model.support_trees, model.lam, model.normalized)
        # (score name, weights, bias) of each linear scorer, or None
        self.scorers: list[tuple[str, array, float]] | None = None
        linear = _linear_models(bundle)
        if linear is not None:
            for m in linear.values():
                if m.dim != vocab.size:
                    raise DimensionMismatch(f"input dim {vocab.size} != weights dim {m.dim}")
            self.scorers = [(name, array("d", m.w.tolist()), float(m.b)) for name, m in linear.items()]

    def predict(
        self, sentences: Sequence[Sentence], trees: Sequence[ParseTree] | None = None
    ) -> tuple[list[SentenceAnalysis], list[str]]:
        """:func:`decide` on the sentences of one document.

        ``trees`` must align 1:1 with ``sentences``; a kernel model scores
        their kernel rows, and POS features read them.  A kernel model
        given no trees falls back to its embedded linear model.
        """
        if trees is not None and len(trees) != len(sentences):
            raise TreeAlignmentError(
                f"document segments into {len(sentences)} sentences but {len(trees)} trees were supplied"
            )
        if self.support is not None and trees is not None:
            return decide(self.bundle, sentences, None, self.support.rows(trees))
        vocab, config = self.bundle.vocabulary, self.bundle.feature_config
        if self.scorers is None:  # the chain, or a kernel bundle with no fallback
            return decide(self.bundle, sentences, vectorize_all(sentences, trees, vocab, config))
        score_maps = []
        for cols, weights in tfidf_rows(sentences, trees, vocab, config):
            scores = {}
            for name, w, b in self.scorers:
                dot = 0.0
                for c, x in zip(cols, weights):
                    dot += w[c] * x
                scores[name] = dot + b
            score_maps.append(scores)
        return _verdicts(self.bundle, sentences, score_maps)

    def analyze(self, text: str, trees: Sequence[ParseTree] | None = None) -> AnalysisResult:
        """Segment a plain-text document and predict its sentences."""
        sentences, warnings = self.predict(segment_sentences(text), trees)
        return AnalysisResult(text=text, model_kind=self.kind, sentences=sentences, warnings=warnings)


def analyze_text(
    bundle: ModelBundle, text: str, trees: list[ParseTree] | None = None
) -> AnalysisResult:
    """Compile ``bundle`` and run it over one plain-text document."""
    return Predictor(bundle).analyze(text, trees)


def result_record(result: AnalysisResult) -> dict:
    return {
        "model_kind": result.model_kind,
        "text": result.text,
        "warnings": result.warnings,
        "sentences": [
            {
                "text": s.text,
                "start": s.start,
                "end": s.end,
                "detection": s.detection,
                "scores": {k: float(v) for k, v in s.scores.items()},
                "categories": s.categories,
            }
            for s in result.sentences
        ],
    }


def result_json(result: AnalysisResult) -> bytes:
    return canonical_json_bytes(result_record(result))

