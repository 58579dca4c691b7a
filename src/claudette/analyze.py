"""The one prediction path behind predict, the service and LOO evaluation.

:func:`decide` scores one document's sentences from their kernel rows or
else their TF-IDF rows.  A :class:`Predictor` makes those rows from text, with
a kernel bundle's support trees compiled once; a LOO fold reads them from its
corpus table instead, bit for bit the same.  The front ends serialize results
with :func:`result_json`, so their outputs agree byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import seqmodel, svm, treekernel
from .corpus import Sentence, segment_sentences
from .features import MissingTree, Rows, vectorize_all
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
    warnings: list[str] = []
    categories: list[list[str]] = [[] for _ in sentences]
    if kernel_rows is not None:
        scores = [svm.predict_kernel(bundle.model, row) for row in kernel_rows]
        flags = [s >= 0.0 for s in scores]
        score_maps = [{"detection": s} for s in scores]
    elif bundle.kind == "chain":
        emissions = bundle.model.emissions
        ys = seqmodel.viterbi(bundle.model, X)[0] if len(X) else []
        flags = [y == 1 for y in ys]
        # informational only: emission-score gap, ignoring transitions
        score_maps = [
            {"detection": s1 - s0} for s1, s0 in zip(X.dot(emissions[1]), X.dot(emissions[0]))
        ]
    else:
        if bundle.kind == "category-ovr":
            linear = {cat.symbol: m for cat, m in bundle.model.items()}
        elif bundle.kind == "linear-bow":
            linear = {"detection": bundle.model}
        elif bundle.fallback is None:
            raise MissingTree("kernel model has no linear fallback and no trees were supplied")
        else:
            warnings.append("no parse trees supplied; fell back to the embedded linear model")
            linear = {"detection": bundle.fallback}
        scores = {name: svm.predict_linear(m, X) for name, m in linear.items()}
        score_maps = [{name: s[i] for name, s in scores.items()} for i in range(len(X))]
        flags = [any(s >= 0.0 for s in sm.values()) for sm in score_maps]
        if bundle.kind == "category-ovr":
            categories = [sorted(sym for sym, s in sm.items() if s >= 0.0) for sm in score_maps]
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


class Predictor:
    """A model bundle compiled for prediction: a kernel bundle's support
    trees and the vocabulary's term index are built here, once, so that
    threads may share the Predictor and no request pays for them."""

    def __init__(self, bundle: ModelBundle):
        self.bundle = bundle
        self.kind = bundle.kind
        bundle.vocabulary._index
        self.support: treekernel.CompiledTrees | None = None
        if bundle.kind == "kernel-sstk":
            model = bundle.model
            self.support = treekernel.CompiledTrees(model.support_trees, model.lam, model.normalized)

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
        X = vectorize_all(sentences, trees, self.bundle.vocabulary, self.bundle.feature_config)
        return decide(self.bundle, sentences, X)

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

