"""The one prediction path behind predict, the service and LOO evaluation.

:func:`decide` turns one document's kernel rows, or its TF-IDF rows as the
``(columns, weights)`` lists of :func:`features.tfidf_rows`, into analyses.
A bundle compiles to ``(name, weights, bias)`` scorers (:func:`_scorers`),
which score TF-IDF rows in Python floats: a linear model's scores become
verdicts, and a chain's per-label scores are the lattice it decodes.  A LOO
fold reads its rows from its corpus table; a :class:`Predictor` makes them
from text, with its scorers and a kernel bundle's support trees compiled
once.  The front ends serialize results with :func:`result_json`, so their
outputs agree byte for byte.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Sequence

from . import seqmodel, svm, treekernel
from .corpus import Sentence, segment_sentences
from .features import DimensionMismatch, MissingTree, tfidf_rows
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


# (score name, weights, bias); the weights index as Python floats
Scorer = tuple[str, array, float]


def _scorers(bundle: ModelBundle) -> list[Scorer] | None:
    """The scorers of a bundle's TF-IDF rows: one per category for
    category-ovr, one per label with bias ``0.0`` for the chain, the model
    itself for linear-bow and a kernel bundle's embedded fallback.  None for
    a kernel bundle with no fallback."""
    kind, model = bundle.kind, bundle.model
    if kind == "category-ovr":
        named = [(cat.symbol, m.w, m.b) for cat, m in model.items()]
    elif kind == "chain":
        named = [(label, w, 0.0) for label, w in zip(model.labels, model.emissions)]
    else:
        linear = model if kind == "linear-bow" else bundle.fallback
        if linear is None:
            return None
        named = [("detection", linear.w, linear.b)]
    size = bundle.vocabulary.size
    for _, w, _ in named:
        if len(w) != size:
            raise DimensionMismatch(f"input dim {size} != weights dim {len(w)}")
    # from the bytes: a tolist() would box every weight first, on every fold
    return [(name, array("d", w.astype(float, copy=False).tobytes()), float(b)) for name, w, b in named]


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
    rows: Sequence[tuple[list[int], list[float]]] | None,
    kernel_rows: Sequence[Sequence[float]] | None = None,
    scorers: Sequence[Scorer] | None = None,
) -> tuple[list[SentenceAnalysis], list[str]]:
    """Analyses of the sentences of one document, and any warnings.

    A kernel model scores ``kernel_rows``, each sentence's kernel values
    against the support set in support order.  Otherwise the bundle's
    ``scorers`` (compiled here if not given) score ``rows``, the sentences'
    TF-IDF rows under its vocabulary.  Linear models (one per category for
    ``category-ovr``, or a kernel model's embedded fallback, with a warning)
    flag a sentence at ``w.x + b >= 0``; the chain decodes the document
    with Viterbi over its per-label scores.
    """
    if kernel_rows is not None:
        scores = svm.predict_kernel(bundle.model, kernel_rows)
        return _verdicts(bundle, sentences, [{"detection": s} for s in scores], [s >= 0.0 for s in scores])
    if scorers is None:
        scorers = _scorers(bundle)
        if scorers is None:
            raise MissingTree("kernel model has no linear fallback and no trees were supplied")
    # each row's scores in scorer order: w[c] * x added to 0.0 left to right,
    # then b; not the builtin sum, which compensates from Python 3.12
    lattice = []
    for cols, xs in rows:
        scores = []
        for _, w, b in scorers:
            dot = 0.0
            for c, x in zip(cols, xs):
                dot += w[c] * x
            scores.append(dot + b)
        lattice.append(scores)
    if bundle.kind == "chain":
        flags = [y == 1 for y in seqmodel._decode(bundle.model, lattice)[0]] if lattice else []
        # informational only: the decoded lattice's emission gap, ignoring transitions
        return _verdicts(bundle, sentences, [{"detection": e[1] - e[0]} for e in lattice], flags)
    names = [name for name, _, _ in scorers]
    return _verdicts(bundle, sentences, [dict(zip(names, scores)) for scores in lattice])


class Predictor:
    """A model bundle compiled for prediction: its scorers, the vocabulary's
    term index and IDF floats, and a kernel bundle's support trees are built
    here, once, so that threads may share the Predictor and no request pays
    for them."""

    def __init__(self, bundle: ModelBundle):
        self.bundle = bundle
        self.kind = bundle.kind
        if bundle.vocabulary is not None:
            bundle.vocabulary._index, bundle.vocabulary._idf_floats
        self.support: treekernel.CompiledTrees | None = None
        if bundle.kind == "kernel-sstk":
            model = bundle.model
            self.support = treekernel.CompiledTrees(model.support_trees, model.lam, model.normalized)
        self.scorers = _scorers(bundle)  # None for a kernel bundle with no fallback

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
        if self.scorers is None:
            raise MissingTree("kernel model has no linear fallback and no trees were supplied")
        rows = tfidf_rows(sentences, trees, self.bundle.vocabulary, self.bundle.feature_config)
        return decide(self.bundle, sentences, rows, scorers=self.scorers)

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

