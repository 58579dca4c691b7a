"""The one prediction path behind predict, the service and LOO evaluation.

A :class:`Predictor` is a model bundle compiled once: it takes the bundle's
typed models and compiles the kernel support trees, with their self-kernels.
The predict command, the service and every LOO fold run it, and the front
ends serialize its result with :func:`result_json`, so their outputs agree
byte for byte.  A kernel LOO fold hands :meth:`Predictor.predict` its kernel
rows, read from the corpus Gram, and so compiles no support trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import seqmodel, svm, treekernel
from .corpus import Sentence, segment_sentences
from .features import MissingTree, vectorize_all
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


class Predictor:
    """A model bundle compiled for prediction.

    Linear models (one per category for ``category-ovr``, the embedded
    fallback for ``kernel-sstk``) score a sentence as ``w.x + b`` and flag it
    at score >= 0; the chain model decodes the whole document with Viterbi;
    the kernel model scores each tree against the support trees.

    With ``compile_support=False`` a kernel model's support trees are not
    compiled, and :meth:`predict` must be given the kernel rows.
    """

    def __init__(self, bundle: ModelBundle, compile_support: bool = True):
        self.kind = bundle.kind
        self.vocabulary = bundle.vocabulary
        self.feature_config = bundle.feature_config
        self.linear: dict[str, svm.LinearModel] = {}
        self.chain: seqmodel.ChainModel | None = None
        self.kernel: svm.KernelModel | None = None
        self.support: treekernel.CompiledTrees | None = None
        if bundle.kind == "linear-bow":
            self.linear = {"detection": bundle.model}
        elif bundle.kind == "category-ovr":
            self.linear = {cat.symbol: m for cat, m in bundle.model.items()}
        elif bundle.kind == "chain":
            self.chain = bundle.model
        else:
            self.kernel = bundle.model
            if compile_support:
                self.support = treekernel.CompiledTrees(
                    self.kernel.support_trees, self.kernel.lam, self.kernel.normalized
                )
            if bundle.fallback is not None:
                self.linear = {"detection": bundle.fallback}

    def predict(
        self,
        sentences: Sequence[Sentence],
        trees: Sequence[ParseTree] | None = None,
        kernel_rows: Sequence[Sequence[float]] | None = None,
    ) -> tuple[list[SentenceAnalysis], list[str]]:
        """Analyses of the sentences of one document, and any warnings.

        ``trees`` must align 1:1 with ``sentences``; it is only consulted by
        kernel models, which otherwise fall back to their embedded linear
        model with a warning, and by POS features.  ``kernel_rows``, one per
        tree, are the trees' kernel values against the support set, in
        support order; a kernel model given them skips computing them.
        """
        if trees is not None and len(trees) != len(sentences):
            raise TreeAlignmentError(
                f"document segments into {len(sentences)} sentences but {len(trees)} trees were supplied"
            )
        warnings: list[str] = []
        categories: list[list[str]] = [[] for _ in sentences]
        if self.kernel is not None and trees is not None:
            if kernel_rows is None:
                kernel_rows = [self.support.row(t) for t in trees]
            scores = [svm.predict_kernel(self.kernel, row) for row in kernel_rows]
            flags = [s >= 0.0 for s in scores]
            score_maps = [{"detection": s} for s in scores]
        elif self.chain is not None:
            emissions = self.chain.emissions
            X = vectorize_all(sentences, trees, self.vocabulary, self.feature_config)
            ys = seqmodel.viterbi(self.chain, X)[0] if len(X) else []
            flags = [y == 1 for y in ys]
            # informational only: emission-score gap, ignoring transitions
            score_maps = [
                {"detection": s1 - s0} for s1, s0 in zip(X.dot(emissions[1]), X.dot(emissions[0]))
            ]
        else:
            if self.kernel is not None:
                if not self.linear:
                    raise MissingTree("kernel model has no linear fallback and no trees were supplied")
                warnings.append("no parse trees supplied; fell back to the embedded linear model")
            X = vectorize_all(sentences, trees, self.vocabulary, self.feature_config)
            scores = {name: svm.predict_linear(m, X) for name, m in self.linear.items()}
            score_maps = [{name: s[i] for name, s in scores.items()} for i in range(len(X))]
            flags = [any(s >= 0.0 for s in sm.values()) for sm in score_maps]
            if self.kind == "category-ovr":
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

