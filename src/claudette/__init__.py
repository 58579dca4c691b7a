"""Toolkit for detecting potentially unfair clauses in Terms of Service."""

from .analyze import Predictor
from .corpus import (
    ClauseCategory,
    Corpus,
    Document,
    LabeledSentence,
    Sentence,
    StatsTable,
    TagSpan,
    corpus_stats,
    load_corpus,
    parse_tagged_text,
    project_labels,
    segment_sentences,
    tokenize,
)
from .evaluation import (
    FoldSplit,
    MetricsReport,
    SentenceVerdict,
    compare_to_paper_stats,
    compute_metrics,
    make_loo_splits,
    run_detection_eval,
)
from .features import (
    FeatureConfig,
    Rows,
    TermTable,
    Vocabulary,
    build_vocabulary,
    extract_ngrams,
    pos_bag,
)
from .modelio import CorpusTable, ModelBundle, fit
from .seqmodel import ChainModel, SeqExample, train_chain, viterbi
from .svm import (
    KernelModel,
    LinearModel,
    TrainConfig,
    predict_kernel,
    predict_linear,
    train_linear,
    train_smo,
)
from .treekernel import KernelGram, enumerate_fragments_oracle, gram_matrix, sstk
from .trees import ParseTree, parse_bracketed

__version__ = "0.1.0"

__all__ = [
    "ChainModel",
    "ClauseCategory",
    "Corpus",
    "CorpusTable",
    "Document",
    "FeatureConfig",
    "FoldSplit",
    "KernelGram",
    "KernelModel",
    "LabeledSentence",
    "LinearModel",
    "MetricsReport",
    "ModelBundle",
    "ParseTree",
    "Predictor",
    "Rows",
    "SentenceVerdict",
    "Sentence",
    "SeqExample",
    "StatsTable",
    "TagSpan",
    "TermTable",
    "TrainConfig",
    "Vocabulary",
    "build_vocabulary",
    "compare_to_paper_stats",
    "compute_metrics",
    "corpus_stats",
    "enumerate_fragments_oracle",
    "extract_ngrams",
    "fit",
    "gram_matrix",
    "load_corpus",
    "make_loo_splits",
    "parse_bracketed",
    "parse_tagged_text",
    "pos_bag",
    "predict_kernel",
    "predict_linear",
    "project_labels",
    "run_detection_eval",
    "segment_sentences",
    "sstk",
    "tokenize",
    "train_chain",
    "train_linear",
    "train_smo",
    "viterbi",
]
