"""Leave-one-document-out evaluation and metric reporting.

Holding out whole documents prevents within-document leakage: per fold the
vocabulary, IDF statistics, and support set are computed from the training
documents only.  Term extraction and kernel values do not depend on the fold,
so they are computed once per evaluation and every fold reads its training and
held-out inputs from them.  On a corpus of ``FORK_SENTENCES`` sentences or
more the folds run in forked worker processes
(:func:`~claudette.workers.fork_map`), which share that work copy-on-write;
on a smaller one, whose folds take less than a fork costs, in this process.
Their counts come back in fold order and are pooled before computing
metrics, so the report is the same bytes either way.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import svm, treekernel
from .analyze import decide
from .corpus import CATEGORY_BY_SYMBOL, POSITIVE_LEVELS, ClauseCategory, Corpus, LabeledSentence, StatsTable
from .features import FeatureConfig
from .modelio import CorpusTable, MissingTreebank, ModelBundle, fit
from .svm import LengthMismatch
from .trees import ParseTree
from .workers import fork_map


#: Sentences below which :func:`run_detection_eval` runs its folds in this
#: process.  A fork costs about 3 ms: the call, the child's start and its
#: reaping, and the parent's copy-on-write faults after it.  Measured on a
#: 2-core x86-64 machine (Python 3.11, numpy 2.4), medians of 9 alternating
#: passes, one process against forking: at 17 sentences (the ``mini``
#: fixture) ``linear-bow`` took 3.4-5.5 against 7.2-9.7 ms, and at 60 (a
#: ``kernel-sstk`` run) 24.5-28.5 against 28.2-31.8 ms; forking was faster at
#: 140 (``planted``, 1.16-1.71x) and at 320 (``adjacency``, 1.11-1.97x).
FORK_SENTENCES = 100


class TooFewDocuments(ValueError):
    pass


@dataclass(frozen=True)
class FoldSplit:
    held_out: str
    train: tuple[str, ...]


def make_loo_splits(corpus: Corpus) -> list[FoldSplit]:
    """One split per document, in document order."""
    if corpus.M < 2:
        raise TooFewDocuments(f"need at least 2 documents, corpus has {corpus.M}")
    names = [d.name for d in corpus.documents]
    return [
        FoldSplit(held_out=name, train=tuple(n for n in names if n != name))
        for name in names
    ]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class TargetCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def vacuous(self) -> bool:
        return self.tp + self.fp + self.fn == 0

    @property
    def precision(self) -> float:
        d = self.tp + self.fp
        return self.tp / d if d else 0.0

    @property
    def recall(self) -> float:
        d = self.tp + self.fn
        return self.tp / d if d else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class SentenceVerdict:
    """Gold or predicted labels of one sentence: the detection boolean plus
    the set of (potentially unfair) clause categories."""

    detection: bool
    categories: frozenset[ClauseCategory] = frozenset()

    @classmethod
    def from_gold(cls, ls: LabeledSentence) -> "SentenceVerdict":
        return cls(detection=ls.detection_label, categories=ls.positive_categories())


def _aligned(rows: Sequence[tuple[str, ...]]) -> list[str]:
    """Left-aligned columns two spaces apart, without trailing blanks."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


@dataclass
class MetricsReport:
    detection: TargetCounts = field(default_factory=TargetCounts)
    categories: dict[ClauseCategory, TargetCounts] = field(
        default_factory=lambda: {c: TargetCounts() for c in ClauseCategory}
    )
    warnings: list[str] = field(default_factory=list)

    @property
    def micro(self) -> TargetCounts:
        return TargetCounts(
            tp=sum(c.tp for c in self.categories.values()),
            fp=sum(c.fp for c in self.categories.values()),
            fn=sum(c.fn for c in self.categories.values()),
        )

    @property
    def macro_f1(self) -> float:
        scored = [c for c in self.categories.values() if not c.vacuous]
        if not scored:
            return 0.0
        # added left to right: the builtin sum compensates from Python 3.12
        total = 0.0
        for c in scored:
            total += c.f1
        return total / len(scored)

    def add(self, other: "MetricsReport") -> None:
        self.detection.tp += other.detection.tp
        self.detection.fp += other.detection.fp
        self.detection.fn += other.detection.fn
        for cat, counts in other.categories.items():
            mine = self.categories[cat]
            mine.tp += counts.tp
            mine.fp += counts.fp
            mine.fn += counts.fn
        self.warnings.extend(other.warnings)

    def to_record(self) -> dict:
        def counts_record(c: TargetCounts) -> dict:
            return {
                "tp": c.tp,
                "fp": c.fp,
                "fn": c.fn,
                "precision": c.precision,
                "recall": c.recall,
                "f1": c.f1,
                "vacuous": c.vacuous,
            }

        return {
            "detection": counts_record(self.detection),
            "categories": {
                cat.symbol: counts_record(c) for cat, c in self.categories.items()
            },
            "micro": counts_record(self.micro),
            "macro_f1": self.macro_f1,
            "warnings": sorted(self.warnings),
        }

    def render(self) -> str:
        rows = [("target", "tp", "fp", "fn", "P", "R", "F1")]

        def fmt(name: str, c: TargetCounts) -> tuple[str, ...]:
            flag = " (vacuous)" if c.vacuous else ""
            return (
                name + flag,
                str(c.tp),
                str(c.fp),
                str(c.fn),
                f"{c.precision:.3f}",
                f"{c.recall:.3f}",
                f"{c.f1:.3f}",
            )

        rows.append(fmt("detection", self.detection))
        for cat in ClauseCategory:
            rows.append(fmt(cat.display_name, self.categories[cat]))
        rows.append(fmt("micro (categories)", self.micro))
        lines = _aligned(rows)
        lines.append(f"macro-F1 (non-vacuous categories): {self.macro_f1:.3f}")
        for w in sorted(self.warnings):
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"


def compute_metrics(
    gold: Sequence[SentenceVerdict], pred: Sequence[SentenceVerdict]
) -> MetricsReport:
    """Pooled per-target counts over parallel gold/predicted sentence labels."""
    if len(gold) != len(pred):
        raise LengthMismatch(f"{len(gold)} gold sentences but {len(pred)} predictions")
    report = MetricsReport()
    for g, p in zip(gold, pred):
        if g.detection and p.detection:
            report.detection.tp += 1
        elif p.detection:
            report.detection.fp += 1
        elif g.detection:
            report.detection.fn += 1
        for cat in g.categories | p.categories:  # a category in neither adds no count
            counts = report.categories[cat]
            if cat in g.categories and cat in p.categories:
                counts.tp += 1
            elif cat in p.categories:
                counts.fp += 1
            else:
                counts.fn += 1
    return report


# ---------------------------------------------------------------------------
# Fold fitting and prediction
# ---------------------------------------------------------------------------

def fit_detection_fold(
    table: CorpusTable, fold: FoldSplit, model_kind: str, train_cfg: svm.TrainConfig
) -> ModelBundle:
    """Fit one fold's model on the fold's training documents only."""
    return fit(model_kind, table, train_cfg, fold.train)


def run_detection_eval(
    corpus: Corpus,
    feature_cfg: FeatureConfig,
    model_kind: str,
    train_cfg: svm.TrainConfig,
    treebank: dict[str, list[ParseTree]] | None = None,
    lam: float = treekernel.DEFAULT_LAMBDA,
    normalize: bool = True,
) -> MetricsReport:
    """Leave-one-document-out evaluation of the chosen model kind.

    Each fold is fitted by :func:`fit_detection_fold`, as ``train`` fits,
    and its held-out document scored by :func:`decide`, as ``predict`` and
    ``serve`` score.  ``category-ovr`` models also score the categories.
    Every sentence's terms or, for kernel models, the corpus Gram are
    computed once, in one :class:`CorpusTable`; a kernel run builds no terms
    and no vocabulary.  A fold reads from it the held-out TF-IDF rows under
    its vocabulary, or their kernel rows against its support set, which
    equal a :class:`Predictor`'s bit for bit.  The terms, or the Gram of a
    kernel run, are built before the folds run: in this process on a corpus
    of fewer than ``FORK_SENTENCES`` sentences, else forked into at most
    ``len(os.sched_getaffinity(0))`` processes.
    """
    table = CorpusTable(corpus.documents, treebank, feature_cfg, lam, normalize)
    splits = make_loo_splits(corpus)
    # built before any fork, so that every worker reads this one
    if model_kind == "kernel-sstk":
        # a missing tree fails here as it would in the first fold's fit
        with _naming_fold(splits[0]):
            table.gram
    else:
        table.terms

    def fold_report(fold: FoldSplit) -> MetricsReport:
        # a function, so the fold's model is freed before the next one is fitted
        held = table.documents[fold.held_out]
        with _naming_fold(fold):
            bundle = fit_detection_fold(table, fold, model_kind, train_cfg)
        held_rows = table.rows([fold.held_out])
        if model_kind == "kernel-sstk":
            support_rows = table.rows(fold.train)[bundle.model.support_idx]
            kernel_rows = table.gram.matrix[np.ix_(held_rows, support_rows)]
            analyses, _ = decide(bundle, held.sentences, None, kernel_rows)
        else:
            X = table.terms.vectorize(bundle.vocabulary, held_rows)
            bounds, cols, weights = X.indptr.tolist(), X.indices.tolist(), X.data.tolist()
            rows = [(cols[a:b], weights[a:b]) for a, b in zip(bounds, bounds[1:])]
            analyses, _ = decide(bundle, held.sentences, rows)
        gold = [SentenceVerdict.from_gold(ls) for ls in held.sentences]
        pred = [
            SentenceVerdict(
                detection=a.detection,
                categories=frozenset(CATEGORY_BY_SYMBOL[sym] for sym in a.categories),
            )
            for a in analyses
        ]
        counts = compute_metrics(gold, pred)
        for sym, warning in bundle.solver_warnings():
            where = f"fold {fold.held_out}, {sym}" if sym else f"fold {fold.held_out}"
            counts.warnings.append(f"{where}: {warning}")
        return counts

    report = MetricsReport()
    if corpus.N < FORK_SENTENCES:
        folds = [fold_report(fold) for fold in splits]
    else:
        folds = fork_map(fold_report, splits)
    for counts in folds:
        report.add(counts)
    return report


@contextlib.contextmanager
def _naming_fold(fold: FoldSplit):
    """Prefix the fold's name to the data errors a fit raises."""
    try:
        yield
    except (svm.EmptyData, svm.SingleClass, MissingTreebank) as err:
        raise type(err)(f"fold {fold.held_out}: {err}") from err


# ---------------------------------------------------------------------------
# Reference corpus statistics
# ---------------------------------------------------------------------------

#: Published statistics of the official 50-document corpus.
REFERENCE_CLAUSE_COUNTS = {
    ClauseCategory.ARBITRATION: (44, 28),
    ClauseCategory.UNILATERAL_CHANGE: (188, 49),
    ClauseCategory.CONTENT_REMOVAL: (118, 45),
    ClauseCategory.JURISDICTION: (68, 40),
    ClauseCategory.CHOICE_OF_LAW: (70, 47),
    ClauseCategory.LIMITATION_OF_LIABILITY: (296, 49),
    ClauseCategory.UNILATERAL_TERMINATION: (236, 48),
    ClauseCategory.CONTRACT_BY_USING: (117, 48),
}
REFERENCE_DOCUMENTS = 50
REFERENCE_TOTAL_SENTENCES = 12_011
REFERENCE_POSITIVE_SENTENCES = 1_032
REFERENCE_POSITIVE_FRACTION = 0.086
REFERENCE_MIN_RATE = 0.033
REFERENCE_MAX_RATE = 0.162

SENTENCE_TOTAL_RTOL = 0.03  # segmenter divergence allowance
POSITIVE_FRACTION_ATOL = 0.01  # one percentage point
MIN_RATE_CEILING = 0.045
MAX_RATE_FLOOR = 0.14


@dataclass(frozen=True)
class DiffEntry:
    name: str
    expected: str
    actual: str
    status: str  # "pass" | "fail" | "not comparable"
    delta: str = ""


@dataclass(frozen=True)
class DiffReport:
    entries: tuple[DiffEntry, ...]
    comparable: bool

    @property
    def passed(self) -> bool:
        return self.comparable and all(e.status == "pass" for e in self.entries)

    def to_record(self) -> dict:
        return {
            "comparable": self.comparable,
            "passed": self.passed,
            "entries": [
                {
                    "name": e.name,
                    "expected": e.expected,
                    "actual": e.actual,
                    "status": e.status,
                    "delta": e.delta,
                }
                for e in self.entries
            ],
        }

    def render(self) -> str:
        rows = [("check", "expected", "actual", "delta", "status")]
        for e in self.entries:
            rows.append((e.name, e.expected, e.actual, e.delta, e.status))
        return "\n".join(_aligned(rows)) + "\n"


def compare_to_paper_stats(stats: StatsTable) -> DiffReport:
    """Diff a StatsTable against the published reference counts.

    The reference describes the official 50-document corpus, counted under
    the default positive levels (2, 3); any other document count or levels
    mark every entry "not comparable".
    """
    comparable = (
        stats.n_documents == REFERENCE_DOCUMENTS and set(stats.positive_levels) == set(POSITIVE_LEVELS)
    )
    entries: list[DiffEntry] = []

    def entry(name: str, expected: str, actual: str, ok: bool, delta: str = "") -> None:
        status = "pass" if ok else "fail"
        if not comparable:
            status = "not comparable"
        entries.append(DiffEntry(name, expected, actual, status, delta))

    by_cat = {cs.category: cs for cs in stats.per_category}
    for cat, (clauses, docs) in REFERENCE_CLAUSE_COUNTS.items():
        got = by_cat[cat]
        entry(
            f"{cat.display_name}: clauses",
            str(clauses),
            str(got.clause_count),
            got.clause_count == clauses,
            f"{got.clause_count - clauses:+d}",
        )
        entry(
            f"{cat.display_name}: documents",
            str(docs),
            str(got.document_count),
            got.document_count == docs,
            f"{got.document_count - docs:+d}",
        )

    delta_frac = (
        (stats.total_sentences - REFERENCE_TOTAL_SENTENCES) / REFERENCE_TOTAL_SENTENCES
    )
    entry(
        "total sentences",
        f"{REFERENCE_TOTAL_SENTENCES} ±{SENTENCE_TOTAL_RTOL:.0%}",
        str(stats.total_sentences),
        abs(delta_frac) <= SENTENCE_TOTAL_RTOL,
        f"{delta_frac:+.2%}",
    )
    frac_delta = stats.positive_fraction - REFERENCE_POSITIVE_FRACTION
    entry(
        "positive fraction",
        f"{REFERENCE_POSITIVE_FRACTION:.1%} ±{POSITIVE_FRACTION_ATOL:.0%}",
        f"{stats.positive_fraction:.2%}",
        abs(frac_delta) <= POSITIVE_FRACTION_ATOL,
        f"{frac_delta:+.2%}",
    )
    entry(
        "min document rate",
        f"<= {MIN_RATE_CEILING:.1%}",
        f"{stats.min_rate:.2%} ({stats.min_rate_document})",
        stats.min_rate <= MIN_RATE_CEILING,
    )
    entry(
        "max document rate",
        f">= {MAX_RATE_FLOOR:.1%}",
        f"{stats.max_rate:.2%} ({stats.max_rate_document})",
        stats.max_rate >= MAX_RATE_FLOOR,
    )
    return DiffReport(entries=tuple(entries), comparable=comparable)


def render_stats(stats: StatsTable) -> str:
    rows = [("category", "clauses", "documents")]
    for cs in stats.per_category:
        rows.append((cs.category.display_name, str(cs.clause_count), str(cs.document_count)))
    lines = _aligned(rows)
    lines.append("")
    lines.append(f"documents:          {stats.n_documents}")
    lines.append(f"sentences:          {stats.total_sentences}")
    lines.append(
        f"positive sentences: {stats.positive_sentences} ({stats.positive_fraction:.1%})"
    )
    if stats.min_rate_document:
        lines.append(
            f"positive rate range: {stats.min_rate:.1%} ({stats.min_rate_document}) "
            f"to {stats.max_rate:.1%} ({stats.max_rate_document})"
        )
    return "\n".join(lines) + "\n"


def stats_record(stats: StatsTable) -> dict:
    return {
        "per_category": [
            {
                "category": cs.category.symbol,
                "name": cs.category.display_name,
                "clauses": cs.clause_count,
                "documents": cs.document_count,
            }
            for cs in stats.per_category
        ],
        "documents": stats.n_documents,
        "sentences": stats.total_sentences,
        "positive_sentences": stats.positive_sentences,
        "positive_fraction": stats.positive_fraction,
        "min_rate": {"document": stats.min_rate_document, "value": stats.min_rate},
        "max_rate": {"document": stats.max_rate_document, "value": stats.max_rate},
        "positive_levels": list(stats.positive_levels),
    }
