"""Leave-one-document-out evaluation and metric reporting.

Holding out whole documents prevents within-document leakage: per fold the
vocabulary, IDF statistics, and support set are computed from the training
documents only.  Term extraction and kernel values do not depend on the fold,
so they are computed once per evaluation and every fold reads its training and
held-out inputs from them.  Counts are pooled across folds before computing
metrics.
"""

from __future__ import annotations

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
        return sum(c.f1 for c in scored) / len(scored)

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
        for cat in ClauseCategory:
            in_g = cat in g.categories
            in_p = cat in p.categories
            counts = report.categories[cat]
            if in_g and in_p:
                counts.tp += 1
            elif in_p:
                counts.fp += 1
            elif in_g:
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
    Every sentence's terms and, for kernel models, the corpus Gram are
    computed once, in one :class:`CorpusTable`.  A fold reads from it the
    held-out TF-IDF rows under its vocabulary, or their kernel rows against
    its support set, which equal a :class:`Predictor`'s bit for bit.
    """
    table = CorpusTable(corpus.documents, treebank, feature_cfg, lam, normalize)

    def fold_report(fold: FoldSplit) -> MetricsReport:
        # a function, so the fold's model is freed before the next one is fitted
        held = corpus.document(fold.held_out)
        try:
            bundle = fit_detection_fold(table, fold, model_kind, train_cfg)
        except (svm.EmptyData, svm.SingleClass, MissingTreebank) as err:
            raise type(err)(f"fold {fold.held_out}: {err}") from err
        sentences = [ls.sentence for ls in held.sentences]
        held_rows = table.rows([fold.held_out])
        if model_kind == "kernel-sstk":
            support_rows = table.rows(fold.train)[bundle.model.support_idx]
            kernel_rows = table.gram.matrix[np.ix_(held_rows, support_rows)]
            analyses, _ = decide(bundle, sentences, None, kernel_rows)
        else:
            analyses, _ = decide(bundle, sentences, table.terms.vectorize(bundle.vocabulary, held_rows))
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
    for fold in make_loo_splits(corpus):
        report.add(fold_report(fold))
    return report


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
