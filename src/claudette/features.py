"""Sparse TF-IDF sentence representations over word n-grams and POS tags.

The "document" unit for document frequency is the sentence, since the
classification unit is the sentence.  Term namespaces keep word n-grams
("w1:", "w2:", ...) and POS tags ("p:") from colliding in one vocabulary.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Sequence

import numpy as np

from .trees import ParseTree


class MissingTree(ValueError):
    """POS features were requested but a sentence has no parse tree."""


@dataclass(frozen=True)
class FeatureConfig:
    ngram_orders: tuple[int, ...] = (1, 2)
    use_pos: bool = False
    min_df: int = 1
    log_tf: bool = False

    def __post_init__(self) -> None:
        orders = tuple(sorted(set(self.ngram_orders)))
        if not orders or any(n < 1 for n in orders):
            raise ValueError("ngram_orders must be a non-empty set of integers >= 1")
        object.__setattr__(self, "ngram_orders", orders)
        if self.min_df < 1:
            raise ValueError("min_df must be >= 1")


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Rows:
    """A batch of sparse rows in CSR form with one dimension.

    Row ``r`` holds the columns ``indices[indptr[r]:indptr[r + 1]]``, strictly
    increasing in [0, dim), with the weights at the same positions of
    ``data``.  ``X[a:b]`` is the batch of rows a..b-1: it shares ``indices``
    and ``data`` and rebases ``indptr``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dim: int

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, rows: slice) -> "Rows":
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise ValueError("Rows slices must be contiguous")
        indptr = self.indptr[start : max(start, stop) + 1]
        a, b = int(indptr[0]), int(indptr[-1])
        return Rows(indptr - a, self.indices[a:b], self.data[a:b], self.dim)

    def dot(self, w: np.ndarray) -> list[float]:
        """``w . x`` of every row: one dot product per row out of one gather,
        0.0 for an empty row."""
        if w.shape[0] != self.dim:
            raise DimensionMismatch(f"input dim {self.dim} != weights dim {w.shape[0]}")
        gathered = w[self.indices]
        data = self.data
        bounds = self.indptr.tolist()
        return [float(gathered[a:b].dot(data[a:b])) for a, b in zip(bounds, bounds[1:])]


class Vocabulary:
    """Immutable term -> dense index map with per-term document frequencies.

    Indices are assigned in lexicographic term order so the mapping does not
    depend on input ordering.
    """

    def __init__(self, terms: Sequence[str], df: Sequence[int], n_fit: int):
        if len(terms) != len(df):
            raise ValueError("terms and df must align")
        if list(terms) != sorted(terms):
            raise ValueError("terms must be lexicographically sorted")
        self.terms = tuple(terms)
        self.df = tuple(map(int, df))
        self.n_fit = int(n_fit)
        self._index = dict(zip(self.terms, range(len(self.terms))))
        # one math.log per distinct df: many terms share a df
        idf_of = {d: math.log((1.0 + self.n_fit) / (1.0 + d)) + 1.0 for d in set(self.df)}
        self._idf = np.fromiter(map(idf_of.__getitem__, self.df), dtype=np.float64, count=len(self.df))

    @property
    def size(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Vocabulary)
            and self.terms == other.terms
            and self.df == other.df
            and self.n_fit == other.n_fit
        )

    def __len__(self) -> int:
        return len(self.terms)


def extract_ngrams(tokens: Sequence[str], n: int) -> list[str]:
    """Consecutive n-token windows, underscore-joined and namespaced "w{n}:"."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > len(tokens):  # no window, and no n slices to build
        return []
    prefix = f"w{n}:"
    return [prefix + "_".join(gram) for gram in zip(*(tokens[i:] for i in range(n)))]


def pos_bag(tree: ParseTree) -> list[str]:
    """Preterminal labels in left-to-right order, namespaced "p:"."""
    return ["p:" + node.label for node in tree.preterminals()]


def _tokens_of(sentence) -> Sequence[str]:
    if hasattr(sentence, "sentence"):  # LabeledSentence
        return sentence.sentence.tokens
    if hasattr(sentence, "tokens"):  # Sentence
        return sentence.tokens
    return sentence  # raw token sequence


def extract_terms(sentence, tree: ParseTree | None, config: FeatureConfig) -> list[str]:
    """All feature terms of one sentence under ``config`` (duplicates kept)."""
    tokens = _tokens_of(sentence)
    terms: list[str] = []
    for n in config.ngram_orders:
        terms.extend(extract_ngrams(tokens, n))
    if config.use_pos:
        if tree is None:
            raise MissingTree("POS features enabled but no parse tree supplied")
        terms.extend(pos_bag(tree))
    return terms


class TermTable:
    """Each sentence's term counts under one feature config, extracted once.

    Every distinct term gets an id in lexicographic order, so the terms a
    vocabulary keeps from any subset of rows are indexed in id order, and a
    row's entries, sorted by id, stay sorted under any vocabulary.  Rows are
    stored in CSR form: the entries of row ``r`` are the term ids
    ``indices[indptr[r]:indptr[r + 1]]`` (increasing) with their term
    frequencies in ``tf`` (the raw count, or ``1 + ln(count)`` under
    ``log_tf``).  LOO builds one table for the corpus, and each fold computes
    only its df, IDF, vocabulary and weights from its training rows.
    """

    def __init__(self, sentences: Sequence, trees: Sequence[ParseTree | None] | None, config: FeatureConfig):
        if config.use_pos and trees is None:
            raise MissingTree("POS features enabled but no trees supplied")
        counts = [
            Counter(extract_terms(s, trees[i] if trees is not None else None, config))
            for i, s in enumerate(sentences)
        ]
        self.config = config
        self.n_rows = len(counts)
        self.terms = tuple(sorted(set().union(*counts)))
        term_id = dict(zip(self.terms, range(len(self.terms))))
        lengths = [len(c) for c in counts]
        self.indptr = np.array(list(accumulate(lengths, initial=0)), dtype=np.int64)
        ids = np.array([term_id[t] for c in counts for t in c], dtype=np.int64)
        raw = [n for c in counts for n in c.values()]
        # math.log, not np.log, which may round differently
        tf = np.array([1.0 + math.log(n) for n in raw] if config.log_tf else raw, dtype=np.float64)
        order = np.lexsort((ids, np.repeat(np.arange(self.n_rows), lengths)))  # by row, then id
        self.indices, self.tf = ids[order], tf[order]

    def vocabulary(self, rows: np.ndarray | None = None) -> Vocabulary:
        """Every term with document frequency >= min_df over ``rows`` (all
        rows by default); terms that occur only in other rows stay out."""
        if rows is None:
            ids, n_fit = self.indices, self.n_rows
        else:
            selected = np.zeros(self.n_rows, dtype=bool)
            selected[rows] = True
            ids, n_fit = self.indices[np.repeat(selected, np.diff(self.indptr))], len(rows)
        df = np.bincount(ids, minlength=len(self.terms))
        kept = np.flatnonzero(df >= self.config.min_df)
        return Vocabulary([self.terms[i] for i in kept], df[kept].tolist(), n_fit=n_fit)

    def vectorize(self, vocab: Vocabulary, rows: np.ndarray | None = None) -> Rows:
        """L2-normalized TF-IDF rows of ``rows`` (all rows by default), in order.

        weight(t) = tf(t) * (ln((1 + N_fit) / (1 + df(t))) + 1).  Terms
        outside the vocabulary are ignored; an all-zero row stays all-zero.
        """
        column = np.fromiter(
            map(vocab._index.get, self.terms, repeat(-1)), np.int64, len(self.terms)
        )
        cols = column[self.indices]
        known = cols >= 0
        bounds = np.concatenate(([0], np.cumsum(known)))[self.indptr]
        cols = cols[known]
        weights = self.tf[known] * vocab._idf[cols]
        if rows is not None:
            starts = bounds[:-1][rows]
            lengths = bounds[1:][rows] - starts
            bounds = np.concatenate(([0], np.cumsum(lengths)))
            picked = np.repeat(starts - bounds[:-1], lengths) + np.arange(bounds[-1])
            cols, weights = cols[picked], weights[picked]
        ends = bounds.tolist()
        for a, b in zip(ends, ends[1:]):
            v = weights[a:b]
            nrm = math.sqrt(v.dot(v))
            if nrm > 0.0:
                v /= nrm
        return Rows(bounds, cols, weights, vocab.size)


def build_vocabulary(
    sentences: Sequence,
    trees: Sequence[ParseTree | None] | None,
    config: FeatureConfig,
) -> Vocabulary:
    """Collect every term with sentence-level document frequency >= min_df."""
    return TermTable(sentences, trees, config).vocabulary()


def vectorize_all(
    sentences: Sequence,
    trees: Sequence[ParseTree | None] | None,
    vocab: Vocabulary,
    config: FeatureConfig,
) -> Rows:
    """L2-normalized TF-IDF rows of ``sentences`` (see :meth:`TermTable.vectorize`)."""
    return TermTable(sentences, trees, config).vectorize(vocab)
