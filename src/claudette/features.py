"""Sparse TF-IDF sentence representations over word n-grams and POS tags.

The "document" unit for document frequency is the sentence, since the
classification unit is the sentence.  Term namespaces keep word n-grams
("w1:", "w2:", ...) and POS tags ("p:") from colliding in one vocabulary.

LOO folds weight rows of one :class:`TermTable` as array operations.  Text
scored under a saved model goes through :func:`tfidf_rows`, which weights
each sentence's row in Python floats, with no table and no numpy call, and
gives the same bits as a table would.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from itertools import chain
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

    @functools.cached_property
    def row_of_entry(self) -> np.ndarray:
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """Each row's ``values`` (one per entry) added to ``0.0`` left to right,
        ``0.0`` for an empty row: one bincount, which adds in input order, over
        ``row_of_entry``, each entry's row, built once per batch.  Every pinned
        sparse row sum goes through here, so none depends on the BLAS kernel."""
        return np.bincount(self.row_of_entry, values, len(self))

    def dot(self, w: np.ndarray) -> list[float]:
        """``w . x`` of every row: one gather, one multiply, :meth:`row_sums`."""
        if w.shape[0] != self.dim:
            raise DimensionMismatch(f"input dim {self.dim} != weights dim {w.shape[0]}")
        return self.row_sums(w[self.indices] * self.data).tolist()


class Vocabulary:
    """Immutable term -> dense index map with per-term document frequencies.

    Indices are assigned in lexicographic term order so the mapping does not
    depend on input ordering.  A vocabulary taken from a :class:`TermTable`
    holds the table's kept term ids and their df as arrays; its term tuple,
    df tuple, term -> index dict and IDF floats are built only when read: to
    save or compare it, or to vectorize text with :func:`tfidf_rows`.
    """

    def __init__(self, terms: Sequence[str], df: Sequence[int], n_fit: int):
        terms = tuple(terms)
        if len(terms) != len(df):
            raise ValueError("terms and df must align")
        if any(a >= b for a, b in zip(terms, terms[1:])):
            raise ValueError("terms must be strictly increasing")
        self.terms = terms
        self._source = self._ids = None
        self._set_df(np.array(df, dtype=np.int64), n_fit)

    @classmethod
    def _of_table(cls, source: tuple[str, ...], ids: np.ndarray, df: np.ndarray, n_fit: int) -> "Vocabulary":
        """The terms ``source[ids]`` (``ids`` increasing) with their ``df``."""
        vocab = cls.__new__(cls)
        vocab._source, vocab._ids = source, ids
        vocab._set_df(df, n_fit)
        return vocab

    def _set_df(self, df: np.ndarray, n_fit: int) -> None:
        self._df = df
        self.n_fit = int(n_fit)
        self._idf = _per_distinct(df, lambda d: math.log((1.0 + self.n_fit) / (1.0 + d)) + 1.0)

    @functools.cached_property
    def terms(self) -> tuple[str, ...]:
        return tuple(map(self._source.__getitem__, self._ids.tolist()))

    @functools.cached_property
    def df(self) -> tuple[int, ...]:
        return tuple(self._df.tolist())

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self.terms, range(self.size)))

    @functools.cached_property
    def _idf_floats(self) -> array:
        """``_idf`` as an ``array('d')``, whose items index as Python floats."""
        return array("d", self._idf.tolist())

    @property
    def size(self) -> int:
        return len(self._df)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Vocabulary)
            and self.terms == other.terms
            and self.df == other.df
            and self.n_fit == other.n_fit
        )

    def __len__(self) -> int:
        return self.size


def _per_distinct(values: np.ndarray, f) -> np.ndarray:
    """``f`` of every value as float64, called once per distinct value: many
    terms share a df, and many entries a count."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([f(v) for v in distinct.tolist()], dtype=np.float64)[inverse]


def extract_ngrams(tokens: Sequence[str], n: int) -> list[str]:
    """Consecutive n-token windows, underscore-joined and namespaced "w{n}:"."""
    if n < 1:
        raise ValueError("n must be >= 1")
    prefix = f"w{n}:"
    if n == 1:  # the window is the token: no slice and no join
        return [prefix + t for t in tokens]
    return [prefix + "_".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


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
    its df, IDF, vocabulary, column map and weights from its rows as array
    operations over the term ids; no fold touches a term string.  A table
    vectorizes only under its own vocabularies: text scored under a saved
    model goes through :func:`tfidf_rows`, which builds no table.
    """

    def __init__(self, sentences: Sequence, trees: Sequence[ParseTree | None] | None, config: FeatureConfig):
        if config.use_pos and trees is None:
            raise MissingTree("POS features enabled but no trees supplied")
        flat: list[str] = []
        lengths: list[int] = []
        for i, s in enumerate(sentences):
            terms = extract_terms(s, trees[i] if trees is not None else None, config)
            flat.extend(terms)
            lengths.append(len(terms))
        self.config = config
        self.n_rows = len(lengths)
        self.terms = tuple(sorted(set(flat)))
        n = len(self.terms)
        term_id = dict(zip(self.terms, range(n)))
        ids = np.fromiter(map(term_id.__getitem__, flat), np.int64, len(flat))
        # sorted keys order the entries by row, then id
        keys, counts = np.unique(np.repeat(np.arange(self.n_rows), lengths) * n + ids, return_counts=True)
        self.indptr = np.searchsorted(keys, np.arange(self.n_rows + 1) * n)
        self.indices = keys % n
        self.tf = _tf(counts, config)

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
        return Vocabulary._of_table(self.terms, kept, df[kept], n_fit)

    def vectorize(self, vocab: Vocabulary, rows: np.ndarray | None = None) -> Rows:
        """L2-normalized TF-IDF rows (:func:`_tfidf`) of ``rows`` (all rows by
        default), in order, under a vocabulary taken from this table."""
        if vocab._source is not self.terms:
            raise ValueError("the vocabulary was not taken from this table")
        column = np.full(len(self.terms), -1, dtype=np.int64)  # kept ids, increasing: no term lookups
        column[vocab._ids] = np.arange(vocab.size)
        indptr, indices, tf = self.indptr, self.indices, self.tf
        if rows is not None:  # only the rows' own entries are mapped and weighted
            starts = indptr[:-1][rows]
            lengths = indptr[1:][rows] - starts
            indptr = np.concatenate(([0], np.cumsum(lengths)))
            picked = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
            indices, tf = indices[picked], tf[picked]
        cols = column[indices]
        known = cols >= 0
        return _tfidf(np.concatenate(([0], np.cumsum(known)))[indptr], cols[known], tf[known], vocab)


def _tf(counts: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Term frequencies of term counts: the raw count, or ``1 + ln(count)``
    under ``log_tf`` (math.log, not np.log, which may round differently)."""
    return _per_distinct(counts, lambda c: 1.0 + math.log(c)) if config.log_tf else counts.astype(np.float64)


def _tfidf(indptr: np.ndarray, cols: np.ndarray, tf: np.ndarray, vocab: Vocabulary) -> Rows:
    """The L2-normalized rows of the entries ``cols`` (increasing within each
    row of ``indptr``) with term frequencies ``tf``, each weighted
    tf(t) * (ln((1 + N_fit) / (1 + df(t))) + 1).  tf >= 1, and idf >= 1 for
    df <= N_fit, so no stored row has a zero norm; an empty row stays empty."""
    weights = tf * vocab._idf[cols]
    X = Rows(indptr, cols, weights, vocab.size)
    weights /= np.sqrt(X.row_sums(weights * weights))[X.row_of_entry]
    return X


def build_vocabulary(
    sentences: Sequence,
    trees: Sequence[ParseTree | None] | None,
    config: FeatureConfig,
) -> Vocabulary:
    """Collect every term with sentence-level document frequency >= min_df."""
    return TermTable(sentences, trees, config).vocabulary()


def tfidf_rows(
    sentences: Sequence,
    trees: Sequence[ParseTree | None] | None,
    vocab: Vocabulary,
    config: FeatureConfig,
) -> list[tuple[list[int], list[float]]]:
    """Each sentence's L2-normalized TF-IDF row (:func:`_tfidf`) as its
    columns, increasing, and their weights, in Python floats and bit for bit
    its row in a :class:`TermTable`: ``tf * idf`` of each term found in
    ``vocab``, each divided by the ``math.sqrt`` of the squares added to
    ``0.0`` left to right, as :meth:`Rows.row_sums` adds them.  The loop is
    explicit: the builtin ``sum`` compensates its additions from Python 3.12."""
    if config.use_pos and trees is None:
        raise MissingTree("POS features enabled but no trees supplied")
    index, idf, log_tf = vocab._index, vocab._idf_floats, config.log_tf
    rows: list[tuple[list[int], list[float]]] = []
    for r, s in enumerate(sentences):
        counts: dict[int, int] = {}
        for c in map(index.get, extract_terms(s, trees[r] if trees is not None else None, config)):
            if c is not None:
                counts[c] = counts.get(c, 0) + 1
        cols = sorted(counts)
        if log_tf:
            weights = [(1.0 + math.log(counts[c])) * idf[c] for c in cols]
        else:
            weights = [counts[c] * idf[c] for c in cols]
        squares = 0.0
        for x in weights:
            squares += x * x
        norm = math.sqrt(squares)
        rows.append((cols, [x / norm for x in weights]))
    return rows


def vectorize_all(
    sentences: Sequence,
    trees: Sequence[ParseTree | None] | None,
    vocab: Vocabulary,
    config: FeatureConfig,
) -> Rows:
    """The rows of :func:`tfidf_rows` packed into one batch."""
    rows = tfidf_rows(sentences, trees, vocab, config)
    indptr = np.cumsum(np.array([0] + [len(cols) for cols, _ in rows], dtype=np.int64))
    indices = np.fromiter(chain.from_iterable(cols for cols, _ in rows), np.int64, indptr[-1])
    data = np.fromiter(chain.from_iterable(weights for _, weights in rows), np.float64, indptr[-1])
    return Rows(indptr, indices, data, vocab.size)
