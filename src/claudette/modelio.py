"""Unified model container with canonical JSON serialization, and the one
fitting path that produces it.

A :class:`ModelBundle` holds its fitted models as typed objects.  Only
:meth:`ModelBundle.to_record` (behind :func:`save_model`) and
:func:`load_model` know the file format: one versioned JSON file for all
four model kinds, holding the feature config, the vocabulary, the
kind-specific payload, and training metadata.  Serialization is canonical
(sorted keys, fixed separators, shortest float repr), so loading a file and
saving it again is byte-identical.  :func:`fit` builds a bundle from the
documents of a :class:`CorpusTable`; ``train`` and every LOO fold call it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from . import seqmodel, svm, treekernel
from .corpus import CATEGORY_BY_SYMBOL, ClauseCategory, Document
from .features import FeatureConfig, TermTable, Vocabulary
from .seqmodel import ChainModel
from .svm import KernelModel, LinearModel, TrainConfig
from .trees import MAX_DEPTH, ParseTree, parse_bracketed

FORMAT_VERSION = 1
MODEL_KINDS = ("linear-bow", "kernel-sstk", "chain", "category-ovr")


class ModelFormatError(ValueError):
    pass


class UnknownModelKind(ValueError):
    pass


class MissingTreebank(ValueError):
    pass


def canonical_json_bytes(obj) -> bytes:
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
        + "\n"
    ).encode("utf-8")


def _finite(x) -> float:
    """A model number as a float: an int or a float, not a bool (nor a string
    such as ``"nan"``, which ``float`` would parse), and finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ModelFormatError(f"model number {x!r} is not a JSON number")
    x = float(x)
    if not math.isfinite(x):
        raise ModelFormatError("model contains a non-finite value")
    return x


def _numbers(values: list) -> np.ndarray:
    """:func:`_finite` over a list of model numbers read from a file, as one
    float64 array."""
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise ModelFormatError(f"model number {bad!r} is not a JSON number")
    numbers = np.array(values, dtype=np.float64)
    if not np.isfinite(numbers).all():
        raise ModelFormatError("model contains a non-finite value")
    return numbers


def _json_float(text: str) -> float:
    """A JSON float or constant (``NaN``, ``Infinity``) as it is decoded."""
    x = float(text)
    if not math.isfinite(x):
        raise ModelFormatError("model contains a non-finite value")
    return x


# ---------------------------------------------------------------------------
# Component records
# ---------------------------------------------------------------------------

def feature_config_record(cfg: FeatureConfig) -> dict:
    return dataclasses.asdict(cfg)


def feature_config_from_record(rec: dict) -> FeatureConfig:
    # files written before the key was dropped carry a "lowercase" that
    # changed nothing, since tokens are already lowercase
    rec = {key: value for key, value in rec.items() if key != "lowercase"}
    names = {f.name for f in dataclasses.fields(FeatureConfig)}
    if set(rec) != names:
        raise ModelFormatError(f"feature_config keys {sorted(rec)} are not {sorted(names)}")
    return FeatureConfig(**rec)


def train_config_record(cfg: TrainConfig) -> dict:
    return dataclasses.asdict(cfg)


def vocabulary_record(vocab: Vocabulary) -> dict:
    return {
        "format_version": 1,
        "entries": [
            [term, i, df] for i, (term, df) in enumerate(zip(vocab.terms, vocab.df))
        ],
        "n_fit": vocab.n_fit,
    }


def vocabulary_from_record(rec: dict) -> Vocabulary:
    """The vocabulary of a model file: its terms must be strings, its indices
    exactly 0..n-1 and every df an integer in [1, n_fit].  The terms' strict
    increase is checked once, by :class:`Vocabulary` itself."""
    if rec.get("format_version") != 1:
        raise ModelFormatError(f"unsupported vocabulary format {rec.get('format_version')!r}")
    entries = sorted(rec["entries"], key=lambda e: e[1])
    terms, df, n_fit = [e[0] for e in entries], [e[2] for e in entries], rec["n_fit"]
    if [e[1] for e in entries] != list(range(len(entries))):
        raise ModelFormatError("vocabulary indices are not 0..n-1")
    if not all(isinstance(t, str) for t in terms):
        raise ModelFormatError("vocabulary terms are not all strings")
    if type(n_fit) is not int or not all(type(d) is int and 1 <= d <= n_fit for d in df):
        raise ModelFormatError(f"vocabulary df is not an integer in [1, n_fit] (n_fit {n_fit!r})")
    try:
        return Vocabulary(terms, df, n_fit)
    except ValueError as err:  # the terms are not strictly increasing
        raise ModelFormatError(f"vocabulary {err}") from None


def linear_payload(model: LinearModel) -> dict:
    nz = np.flatnonzero(model.w)
    return {
        "kind": "linear",
        "dim": model.dim,
        "w": [[int(i), _finite(model.w[i])] for i in nz],
        "b": _finite(model.b),
        "warning": model.warning,
    }


def _dense(pairs: list, dim: int, size: int) -> np.ndarray:
    """A weight vector from its ``[[index, value], ...]`` record; ``dim``
    must be the vocabulary ``size``, checked before anything is allocated."""
    if dim != size:
        raise ModelFormatError(f"model weights dim {dim} does not match the vocabulary size {size}")
    index = [i for i, _ in pairs]
    for i in index:
        if type(i) is not int or not 0 <= i < dim:
            raise ModelFormatError(f"weight index {i!r} outside [0, {dim}) or not an integer")
    w = np.zeros(dim, dtype=np.float64)
    w[index] = _numbers([v for _, v in pairs])
    return w


def linear_from_payload(payload: dict, size: int) -> LinearModel:
    w = _dense(payload["w"], payload["dim"], size)
    return LinearModel(w=w, b=_finite(payload["b"]), warning=payload.get("warning"))


def kernel_payload(model: KernelModel) -> dict:
    if any(t.depth() > MAX_DEPTH for t in model.support_trees):
        raise ModelFormatError(
            f"a support tree is nested deeper than {MAX_DEPTH} levels, "
            "so the model file could not be read back"
        )
    return {
        "kind": "kernel",
        "support_idx": [int(i) for i in model.support_idx],
        "coef": [_finite(c) for c in model.coef],
        "b": _finite(model.b),
        "lambda": _finite(model.lam),
        "normalized": model.normalized,
        "n_train": model.n_train,
        "kkt_violation": _finite(model.kkt_violation),
        "warning": model.warning,
        "support_trees": [t.to_bracketed() for t in model.support_trees],
    }


def kernel_from_payload(payload: dict, size: int) -> KernelModel:
    """The kernel model of a payload, support trees parsed; ``size`` is unused
    (kernel rows do not read the vocabulary) but keeps the codecs' signature."""
    if type(payload["normalized"]) is not bool:
        raise ModelFormatError(f"kernel normalized {payload['normalized']!r} is not a boolean")
    if not all(type(i) is int for i in [payload["n_train"], *payload["support_idx"]]):
        raise ModelFormatError("kernel n_train or a support_idx is not an integer")
    model = KernelModel(
        support_idx=np.asarray(payload["support_idx"], dtype=np.int64),
        coef=_numbers(payload["coef"]),
        b=_finite(payload["b"]),
        lam=_finite(payload["lambda"]),
        normalized=payload["normalized"],
        n_train=payload["n_train"],
        kkt_violation=_finite(payload["kkt_violation"]),
        warning=payload.get("warning"),
    )
    treekernel._check_lambda(model.lam)
    support = payload["support_trees"]
    if not len(model.coef) == len(support) == model.n_support:
        raise ModelFormatError("support_idx, coef and support_trees lengths disagree")
    model.support_trees = [parse_bracketed(s) for s in support]
    return model


def chain_payload(model: ChainModel) -> dict:
    emissions = []
    for row in model.emissions:
        nz = np.flatnonzero(row)
        emissions.append([[int(i), _finite(row[i])] for i in nz])
    return {
        "kind": "chain",
        "labels": list(model.labels),
        "dim": model.dim,
        "emissions": emissions,
        "transitions": [[_finite(v) for v in row] for row in model.transitions],
        "start": [_finite(v) for v in model.start],
    }


def chain_from_payload(payload: dict, size: int) -> ChainModel:
    L, dim = len(payload["labels"]), payload["dim"]
    transitions = np.array([_numbers(row) for row in payload["transitions"]])
    start = _numbers(payload["start"])
    if L < 2 or len(payload["emissions"]) != L or transitions.shape != (L, L) or start.shape != (L,):
        raise ModelFormatError(f"chain emissions, transitions and start do not fit its {L} labels")
    emissions = np.array([_dense(row, dim, size) for row in payload["emissions"]])
    return ChainModel(
        labels=tuple(payload["labels"]), emissions=emissions, transitions=transitions, start=start
    )


def category_payload(models: dict[ClauseCategory, LinearModel]) -> dict:
    return {
        "kind": "category-ovr",
        "models": {cat.symbol: linear_payload(m) for cat, m in models.items()},
    }


def category_from_payload(payload: dict, size: int) -> dict[ClauseCategory, LinearModel]:
    return {
        CATEGORY_BY_SYMBOL[sym]: linear_from_payload(p, size)
        for sym, p in payload["models"].items()
    }


def _codec(kind: str):
    """The (encoder, decoder) pair of a model kind, looked up at call time so
    that a wrapped codec is the one called; a decoder takes the payload and
    the vocabulary size."""
    return {
        "linear-bow": (linear_payload, linear_from_payload),
        "kernel-sstk": (kernel_payload, kernel_from_payload),
        "chain": (chain_payload, chain_from_payload),
        "category-ovr": (category_payload, category_from_payload),
    }[kind]


# ---------------------------------------------------------------------------
# The unified model file
# ---------------------------------------------------------------------------

@dataclass
class ModelBundle:
    kind: str
    feature_config: FeatureConfig
    vocabulary: Vocabulary | None  # None only for a kernel-sstk bundle with no fallback
    model: LinearModel | KernelModel | ChainModel | dict[ClauseCategory, LinearModel]
    metadata: dict = field(default_factory=dict)
    # present only for kernel-sstk: a linear fallback used when no tree is available
    fallback: LinearModel | None = None

    def to_record(self) -> dict:
        rec = {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "feature_config": feature_config_record(self.feature_config),
            "payload": _codec(self.kind)[0](self.model),
            "metadata": self.metadata,
        }
        if self.vocabulary is not None:
            rec["vocabulary"] = vocabulary_record(self.vocabulary)
        elif self.kind != "kernel-sstk" or self.fallback is not None:
            raise ModelFormatError("only a kernel model without a linear fallback may lack a vocabulary")
        if self.fallback is not None:
            rec["fallback"] = linear_payload(self.fallback)
        return rec

    def solver_warnings(self) -> list[tuple[str, str]]:
        """(category symbol, text) of each solver warning of the fitted models;
        the symbol is empty for models with a single decision, and "fallback"
        for a kernel bundle's linear fallback."""
        if self.kind == "category-ovr":
            models = [(cat.symbol, m) for cat, m in self.model.items()]
        else:
            models = [] if self.kind == "chain" else [("", self.model)]
        if self.fallback is not None:
            models.append(("fallback", self.fallback))
        return [(sym, m.warning) for sym, m in models if m.warning]


def save_model(bundle: ModelBundle, path: str | Path) -> None:
    Path(path).write_bytes(canonical_json_bytes(bundle.to_record()))


def load_model(path: str | Path) -> ModelBundle:
    """Read a model file; malformed content raises :class:`ModelFormatError`,
    and so do a non-finite number (``NaN``, ``Infinity``, ``1e999``), JSON
    nested too deeply to decode, a weight ``dim`` other than the vocabulary
    size and a kernel ``lambda`` outside (0, 1]."""
    try:
        rec = json.loads(Path(path).read_text(encoding="utf-8"), parse_float=_json_float, parse_constant=_json_float)
    except ModelFormatError:
        raise
    # not UTF-8, not JSON, an integer too long to convert, or nested too deeply
    except (ValueError, RecursionError) as err:
        raise ModelFormatError(f"not a model file: {err}") from None
    if not isinstance(rec, dict) or "format_version" not in rec:
        raise ModelFormatError("not a model file: missing format_version")
    if rec["format_version"] != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format_version {rec['format_version']} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    try:
        return _bundle_from_record(rec)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as err:
        raise ModelFormatError(f"malformed model file: {type(err).__name__}: {err}") from None


def _bundle_from_record(rec: dict) -> ModelBundle:
    kind, payload = rec["kind"], rec["payload"]
    if kind not in MODEL_KINDS:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    if payload["kind"] != {"linear-bow": "linear", "kernel-sstk": "kernel"}.get(kind, kind):
        raise ModelFormatError(f"payload kind {payload['kind']!r} does not match model kind {kind!r}")
    fallback = rec.get("fallback")
    # a kernel model scores kernel rows; only its linear fallback reads a vocabulary
    vocabulary = None
    if kind != "kernel-sstk" or fallback is not None or "vocabulary" in rec:
        vocabulary = vocabulary_from_record(rec["vocabulary"])
    model = _codec(kind)[1](payload, vocabulary.size if vocabulary is not None else 0)
    return ModelBundle(
        kind=kind,
        feature_config=feature_config_from_record(rec["feature_config"]),
        vocabulary=vocabulary,
        model=model,
        metadata=rec.get("metadata", {}),
        fallback=None if fallback is None else linear_from_payload(fallback, vocabulary.size),
    )


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

class CorpusTable:
    """The work over a corpus that no fold changes, done once per run: the
    documents by name, the feature config, the tree kernel's ``lam`` and
    ``normalize``, and, each built on first use, every sentence's terms (a
    :class:`TermTable` with one row per sentence, in corpus order), the trees
    in the same order and the corpus Gram.  A kernel fit reads only the trees
    and the Gram, so a table used for kernel fits alone builds no terms."""

    def __init__(
        self,
        documents: Sequence[Document],
        treebank: dict[str, list[ParseTree]] | None,
        feature_cfg: FeatureConfig,
        lam: float = treekernel.DEFAULT_LAMBDA,
        normalize: bool = True,
    ):
        self.documents = {doc.name: doc for doc in documents}
        self.feature_config = feature_cfg
        self.lam, self.normalize = lam, normalize
        self._treebank = treebank
        starts = accumulate((len(doc.sentences) for doc in documents), initial=0)
        self._first_row = dict(zip((doc.name for doc in documents), starts))

    def rows(self, names: Sequence[str]) -> np.ndarray:
        """Row numbers of the named documents' sentences in the term table, the
        trees and the Gram, in the order given."""
        spans = [(self._first_row[name], len(self.documents[name].sentences)) for name in names]
        return np.concatenate([np.arange(a, a + n) for a, n in spans] or [np.zeros(0, np.int64)])

    @functools.cached_property
    def terms(self) -> TermTable:
        """Every sentence's terms, one row per sentence, in corpus order."""
        sentences = [ls for doc in self.documents.values() for ls in doc.sentences]
        trees = self.trees if self.feature_config.use_pos else None
        return TermTable(sentences, trees, self.feature_config)

    @functools.cached_property
    def trees(self) -> list[ParseTree]:
        """Every sentence's parse tree, in corpus order."""
        if self._treebank is None:
            raise MissingTreebank("kernel models and POS features require a treebank")
        trees: list[ParseTree] = []
        for doc in self.documents.values():
            got = self._treebank.get(doc.name)
            if got is None or len(got) != len(doc.sentences):
                raise MissingTreebank(f"treebank missing or misaligned for document {doc.name!r}")
            trees.extend(got)
        return trees

    @functools.cached_property
    def gram(self) -> treekernel.KernelGram:
        """Every pair's kernel value; a fold's SMO reads its training block in
        place, through the fold's row numbers."""
        return treekernel.gram_matrix(self.trees, lam=self.lam, normalize=self.normalize)


def fit(
    kind: str, table: CorpusTable, train_cfg: TrainConfig, names: Sequence[str] | None = None
) -> ModelBundle:
    """Fit a ``kind`` model on the documents of ``table`` named by ``names``
    (all by default).  Only their rows enter the vocabulary and the solver,
    so a fold fitted from a table over the whole corpus equals one fitted from
    a table over its training documents.  Solver warnings stay on the fitted
    models (see :meth:`ModelBundle.solver_warnings`).  A kernel fit reads
    only the table's trees and Gram, so its bundle has no vocabulary and no
    linear fallback; ``train`` attaches both from a second, ``linear-bow``
    fit over the same rows.
    """
    if kind not in MODEL_KINDS:
        raise UnknownModelKind(kind)
    if names is None:
        names = list(table.documents)
    documents = [table.documents[name] for name in names]
    sentences = [ls for doc in documents for ls in doc.sentences]
    rows = table.rows(names)
    y = [1 if ls.detection_label else -1 for ls in sentences]
    metadata = {
        "seed": train_cfg.seed,
        "train_config": train_config_record(train_cfg),
        "n_documents": len(documents),
        "n_sentences": len(sentences),
    }

    vocab = None
    if kind == "kernel-sstk":
        model = svm.train_smo(table.gram, rows, y, train_cfg)
        model.support_trees = [table.trees[rows[i]] for i in model.support_idx]
        metadata["lambda"] = table.lam
        metadata["kernel_normalize"] = table.normalize
    else:
        vocab = table.terms.vocabulary(rows)
        X = table.terms.vectorize(vocab, rows)
        if kind == "linear-bow":
            model = svm.train_linear(X, y, train_cfg)
        elif kind == "category-ovr":
            model = {
                cat: svm.train_linear(
                    X, [1 if cat in ls.positive_categories() else -1 for ls in sentences], train_cfg
                )
                for cat in ClauseCategory
            }
        else:  # chain: each document with sentences is one sequence
            examples = []
            pos = 0
            for doc in documents:
                k = len(doc.sentences)
                if k:
                    ys = tuple(1 if ls.detection_label else 0 for ls in doc.sentences)
                    examples.append(seqmodel.SeqExample(xs=X[pos : pos + k], ys=ys))
                pos += k
            model = seqmodel.train_chain(examples, train_cfg, labels=("negative", "positive"))
    return ModelBundle(kind, table.feature_config, vocab, model, metadata)
