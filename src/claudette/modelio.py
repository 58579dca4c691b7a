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


def _finite(x: float | str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ModelFormatError("model contains a non-finite value")
    return x


# ---------------------------------------------------------------------------
# Component records
# ---------------------------------------------------------------------------

def feature_config_record(cfg: FeatureConfig) -> dict:
    return dataclasses.asdict(cfg)


def feature_config_from_record(rec: dict) -> FeatureConfig:
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
    if rec.get("format_version") != 1:
        raise ModelFormatError(f"unsupported vocabulary format {rec.get('format_version')!r}")
    entries = sorted(rec["entries"], key=lambda e: e[1])
    return Vocabulary(
        terms=[e[0] for e in entries],
        df=[e[2] for e in entries],
        n_fit=rec["n_fit"],
    )


def linear_payload(model: LinearModel) -> dict:
    nz = np.flatnonzero(model.w)
    return {
        "kind": "linear",
        "dim": model.dim,
        "w": [[int(i), _finite(model.w[i])] for i in nz],
        "b": _finite(model.b),
        "warning": model.warning,
    }


def _dense(pairs: list, dim: int) -> np.ndarray:
    """A weight vector from its ``[[index, value], ...]`` record."""
    w = np.zeros(dim, dtype=np.float64)
    for i, v in pairs:
        if not 0 <= i < dim:
            raise ModelFormatError(f"weight index {i} outside [0, {dim})")
        w[i] = v
    return w


def linear_from_payload(payload: dict) -> LinearModel:
    w = _dense(payload["w"], payload["dim"])
    return LinearModel(w=w, b=float(payload["b"]), warning=payload.get("warning"))


def kernel_payload(model: KernelModel, support_trees: list[str]) -> dict:
    if len(support_trees) != model.n_support:
        raise ModelFormatError("support tree list does not match the support set")
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
        "support_trees": list(support_trees),
    }


def kernel_from_payload(payload: dict) -> tuple[KernelModel, list[str]]:
    model = KernelModel(
        support_idx=np.asarray(payload["support_idx"], dtype=np.int64),
        coef=np.asarray(payload["coef"], dtype=np.float64),
        b=float(payload["b"]),
        lam=float(payload["lambda"]),
        normalized=payload["normalized"],
        n_train=payload["n_train"],
        kkt_violation=float(payload["kkt_violation"]),
        warning=payload.get("warning"),
    )
    return model, list(payload["support_trees"])


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


def chain_from_payload(payload: dict) -> ChainModel:
    L, dim = len(payload["labels"]), payload["dim"]
    transitions = np.asarray(payload["transitions"], dtype=np.float64)
    start = np.asarray(payload["start"], dtype=np.float64)
    if L < 2 or len(payload["emissions"]) != L or transitions.shape != (L, L) or start.shape != (L,):
        raise ModelFormatError(f"chain emissions, transitions and start do not fit its {L} labels")
    emissions = np.array([_dense(row, dim) for row in payload["emissions"]])
    return ChainModel(
        labels=tuple(payload["labels"]), emissions=emissions, transitions=transitions, start=start
    )


def category_payload(models: dict[ClauseCategory, LinearModel]) -> dict:
    return {
        "kind": "category-ovr",
        "models": {cat.symbol: linear_payload(m) for cat, m in models.items()},
    }


def category_from_payload(payload: dict) -> dict[ClauseCategory, LinearModel]:
    return {
        CATEGORY_BY_SYMBOL[sym]: linear_from_payload(p)
        for sym, p in payload["models"].items()
    }


# ---------------------------------------------------------------------------
# The unified model file
# ---------------------------------------------------------------------------

@dataclass
class ModelBundle:
    kind: str
    feature_config: FeatureConfig
    vocabulary: Vocabulary
    model: LinearModel | KernelModel | ChainModel | dict[ClauseCategory, LinearModel]
    metadata: dict = field(default_factory=dict)
    # present only for kernel-sstk: a linear fallback used when no tree is available
    fallback: LinearModel | None = None

    def to_record(self) -> dict:
        if self.kind == "kernel-sstk":
            if any(t.depth() > MAX_DEPTH for t in self.model.support_trees):
                raise ModelFormatError(
                    f"a support tree is nested deeper than {MAX_DEPTH} levels, "
                    "so the model file could not be read back"
                )
            payload = kernel_payload(self.model, [t.to_bracketed() for t in self.model.support_trees])
        else:
            payload = {"linear-bow": linear_payload, "chain": chain_payload,
                       "category-ovr": category_payload}[self.kind](self.model)
        rec = {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "feature_config": feature_config_record(self.feature_config),
            "vocabulary": vocabulary_record(self.vocabulary),
            "payload": payload,
            "metadata": self.metadata,
        }
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
    and so do a non-finite number (``NaN``, ``Infinity``, ``1e999``) and a
    kernel ``lambda`` outside (0, 1]."""
    try:
        rec = json.loads(Path(path).read_text(encoding="utf-8"), parse_float=_finite, parse_constant=_finite)
    except ModelFormatError:
        raise
    except ValueError as err:  # not UTF-8, not JSON, or an integer too long to convert
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
    if kind == "kernel-sstk":
        model, support = kernel_from_payload(payload)
        treekernel._check_lambda(model.lam)
        if not len(model.coef) == len(support) == model.n_support:
            raise ModelFormatError("support_idx, coef and support_trees lengths disagree")
        model.support_trees = [parse_bracketed(s) for s in support]
    else:
        model = {"linear-bow": linear_from_payload, "chain": chain_from_payload,
                 "category-ovr": category_from_payload}[kind](payload)
    fallback = rec.get("fallback")
    bundle = ModelBundle(
        kind=kind,
        feature_config=feature_config_from_record(rec["feature_config"]),
        vocabulary=vocabulary_from_record(rec["vocabulary"]),
        model=model,
        metadata=rec.get("metadata", {}),
        fallback=None if fallback is None else linear_from_payload(fallback),
    )
    weighted = list(model.values()) if kind == "category-ovr" else [model, bundle.fallback]
    weighted = [m for m in weighted if isinstance(m, (LinearModel, ChainModel))]
    if any(m.dim != bundle.vocabulary.size for m in weighted):
        raise ModelFormatError("model weights do not match the vocabulary size")
    return bundle


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def document_trees(
    treebank: dict[str, list[ParseTree]] | None, documents: Sequence[Document]
) -> list[ParseTree]:
    """The documents' parse trees, concatenated in sentence order."""
    if treebank is None:
        raise MissingTreebank("kernel models and POS features require a treebank")
    trees: list[ParseTree] = []
    for doc in documents:
        got = treebank.get(doc.name)
        if got is None or len(got) != len(doc.sentences):
            raise MissingTreebank(f"treebank missing or misaligned for document {doc.name!r}")
        trees.extend(got)
    return trees


class CorpusTable:
    """The work over a corpus that no fold changes, done once per run: the
    documents by name, every sentence's terms (a :class:`TermTable` with one
    row per sentence, in corpus order), the trees in the same order, the tree
    kernel's ``lam`` and ``normalize``, and the corpus Gram, built on first
    use."""

    def __init__(
        self,
        documents: Sequence[Document],
        treebank: dict[str, list[ParseTree]] | None,
        feature_cfg: FeatureConfig,
        lam: float = treekernel.DEFAULT_LAMBDA,
        normalize: bool = True,
    ):
        self.documents = {doc.name: doc for doc in documents}
        self.lam, self.normalize = lam, normalize
        self._treebank = treebank
        sentences = [ls for doc in documents for ls in doc.sentences]
        starts = accumulate((len(doc.sentences) for doc in documents), initial=0)
        self._first_row = dict(zip((doc.name for doc in documents), starts))
        self.terms = TermTable(sentences, self.trees if feature_cfg.use_pos else None, feature_cfg)

    def rows(self, names: Sequence[str]) -> np.ndarray:
        """Row numbers of the named documents' sentences in the term table, the
        trees and the Gram, in the order given."""
        spans = [(self._first_row[name], len(self.documents[name].sentences)) for name in names]
        return np.concatenate([np.arange(a, a + n) for a, n in spans] or [np.zeros(0, np.int64)])

    @functools.cached_property
    def trees(self) -> list[ParseTree]:
        """Every sentence's parse tree, in corpus order."""
        return document_trees(self._treebank, self.documents.values())

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
    models (see :meth:`ModelBundle.solver_warnings`).  A kernel bundle carries
    no linear fallback; ``train`` attaches one from a second, ``linear-bow``
    fit, which is what the kernel bundle's vocabulary serves.
    """
    if kind not in MODEL_KINDS:
        raise UnknownModelKind(kind)
    if names is None:
        names = list(table.documents)
    documents = [table.documents[name] for name in names]
    sentences = [ls for doc in documents for ls in doc.sentences]
    rows = table.rows(names)
    vocab = table.terms.vocabulary(rows)
    y = [1 if ls.detection_label else -1 for ls in sentences]
    metadata = {
        "seed": train_cfg.seed,
        "train_config": train_config_record(train_cfg),
        "n_documents": len(documents),
        "n_sentences": len(sentences),
    }

    if kind == "kernel-sstk":
        model = svm.train_smo(table.gram, rows, y, train_cfg)
        model.support_trees = [table.trees[rows[i]] for i in model.support_idx]
        metadata["lambda"] = table.lam
        metadata["kernel_normalize"] = table.normalize
    else:
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
    return ModelBundle(kind, table.terms.config, vocab, model, metadata)
