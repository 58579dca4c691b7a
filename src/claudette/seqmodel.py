"""Chain-structured max-margin sequence classifier for document sentences.

A document is scored as

    score(xs, ys) = start[y_1] + sum_t emission[y_t] . x_t
                    + sum_{t>=2} transition[y_{t-1}, y_t]

Decoding is Viterbi (:func:`_decode`); training minimizes the
margin-rescaled structured hinge (Hamming loss) by stochastic subgradient with
averaged weights.  Ties during decoding are broken by preferring the lower
label index at each backtrack step, which selects the optimal sequence whose
reversed label tuple is lexicographically smallest.

Training builds each document's loss-augmented lattice with numpy from a
plan made once per call (:func:`_lattice`).  Prediction builds its lattice
with :mod:`analyze`'s Python-float scorers, one per label, which add the same
products in the same order, and decodes it with the same :func:`_decode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import Rows
from .svm import DimensionMismatch, EmptyData, LengthMismatch, SingleClass, TrainConfig


class UnknownLabel(ValueError):
    pass


@dataclass(frozen=True)
class SeqExample:
    xs: Rows  # one row per sentence, usually a slice of the corpus batch
    ys: tuple[int, ...]

    def __post_init__(self) -> None:
        if not len(self.xs):
            raise ValueError("sequence must have at least one sentence")
        if len(self.xs) != len(self.ys):
            raise LengthMismatch(f"{len(self.xs)} vectors but {len(self.ys)} labels")


@dataclass
class ChainModel:
    labels: tuple[str, ...]
    emissions: np.ndarray  # (L, V)
    transitions: np.ndarray  # (L, L)
    start: np.ndarray  # (L,)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return int(self.emissions.shape[1])

    @classmethod
    def over(cls, labels: Sequence[str], weights: np.ndarray) -> "ChainModel":
        """The model whose emissions (L x V), transitions (L x L) and start
        (L) are views of the flat ``weights``, in that order."""
        L = len(labels)
        V = len(weights) // L - L - 1
        emissions, transitions, start = np.split(weights, [L * V, L * (V + L)])
        return cls(tuple(labels), emissions.reshape(L, V), transitions.reshape(L, L), start)

    @classmethod
    def zeros(cls, labels: Sequence[str], dim: int) -> "ChainModel":
        return cls.over(labels, np.zeros(len(labels) * (dim + len(labels) + 1)))


@dataclass(frozen=True)
class _Plan:
    """A document's lattice index arrays for a label count, and its margin
    loss for a gold path.  ``train_chain`` builds one per example per call."""

    flat: np.ndarray  # label * V + column, label by label: the gather index
    values: np.ndarray  # the document's values, once per label
    keys: np.ndarray  # label * T + row: each product's lattice slot
    loss: np.ndarray | None  # (T, L): 1.0 off gold, 0.0 on gold; None without gold


def _plan(xs: Rows, n_labels: int, gold: Sequence[int] | None = None) -> _Plan:
    """The plan of document ``xs`` for ``n_labels`` labels and gold path
    ``gold``; a gold label outside ``[0, n_labels)`` raises ``UnknownLabel``."""
    labels = np.arange(n_labels)[:, None]
    loss = None
    if gold is not None:
        outside = sorted(y for y in gold if not 0 <= y < n_labels)
        if outside:
            raise UnknownLabel(f"label index {outside[0]} outside the {n_labels}-label set")
        loss = np.ones((len(xs), n_labels))
        loss[np.arange(len(xs)), gold] = 0.0
    return _Plan(
        flat=(labels * xs.dim + xs.indices).ravel(),
        values=np.tile(xs.data, n_labels),
        keys=(labels * len(xs) + xs.row_of_entry).ravel(),
        loss=loss,
    )


def _lattice(model: ChainModel, xs: Rows, plan: _Plan) -> list[list[float]]:
    """Emission scores of document ``xs``, one list of L floats per position,
    from one 1-D ``take`` of the plan's flat index from the flattened weights
    (a view for C-ordered ones), one multiply by its values and one bincount
    over its keys ``label * T + row``.  bincount adds in input order, so each
    emission is ``0.0`` plus its row's products left to right in column order
    (``0.0`` for an empty row), whatever the weights' memory layout or the
    BLAS.  A plan with a gold path then puts in the margin loss with one add:
    ``+ 1.0`` off gold, ``+ 0.0`` on gold."""
    T, L = len(xs), model.n_labels
    products = model.emissions.reshape(-1).take(plan.flat)
    products *= plan.values
    scores = np.bincount(plan.keys, products, L * T).reshape(L, T).T
    if plan.loss is not None:
        scores = scores + plan.loss
    return scores.tolist()


def _decode(
    model: ChainModel, lattice: list[list[float]], gold: Sequence[int] | None = None
) -> tuple[list[int], float, float | None]:
    """Viterbi over ``lattice`` (one list of L emission floats per position;
    in training it holds the margin loss) in Python floats: the best path, its
    score and, with ``gold``, the gold path's score added left to right.

    Each step adds ``dp[prev] + transitions[prev][cur]`` and then the
    emission, and a strict ``>`` keeps the lowest maximizing index, so paths
    and scores are bit-identical to the numpy ``argmax`` recursion that
    ``tests/test_seqmodel.py`` keeps as the reference.  Two labels, the only
    set ``modelio.fit`` trains, take a recursion unrolled over the four
    ``(prev, cur)`` pairs that makes the same additions in the same order.
    """
    start = model.start.tolist()
    trans = model.transitions.tolist()
    back = []
    if len(start) == 2:
        (s0, s1), ((t00, t01), (t10, t11)) = start, trans
        a0, a1 = lattice[0]
        d0, d1 = s0 + a0, s1 + a1
        for a0, a1 in lattice[1:]:
            b0, c0 = d0 + t00, d1 + t10
            b1, c1 = d0 + t01, d1 + t11
            if c0 > b0:
                b0, p0 = c0, 1
            else:
                p0 = 0
            if c1 > b1:
                b1, p1 = c1, 1
            else:
                p1 = 0
            back.append((p0, p1))
            d0, d1 = b0 + a0, b1 + a1
        dp = [d0, d1]
    else:
        into = model.transitions.T.tolist()  # into[cur][prev]
        rest = range(1, len(start))
        dp = [s + e for s, e in zip(start, lattice[0])]
        for row in lattice[1:]:
            ptr, nxt = [], []
            for weights, e in zip(into, row):
                arg, best = 0, dp[0] + weights[0]
                for prev in rest:
                    cand = dp[prev] + weights[prev]
                    if cand > best:
                        arg, best = prev, cand
                ptr.append(arg)
                nxt.append(best + e)
            back.append(ptr)
            dp = nxt
    last = max(range(len(dp)), key=dp.__getitem__)  # the first of equal maxima
    ys = [last]
    for ptr in reversed(back):
        ys.append(ptr[ys[-1]])
    ys.reverse()
    if gold is None:
        return ys, dp[last], None
    g = gold[0]
    path_score = start[g] + lattice[0][g]
    for row, g, h in zip(lattice[1:], gold[1:], gold):
        path_score = path_score + trans[h][g]
        path_score = path_score + row[g]
    return ys, dp[last], path_score


def train_chain(
    examples: Sequence[SeqExample],
    cfg: TrainConfig,
    labels: Sequence[str] | None = None,
) -> ChainModel:
    """Stochastic subgradient training of the structured hinge objective

        0.5*||W||^2 + C * sum_j max_y [score(x_j, y) + Ham(y, y_j) - score(x_j, y_j)]

    with step 1/(lambda_reg * t), lambda_reg = 1/(C*n), a seeded shuffle per
    epoch, and a fixed epoch budget (cfg.epochs).  The returned weights are
    the average of the iterates over the second half of training: the first
    steps take sizes up to C*n, and folding those iterates into the average
    would drown the converged ones.

    Each document's index arrays and margin loss (``_plan``) are built once
    per call.  A step is one ``1 - 1/t`` multiply of the flat weight vector,
    the loss-augmented lattice (``_lattice``: one 1-D ``take``, one multiply,
    one bincount, one add), one Viterbi pass that also scores the gold path
    (``_decode``), on a margin violation one scatter (``_apply_update``) and,
    in the tail, one add of the vector to the average.  Fewer than two labels
    raise ``SingleClass``; gold labels outside ``[0, L)`` raise ``UnknownLabel``.

    Note the effective regularization: small C means strong shrinking, which
    on noisy imbalanced data can collapse the model toward the majority
    label; chain runs typically want a larger C than the linear solver.
    """
    if not examples:
        raise EmptyData("no training sequences")
    dim = examples[0].xs.dim
    if any(ex.xs.dim != dim for ex in examples):
        raise DimensionMismatch("sequences disagree on feature dimension")
    if labels is None:
        labels = [str(i) for i in range(max(2, 1 + max(max(ex.ys) for ex in examples)))]
    labels = tuple(labels)
    if len(labels) < 2:
        raise SingleClass(f"a chain needs at least two labels, not {len(labels)}")

    weights = np.zeros(len(labels) * (dim + len(labels) + 1))
    average = np.zeros_like(weights)
    model = ChainModel.over(labels, weights)
    plans = [_plan(ex.xs, len(labels), ex.ys) for ex in examples]

    n = len(examples)
    lam_reg = 1.0 / (cfg.C * n)
    rng = np.random.default_rng(cfg.seed)
    total_steps = cfg.epochs * n
    tail_start = total_steps // 2 + 1
    averaged_steps = 0
    t = 0
    for _ in range(cfg.epochs):
        for j in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam_reg * t)
            weights *= 1.0 - eta * lam_reg  # = 1 - 1/t

            ex, plan = examples[j], plans[j]
            y_hat, aug_score, gold_score = _decode(model, _lattice(model, ex.xs, plan), ex.ys)
            if aug_score > gold_score:
                _apply_update(model, ex, y_hat, eta)

            if t >= tail_start:
                average += weights
                averaged_steps += 1

    return ChainModel.over(labels, average / averaged_steps)


def _apply_update(model: ChainModel, ex: SeqExample, y_hat: Sequence[int], eta: float) -> None:
    """w += eta * (Phi(x, gold) - Phi(x, y_hat)) on the violated positions.

    The emissions get one ``np.add.at`` into the flat (C-contiguous) matrix
    at ``label * V + column`` of ``x * +-eta``, concatenated row by row (gold
    part, then y_hat part): a weight that several violated rows move gets
    its updates in row order, bit-identical to a ``+=``/``-=`` pair per row.
    """
    gold = ex.ys
    if gold[0] != y_hat[0]:
        model.start[gold[0]] += eta
        model.start[y_hat[0]] -= eta
    for gpair, hpair in zip(zip(gold, gold[1:]), zip(y_hat, y_hat[1:])):
        if gpair != hpair:
            model.transitions[gpair] += eta
            model.transitions[hpair] -= eta
    xs, dim = ex.xs, model.dim
    columns: list[np.ndarray] = []
    values: list[np.ndarray] = []
    offsets: list[int] = []
    lengths: list[int] = []
    bounds = xs.indptr.tolist()
    for a, b, g, h in zip(bounds, bounds[1:], gold, y_hat):
        if g != h and b > a:
            idx, vals = xs.indices[a:b], xs.data[a:b]
            columns += (idx, idx)
            values += (vals, vals)
            offsets += (g * dim, h * dim)
            lengths += (b - a, b - a)
    if columns:
        where = np.concatenate(columns) + np.repeat(offsets, lengths)
        steps = np.concatenate(values) * np.repeat([eta, -eta] * (len(lengths) // 2), lengths)
        np.add.at(model.emissions.reshape(-1), where, steps)
