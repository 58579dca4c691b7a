"""Chain-structured max-margin sequence classifier for document sentences.

A document is scored as

    score(xs, ys) = start[y_1] + sum_t emission[y_t] . x_t
                    + sum_{t>=2} transition[y_{t-1}, y_t]

Decoding is Viterbi; training minimizes the margin-rescaled structured hinge
(Hamming loss) by stochastic subgradient with averaged weights.  Ties during
decoding are broken by preferring the lower label index at each backtrack
step, which selects the optimal sequence whose reversed label tuple is
lexicographically smallest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import Rows
from .svm import DimensionMismatch, EmptyData, LengthMismatch, TrainConfig


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
    def zeros(cls, labels: Sequence[str], dim: int) -> "ChainModel":
        L = len(labels)
        return cls(
            labels=tuple(labels),
            emissions=np.zeros((L, dim), dtype=np.float64),
            transitions=np.zeros((L, L), dtype=np.float64),
            start=np.zeros(L, dtype=np.float64),
        )


def _check_sequence(model: ChainModel, xs: Rows) -> None:
    if not len(xs):
        raise EmptyData("empty sequence")
    if xs.dim != model.dim:
        raise DimensionMismatch(f"vector dim {xs.dim} != model dim {model.dim}")


def _lattice(model: ChainModel, xs: Rows) -> np.ndarray:
    """Emission scores (k, L) from one gather of the document's columns.  Each
    row is its slice of the gather times its values, the same product as
    ``emissions[:, row_indices] @ row_values`` and so bit-identical to it."""
    gathered = model.emissions[:, xs.indices]
    E = np.zeros((len(xs), model.n_labels), dtype=np.float64)
    bounds = xs.indptr.tolist()
    for t, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if b > a:
            E[t] = gathered[:, a:b] @ xs.data[a:b]
    return E


def emission_matrix(model: ChainModel, xs: Rows) -> np.ndarray:
    """Per-position emission scores, shape (k, L)."""
    _check_sequence(model, xs)
    return _lattice(model, xs)


def joint_score(model: ChainModel, xs: Rows, ys: Sequence[int]) -> float:
    """Score of one labeling of the sequence."""
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} vectors but {len(ys)} labels")
    L = model.n_labels
    for y in ys:
        if not 0 <= y < L:
            raise UnknownLabel(f"label index {y} outside 0..{L - 1}")
    E = emission_matrix(model, xs)
    return score_path(model, E, ys)


def score_path(model: ChainModel, E: np.ndarray, ys: Sequence[int]) -> float:
    """Path score over a precomputed emission lattice, accumulated left to
    right exactly as the Viterbi recursion accumulates it."""
    lattice = E.tolist()
    transitions = model.transitions.tolist()
    s = model.start.tolist()[ys[0]] + lattice[0][ys[0]]
    for t in range(1, len(ys)):
        s = s + transitions[ys[t - 1]][ys[t]]
        s = s + lattice[t][ys[t]]
    return s


def _decode(model: ChainModel, E: np.ndarray) -> tuple[list[int], float]:
    """Viterbi over the lattice ``E`` (k, L), in Python floats.

    Each step adds ``dp[prev] + transitions[prev][cur]`` and then
    ``E[t][cur]``, and a strict ``>`` keeps the lowest maximizing index, so
    paths and scores are bit-identical to the numpy ``argmax`` recursion
    that ``tests/test_seqmodel.py`` keeps as the reference.
    """
    lattice = E.tolist()
    into = model.transitions.T.tolist()  # into[cur][prev]
    labels = range(len(into))
    dp = [s + e for s, e in zip(model.start.tolist(), lattice[0])]
    back = []
    for row in lattice[1:]:
        ptr = []
        nxt = []
        for cur in labels:
            weights = into[cur]
            arg, best = 0, dp[0] + weights[0]
            for prev in labels[1:]:
                cand = dp[prev] + weights[prev]
                if cand > best:
                    arg, best = prev, cand
            ptr.append(arg)
            nxt.append(best + row[cur])
        back.append(ptr)
        dp = nxt
    last = 0
    for cur in labels[1:]:
        if dp[cur] > dp[last]:
            last = cur
    ys = [last]
    for ptr in reversed(back):
        ys.append(ptr[ys[-1]])
    ys.reverse()
    return ys, dp[last]


def viterbi(model: ChainModel, xs: Rows) -> tuple[list[int], float]:
    """Highest-scoring label sequence and its score."""
    E = emission_matrix(model, xs)
    return _decode(model, E)


def augmented_emissions(model: ChainModel, xs: Rows, y_gold: Sequence[int]) -> np.ndarray:
    """Emission lattice with +1 margin-rescaling loss on every non-gold label."""
    if len(xs) != len(y_gold):
        raise LengthMismatch(f"{len(xs)} vectors but {len(y_gold)} gold labels")
    E = emission_matrix(model, xs)
    loss = np.ones_like(E)
    loss[np.arange(len(xs)), np.asarray(y_gold, dtype=np.int64)] = 0.0
    return E + loss


def loss_augmented_viterbi(
    model: ChainModel, xs: Rows, y_gold: Sequence[int]
) -> tuple[list[int], float]:
    """argmax of joint_score(xs, ys) + Hamming(ys, y_gold), same tie rule."""
    return _decode(model, augmented_emissions(model, xs, y_gold))


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
    would drown the converged ones.  ``structured_objective`` evaluates the
    objective of a model on a set of examples.

    Note the effective regularization: small C means strong shrinking, which
    on noisy imbalanced data can collapse the model toward the majority
    label; chain runs typically want a larger C than the linear solver.
    """
    if not examples:
        raise EmptyData("no training sequences")
    dim = examples[0].xs.dim
    if any(ex.xs.dim != dim for ex in examples):
        raise DimensionMismatch("sequences disagree on feature dimension")
    max_label = max(0, max(max(ex.ys) for ex in examples))
    if labels is None:
        labels = tuple(str(i) for i in range(max(max_label + 1, 2)))
    else:
        labels = tuple(labels)
        if max_label >= len(labels):
            raise UnknownLabel(f"label index {max_label} outside the {len(labels)}-label set")

    model = ChainModel.zeros(labels, dim)
    avg_em = np.zeros_like(model.emissions)
    avg_tr = np.zeros_like(model.transitions)
    avg_st = np.zeros_like(model.start)

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
            shrink = 1.0 - eta * lam_reg  # = 1 - 1/t
            model.emissions *= shrink
            model.transitions *= shrink
            model.start *= shrink

            ex = examples[j]
            E_aug = augmented_emissions(model, ex.xs, ex.ys)
            y_hat, aug_score = _decode(model, E_aug)
            gold_score = score_path(model, E_aug, ex.ys)  # loss term is 0 on gold
            if aug_score > gold_score:
                _apply_update(model, ex, y_hat, eta)

            if t >= tail_start:
                avg_em += model.emissions
                avg_tr += model.transitions
                avg_st += model.start
                averaged_steps += 1

    averaged = ChainModel(
        labels=labels,
        emissions=avg_em / averaged_steps,
        transitions=avg_tr / averaged_steps,
        start=avg_st / averaged_steps,
    )
    return averaged


def _apply_update(model: ChainModel, ex: SeqExample, y_hat: Sequence[int], eta: float) -> None:
    """w += eta * (Phi(x, gold) - Phi(x, y_hat)) on the violated positions."""
    gold = ex.ys
    if gold[0] != y_hat[0]:
        model.start[gold[0]] += eta
        model.start[y_hat[0]] -= eta
    bounds = ex.xs.indptr.tolist()
    for tpos, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if gold[tpos] != y_hat[tpos] and b > a:
            idx, vals = ex.xs.indices[a:b], ex.xs.data[a:b]
            model.emissions[gold[tpos], idx] += eta * vals
            model.emissions[y_hat[tpos], idx] -= eta * vals
        if tpos >= 1:
            gpair = (gold[tpos - 1], gold[tpos])
            hpair = (y_hat[tpos - 1], y_hat[tpos])
            if gpair != hpair:
                model.transitions[gpair] += eta
                model.transitions[hpair] -= eta


def structured_objective(model: ChainModel, examples: Sequence[SeqExample], C: float) -> float:
    """0.5*||W||^2 + C * sum of structured hinges on ``examples``."""
    reg = 0.5 * (
        float(np.sum(model.emissions**2))
        + float(np.sum(model.transitions**2))
        + float(np.sum(model.start**2))
    )
    hinge = 0.0
    for ex in examples:
        E_aug = augmented_emissions(model, ex.xs, ex.ys)
        _, aug = _decode(model, E_aug)
        gold = score_path(model, E_aug, ex.ys)
        hinge += max(0.0, aug - gold)
    return reg + C * hinge
