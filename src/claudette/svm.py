"""Binary max-margin classifiers.

Two solvers, matched to the two sentence representations:

* ``train_linear`` — dual coordinate descent on sparse feature vectors with an
  augmented (regularized) bias feature; O(nnz) per update.
* ``train_smo`` — two-variable SMO with maximal-violating-pair selection on a
  precomputed kernel matrix.

Class imbalance is handled by an asymmetric box: C_i = C * positive_weight
for positive examples and C otherwise.  The default positive_weight is
n_neg / n_pos, which balances the total box mass of the two classes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .features import DimensionMismatch, Rows
from .treekernel import KernelGram
from .trees import ParseTree


class EmptyData(ValueError):
    pass


class SingleClass(ValueError):
    pass


class NotSquare(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    C: float = 1.0
    positive_weight: float | None = None  # None -> balanced (n_neg / n_pos)
    tol: float = 1e-3
    max_iter: int = 10_000
    seed: int = 0
    epochs: int = 20  # used by the structured chain trainer

    def __post_init__(self) -> None:
        # written so that NaN fails too: every comparison with NaN is false
        if not 0 < self.C < math.inf:
            raise ValueError(f"C must be positive and finite, got {self.C}")
        if self.positive_weight is not None and not 0 < self.positive_weight < math.inf:
            raise ValueError(f"positive_weight must be positive and finite, got {self.positive_weight}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1 or self.epochs < 1:
            raise ValueError("iteration counts must be >= 1")


def box_constraints(cfg: TrainConfig, y: np.ndarray) -> np.ndarray:
    """C_i of every example: C * positive_weight for positives, C otherwise.
    A balanced weight is n_neg / n_pos, or 1.0 for a single-class set."""
    pw = cfg.positive_weight
    if pw is None:
        n_pos, n_neg = int(np.sum(y > 0)), int(np.sum(y < 0))
        pw = n_neg / n_pos if n_pos and n_neg else 1.0
    return np.where(y > 0, cfg.C * pw, cfg.C)


@dataclass
class LinearModel:
    w: np.ndarray
    b: float
    warning: str | None = None

    @property
    def dim(self) -> int:
        return int(self.w.shape[0])


@dataclass
class KernelModel:
    support_idx: np.ndarray  # indices into the training set
    coef: np.ndarray  # alpha_i * y_i per support
    b: float
    lam: float
    normalized: bool
    n_train: int
    kkt_violation: float
    warning: str | None = None
    # the training trees at support_idx, attached by modelio.fit
    support_trees: list[ParseTree] = field(default_factory=list, repr=False)

    @property
    def n_support(self) -> int:
        return int(self.support_idx.shape[0])


def _validate_labels(y: Sequence[int]) -> np.ndarray:
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if not np.all(np.isin(arr, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    return arr


def train_linear(X: Rows, y: Sequence[int], cfg: TrainConfig) -> LinearModel:
    """L1-hinge linear SVM by dual coordinate descent.

    Minimizes 0.5*||w||^2 + sum_i C_i * max(0, 1 - y_i (w.x_i + b)) with the
    bias folded in as an augmented constant feature.  Updates sweep a seeded
    random permutation each epoch and stop once the largest projected-gradient
    violation in an epoch drops below ``cfg.tol``.  Hitting ``cfg.max_iter``
    sweeps first is a soft failure, reported in the model's warning.
    """
    if len(X) == 0:
        raise EmptyData("no training examples")
    if len(X) != len(y):
        raise LengthMismatch(f"{len(X)} vectors but {len(y)} labels")
    y_arr = _validate_labels(y)

    warning = None
    if np.all(y_arr > 0) or np.all(y_arr < 0):
        warning = f"single-class training set (all {int(y_arr[0]):+d})"

    n = len(X)
    bounds = X.indptr.tolist()
    y_list = y_arr.tolist()
    C_list = box_constraints(cfg, y_arr).tolist()
    # per row: (columns, values, y_i, C_i, Q_ii), with Q_ii including the
    # augmented bias feature (constant 1).  The step below works on Python
    # floats: numpy scalar arithmetic and call dispatch would cost more than
    # the product over the row's few nonzeros itself.
    rows = []
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        vals = X.data[a:b]
        rows.append((X.indices[a:b], vals, y_list[i], C_list[i], float(vals.dot(vals)) + 1.0))

    w = np.zeros(X.dim, dtype=np.float64)
    w_b = 0.0
    alpha = [0.0] * n
    rng = np.random.default_rng(cfg.seed)

    for _ in range(cfg.max_iter):
        max_violation = 0.0
        for i in rng.permutation(n).tolist():
            idx, vals, yi, ci, qi = rows[i]
            wi = w[idx]
            g = yi * (float(wi.dot(vals)) + w_b) - 1.0
            a = alpha[i]
            # the projected gradient, and then the new alpha clipped to
            # [0, C_i]; the comparisons pick the same operand as min/max would
            if a <= 0.0:
                pg = 0.0 if g > 0.0 else g
            elif a >= ci:
                pg = 0.0 if g < 0.0 else g
            else:
                pg = g
            if pg != 0.0:
                if abs(pg) > max_violation:
                    max_violation = abs(pg)
                new_a = a - g / qi
                if new_a < 0.0:
                    new_a = 0.0
                elif new_a > ci:
                    new_a = ci
                d = (new_a - a) * yi
                if d != 0.0:
                    alpha[i] = new_a
                    # columns within a row are distinct, so this equals w[idx] += d * vals
                    wi += d * vals
                    w[idx] = wi
                    w_b += d
        if max_violation < cfg.tol:
            break
    else:
        warning = (f"no-convergence: max projected-gradient violation {max_violation:.3e} "
                   f"after {cfg.max_iter} sweeps")

    return LinearModel(w=w, b=float(w_b), warning=warning)


def predict_linear(model: LinearModel, X: Rows) -> list[float]:
    """Decision score w.x + b of every row; the predicted label is +1 iff
    score >= 0."""
    return [s + model.b for s in X.dot(model.w)]


def train_smo(gram: KernelGram, rows: np.ndarray, y: Sequence[int], cfg: TrainConfig) -> KernelModel:
    """Kernel SVM dual solved by SMO with maximal-violating-pair selection.

    The training examples are the Gram rows ``rows``, labelled ``y``; SMO
    reads their block through the index array and copies none of it.
    ``support_idx`` counts positions in ``rows``.
    Terminates when the KKT violation m(alpha) - M(alpha) drops below
    ``cfg.tol``; the bias is the midpoint of the two bounds, and the final
    violation, the model's ``kkt_violation``, is the evidence of convergence.
    Hitting the iteration cap is a soft failure: the last iterate is returned
    with a diagnostic warning instead of raising.
    """
    K = gram.matrix
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise NotSquare(f"gram matrix has shape {K.shape}")
    n = len(rows)
    if len(y) != n:
        raise LengthMismatch(f"{n} gram rows but {len(y)} labels")
    if n < 2:
        raise EmptyData("need at least two training examples")
    y_arr = _validate_labels(y)
    if np.all(y_arr > 0) or np.all(y_arr < 0):
        raise SingleClass("kernel training requires both classes")

    C_arr = box_constraints(cfg, y_arr)
    alpha = np.zeros(n, dtype=np.float64)
    grad = -np.ones(n, dtype=np.float64)  # gradient of 0.5 a'Qa - e'a
    warning = None
    violation = np.inf
    b = 0.0
    it = 0
    while True:
        neg_yg = -y_arr * grad
        up_mask = np.where(y_arr > 0, alpha < C_arr, alpha > 0)
        low_mask = np.where(y_arr > 0, alpha > 0, alpha < C_arr)
        if not up_mask.any() or not low_mask.any():
            violation = 0.0
            break
        up_vals = np.where(up_mask, neg_yg, -np.inf)
        low_vals = np.where(low_mask, neg_yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        m_up = up_vals[i]
        m_low = low_vals[j]
        violation = m_up - m_low
        b = 0.5 * (m_up + m_low)
        if violation < cfg.tol:
            break
        if it >= cfg.max_iter:
            warning = f"no-convergence: KKT violation {violation:.3e} after {it} iterations"
            break

        ri, rj = rows[i], rows[j]
        quad = K[ri, ri] + K[rj, rj] - 2.0 * K[ri, rj]
        if quad <= 0.0:
            quad = 1e-12
        step = violation / quad
        # alpha_i moves by +y_i*step, alpha_j by -y_j*step; clip to the box
        if y_arr[i] > 0:
            step = min(step, C_arr[i] - alpha[i])
        else:
            step = min(step, alpha[i])
        if y_arr[j] > 0:
            step = min(step, alpha[j])
        else:
            step = min(step, C_arr[j] - alpha[j])
        alpha[i] += y_arr[i] * step
        alpha[j] -= y_arr[j] * step
        # rows, not columns: K is symmetric, and a row of a C-order matrix is contiguous
        grad += step * y_arr * (K[ri] - K[rj])[rows]
        it += 1

    support = np.flatnonzero(alpha > 0.0)
    return KernelModel(
        support_idx=support,
        coef=alpha[support] * y_arr[support],
        b=float(b),
        lam=gram.lam,
        normalized=gram.normalized,
        n_train=n,
        kkt_violation=float(violation),
        warning=warning,
    )


def predict_kernel(model: KernelModel, kernel_row: Sequence[float]) -> float:
    """Score sum_i coef_i * K(x, support_i) + b.

    ``kernel_row`` must align with the model's support list.
    """
    row = np.asarray(kernel_row, dtype=np.float64)
    if row.shape[0] != model.n_support:
        raise LengthMismatch(
            f"kernel row has {row.shape[0]} entries but model has {model.n_support} supports"
        )
    return float(np.dot(model.coef, row)) + model.b

