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
    q_list = (X.row_sums(X.data * X.data) + 1.0).tolist()
    rows = [
        (X.indices[a:b], X.data[a:b], y_list[i], C_list[i], q_list[i])
        for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]

    w = np.zeros(X.dim, dtype=np.float64)
    w_b = 0.0
    alpha = [0.0] * n
    rng = np.random.default_rng(cfg.seed)

    for _ in range(cfg.max_iter):
        max_violation = 0.0
        for i in rng.permutation(n).tolist():
            idx, vals, yi, ci, qi = rows[i]
            wi = w[idx]
            # the one BLAS dot left on a pinned path: on a 34-entry row (2-core Xeon)
            # it takes 0.38-0.40 us, an ordered np.add.accumulate(wi * vals)[-1]
            # 0.885 us, about +0.5 us on a ~2.0 us step
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

    # Kept between iterations: grad and f = -y * grad, which both selections
    # read, and penalties that leave an index out of one (up_pen 0.0 or -inf,
    # low_pen 0.0 or +inf), rewritten only for the pair a step moves.  f -=
    # step * d alone would round alike but could flip an exact zero's sign.
    y_list, C_list = y_arr.tolist(), box_constraints(cfg, y_arr).tolist()
    alpha = [0.0] * n
    grad = -np.ones(n)  # gradient of 0.5 a'Qa - e'a
    neg_y, f = -y_arr, y_arr.copy()
    up_pen = np.where(y_arr > 0, 0.0, -np.inf)
    low_pen = np.where(y_arr > 0, np.inf, 0.0)
    diff, buf = np.empty(K.shape[0]), np.empty(n)
    warning, b, it = None, 0.0, 0
    while True:
        # the first index of the largest f that may move up, and of the smallest that may move down
        i = int(np.add(f, up_pen, out=buf).argmax())
        j = int(np.add(f, low_pen, out=buf).argmin())
        if up_pen[i] or low_pen[j]:  # an empty set
            violation = 0.0
            break
        m_up, m_low = float(f[i]), float(f[j])
        violation = m_up - m_low
        b = 0.5 * (m_up + m_low)
        if violation < cfg.tol:
            break
        if it >= cfg.max_iter:
            warning = f"no-convergence: KKT violation {violation:.3e} after {it} iterations"
            break

        ri, rj = rows[i], rows[j]
        Ki, Kj = K[ri], K[rj]
        quad = float(Ki[ri] + Kj[rj] - 2.0 * Ki[rj])
        if quad <= 0.0:
            quad = 1e-12
        # alpha_i moves by +y_i*step, alpha_j by -y_j*step; clip to the box
        yi, yj, ci, cj, ai, aj = y_list[i], y_list[j], C_list[i], C_list[j], alpha[i], alpha[j]
        step = min(violation / quad, ci - ai if yi > 0 else ai)
        step = min(step, aj if yj > 0 else cj - aj)
        for k, a in ((i, ai + yi * step), (j, aj - yj * step)):
            alpha[k] = a
            up_pen[k] = 0.0 if (a < C_list[k] if y_list[k] > 0 else a > 0) else -math.inf
            low_pen[k] = 0.0 if (a > 0 if y_list[k] > 0 else a < C_list[k]) else math.inf
        # rows, not columns: K is symmetric, and a row of a C-order matrix is contiguous
        np.subtract(Ki, Kj, out=diff).take(rows, out=buf)
        buf *= step
        buf *= y_arr
        grad += buf
        np.multiply(neg_y, grad, out=f)
        it += 1

    alpha = np.array(alpha)
    support = np.flatnonzero(alpha > 0.0)
    return KernelModel(support_idx=support, coef=alpha[support] * y_arr[support], b=float(b), lam=gram.lam,
                       normalized=gram.normalized, n_train=n, kkt_violation=float(violation), warning=warning)


def predict_kernel(model: KernelModel, kernel_rows: Sequence[Sequence[float]]) -> list[float]:
    """Scores sum_i coef_i * K(x, support_i) + b, one per row of the 2-D
    ``kernel_rows``: ``0.0`` plus the products in support order, one rounded
    add at a time, then ``b``.  Each row must align with the model's support
    list.
    """
    K = np.asarray(kernel_rows, dtype=np.float64)
    if K.ndim != 2 or K.shape[1] != model.n_support:
        raise LengthMismatch(f"kernel rows of shape {K.shape} but model has {model.n_support} supports")
    # a running sum along each row, from a leading 0.0 column
    terms = np.zeros((K.shape[0], K.shape[1] + 1))
    np.multiply(model.coef, K, out=terms[:, 1:])
    return (np.add.accumulate(terms, axis=1)[:, -1] + model.b).tolist()
