from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    left_to_right,
    linear_objective,
    predict_kernel_csr,
    predict_linear,
    recomputed_kkt_violation,
    reference_train_smo,
    row_dots,
    rows_from_pairs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from claudette.modelio import canonical_json_bytes, linear_payload
from claudette.svm import (
    DimensionMismatch,
    EmptyData,
    KernelModel,
    LinearModel,
    LengthMismatch,
    NotSquare,
    SingleClass,
    TrainConfig,
    box_constraints,
    predict_kernel,
    train_linear,
    train_smo,
)
from claudette.treekernel import KernelGram


TWO_POINTS = rows_from_pairs([[(0, 1.0)], [(0, -1.0)]], 1)
TWO_LABELS = [1, -1]


def separable_blobs(n=200, dim=20, margin=0.5, seed=3):
    """Points with |first coordinate| >= margin deciding the label; noise in
    the remaining coordinates is too small to interfere."""
    rng = np.random.default_rng(seed)
    rows, y = [], []
    for i in range(n):
        label = 1 if i % 2 == 0 else -1
        first = label * (margin + rng.uniform(0.0, 1.0))
        pairs = [(0, first)]
        for j in rng.choice(np.arange(1, dim), size=4, replace=False):
            pairs.append((int(j), rng.uniform(-0.3, 0.3)))
        rows.append(sorted(pairs))
        y.append(label)
    return rows_from_pairs(rows, dim), y


def reference_train_linear(X, y, cfg: TrainConfig) -> LinearModel:
    """DCD with numpy scalars, ``min``/``max`` clipping and a second gather
    per update: the reference that ``train_linear`` must match bit for bit."""
    y_arr = np.asarray(y, dtype=np.float64)
    warning = None
    if np.all(y_arr > 0) or np.all(y_arr < 0):
        warning = f"single-class training set (all {int(y_arr[0]):+d})"
    C_arr = box_constraints(cfg, y_arr)
    n = len(X)
    bounds = X.indptr.tolist()
    idx_list = [X.indices[a:b] for a, b in zip(bounds, bounds[1:])]
    val_list = [X.data[a:b] for a, b in zip(bounds, bounds[1:])]
    q_diag = np.array([left_to_right(v * v for v in vals.tolist()) + 1.0 for vals in val_list])
    w = np.zeros(X.dim, dtype=np.float64)
    w_b = 0.0
    alpha = np.zeros(n, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.max_iter):
        max_violation = 0.0
        for i in rng.permutation(n):
            idx, vals, yi, ci = idx_list[i], val_list[i], y_arr[i], C_arr[i]
            score = (float(np.dot(w[idx], vals)) if idx.size else 0.0) + w_b
            g = yi * score - 1.0
            a = alpha[i]
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= ci:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                max_violation = max(max_violation, abs(pg))
                new_a = min(max(a - g / q_diag[i], 0.0), ci)
                d = (new_a - a) * yi
                if d != 0.0:
                    alpha[i] = new_a
                    w[idx] += d * vals
                    w_b += d
        if max_violation < cfg.tol:
            break
    else:
        warning = (f"no-convergence: max projected-gradient violation {max_violation:.3e} "
                   f"after {cfg.max_iter} sweeps")
    return LinearModel(w=w, b=float(w_b), warning=warning)


def random_rows(n, dim, seed, empty_share=0.1):
    """n rows over dim columns with 0-8 nonzeros each, some rows empty, and
    labels that a sparse hidden direction mostly decides."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dim)
    rows, y = [], []
    for _ in range(n):
        k = 0 if rng.random() < empty_share else int(rng.integers(1, 9))
        cols = np.sort(rng.choice(dim, size=k, replace=False))
        vals = rng.uniform(0.05, 1.0, size=k)
        rows.append(list(zip(cols.tolist(), vals.tolist())))
        margin = float(direction[cols] @ vals) + rng.normal(scale=0.3)
        y.append(1 if margin > 0.4 else -1)
    return rows_from_pairs(rows, dim), y


class TestTrainLinear:
    def test_two_point_separable(self):
        cfg = TrainConfig(C=10.0, tol=1e-6)
        model = train_linear(TWO_POINTS, TWO_LABELS, cfg)
        assert model.w[0] > 0
        positive, negative = predict_linear(model, TWO_POINTS)
        assert positive > 0
        assert negative < 0

    def test_two_point_objective_matches_analytic_optimum(self):
        # Minimizing 0.5*w^2 + 10*[hinge(w+b) + hinge(w-b)] over (w, b) gives
        # w = 1, b = 0 and objective 0.5 (margins exactly 1, no hinge loss).
        cfg = TrainConfig(C=10.0, tol=1e-8)
        model = train_linear(TWO_POINTS, TWO_LABELS, cfg)
        assert linear_objective(model, TWO_POINTS, TWO_LABELS, cfg) == pytest.approx(
            0.5, abs=1e-4
        )

    def test_separable_blobs_zero_training_error(self):
        X, y = separable_blobs()
        model = train_linear(X, y, TrainConfig(C=10.0, tol=1e-4))
        errors = sum(
            1 for score, yi in zip(predict_linear(model, X), y) if (score >= 0) != (yi > 0)
        )
        assert errors == 0

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            train_linear(rows_from_pairs([], 1), [], TrainConfig())

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            train_linear(TWO_POINTS, [1], TrainConfig())

    def test_single_class_allowed_with_warning(self):
        model = train_linear(TWO_POINTS, [1, 1], TrainConfig())
        assert model.warning is not None and "single-class" in model.warning
        assert predict_linear(model, TWO_POINTS)[0] >= 0

    def test_sweep_cap_reports_no_convergence(self):
        X, y = separable_blobs(n=60)
        model = train_linear(X, y, TrainConfig(C=1.0, max_iter=1))
        assert model.warning.startswith("no-convergence: max projected-gradient violation ")
        assert model.warning.endswith(" after 1 sweeps")

    def test_converged_fit_has_no_warning(self):
        X, y = separable_blobs(n=60)
        assert train_linear(X, y, TrainConfig(C=1.0)).warning is None

    def test_balanced_weighting_sums_match_exactly(self):
        y = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        C_arr = box_constraints(TrainConfig(C=2.0), y)
        assert C_arr[y > 0].sum() == C_arr[y < 0].sum()

    def test_explicit_positive_weight(self):
        y = np.array([1.0, -1.0])
        C_arr = box_constraints(TrainConfig(C=2.0, positive_weight=3.0), y)
        assert C_arr.tolist() == [6.0, 2.0]

    def test_seeded_determinism_bytes(self):
        X, y = separable_blobs(n=60)
        cfg = TrainConfig(C=1.0, seed=11)
        m1 = train_linear(X, y, cfg)
        m2 = train_linear(X, y, cfg)
        assert canonical_json_bytes(linear_payload(m1)) == canonical_json_bytes(
            linear_payload(m2)
        )


class TestReferenceSolver:
    """``train_linear`` against ``reference_train_linear``: the same weights,
    bias and warning, to the last bit."""

    @staticmethod
    def assert_identical(X, y, cfg):
        got, want = train_linear(X, y, cfg), reference_train_linear(X, y, cfg)
        assert got.w.tobytes() == want.w.tobytes()
        assert np.array_equal(got.w, want.w)
        assert got.b == want.b
        assert got.warning == want.warning
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_random_batches(self, seed):
        X, y = random_rows(120, 40, seed)
        assert len(set(y)) == 2
        assert any(X.indptr[r] == X.indptr[r + 1] for r in range(len(X)))
        self.assert_identical(X, y, TrainConfig(C=[0.1, 1.0, 10.0][seed % 3], seed=seed))

    def test_all_rows_empty(self):
        X = rows_from_pairs([[], [], [], []], 5)
        self.assert_identical(X, [1, -1, -1, 1], TrainConfig(seed=2))

    def test_single_class(self):
        X, _ = random_rows(40, 20, seed=7)
        for label in (1, -1):
            model = self.assert_identical(X, [label] * len(X), TrainConfig(seed=4))
            assert model.warning.startswith("single-class")

    def test_explicit_positive_weight(self):
        X, y = random_rows(80, 30, seed=9)
        self.assert_identical(X, y, TrainConfig(C=2.0, positive_weight=3.5, seed=1))

    def test_sweep_cap(self):
        X, y = random_rows(80, 30, seed=11)
        model = self.assert_identical(X, y, TrainConfig(C=5.0, max_iter=1, seed=5))
        assert model.warning.startswith("no-convergence: ")


# a batch of up to 8 rows over dim 12: each row a sorted set of columns with
# weights, empty rows included
ROW_BATCHES = st.lists(
    st.dictionaries(st.integers(0, 11), st.floats(-10, 10, allow_nan=False), max_size=12),
    max_size=8,
).map(lambda rows: rows_from_pairs([sorted(r.items()) for r in rows], 12))


class TestPredictLinear:
    def test_zero_model_returns_bias(self):
        model = LinearModel(w=np.zeros(4), b=0.25)
        assert predict_linear(model, rows_from_pairs([[(1, 5.0)], []], 4)) == [0.25, 0.25]

    def test_unit_self_dot(self):
        x = rows_from_pairs([[(0, 0.6), (1, 0.8)]], 2)
        model = LinearModel(w=np.array([0.6, 0.8]), b=0.0)
        assert predict_linear(model, x) == [pytest.approx(1.0)]

    def test_dimension_mismatch(self):
        model = LinearModel(w=np.zeros(4), b=0.0)
        with pytest.raises(DimensionMismatch):
            predict_linear(model, rows_from_pairs([[(0, 1.0)]], 3))

    @settings(max_examples=200, deadline=None)
    @given(X=ROW_BATCHES, seed=st.integers(0, 2**32 - 1))
    def test_scores_equal_the_per_row_dot(self, X, seed):
        rng = np.random.default_rng(seed)
        model = LinearModel(w=rng.normal(size=12), b=float(rng.normal()))
        assert predict_linear(model, X) == [s + model.b for s in row_dots(X, model.w.tolist())]


def identity_gram(n=2):
    return KernelGram(matrix=np.eye(n), lam=1.0, normalized=True)


def random_psd_gram(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, max(2, n // 2)))
    K = A @ A.T
    d = np.sqrt(np.diag(K))
    K = K / np.outer(d, d)  # normalize like a kernel
    return KernelGram(matrix=K, lam=0.4, normalized=True)


class TestTrainSmo:
    def test_two_point_identity_gram(self):
        cfg = TrainConfig(C=1.0, tol=1e-6)
        model = train_smo(identity_gram(), np.arange(2), [1, -1], cfg)
        alphas = np.abs(model.coef)
        assert alphas == pytest.approx([1.0, 1.0], abs=1e-6)
        assert model.b == pytest.approx(0.0, abs=1e-6)
        assert model.support_idx.tolist() == [0, 1]

    def test_equality_constraint(self):
        model = train_smo(identity_gram(), np.arange(2), [1, -1], TrainConfig(tol=1e-6))
        assert abs(model.coef.sum()) <= 1e-6

    def test_on_margin_prediction(self):
        model = train_smo(identity_gram(), np.arange(2), [1, -1], TrainConfig(tol=1e-8))
        # kernel row of training point 0 against the two supports
        score = predict_kernel(model, [[1.0, 0.0]])[0]
        assert 1 * score >= 1 - 1e-6

    def test_random_psd_grams_reach_kkt(self):
        for seed in range(5):
            n = 20 + seed * 5
            gram = random_psd_gram(n, seed)
            rng = np.random.default_rng(100 + seed)
            y = np.where(rng.random(n) < 0.4, 1, -1)
            if np.all(y == y[0]):
                y[0] = -y[0]
            cfg = TrainConfig(C=1.0, tol=1e-3)
            model = train_smo(gram, np.arange(n), list(y), cfg)
            assert model.warning is None
            assert model.kkt_violation < cfg.tol
            assert abs(model.coef.sum()) <= cfg.tol
            # box feasibility
            C_arr = box_constraints(cfg, y.astype(float))
            alphas = np.abs(model.coef)
            assert np.all(alphas >= -1e-12)
            assert np.all(alphas <= C_arr[model.support_idx] + 1e-9)
            # recomputing the violation from scratch agrees
            alpha_full = np.zeros(n)
            alpha_full[model.support_idx] = alphas
            assert recomputed_kkt_violation(gram, list(y), alpha_full, cfg) == pytest.approx(
                model.kkt_violation, abs=1e-9
            )

    def test_dual_objective_trace_nondecreasing(self):
        gram = random_psd_gram(30, 7)
        rng = np.random.default_rng(7)
        y = np.where(rng.random(30) < 0.5, 1, -1)
        if np.all(y == y[0]):
            y[0] = -y[0]
        # the dual objective sum(a) - 0.5 (ay)'K(ay) after k iterations, from
        # the model SMO returns when capped at k, for every k up to convergence
        trace = []
        for k in range(1, 1001):
            model = train_smo(gram, np.arange(30), list(y), TrainConfig(tol=1e-5, max_iter=k))
            ay = np.zeros(30)
            ay[model.support_idx] = model.coef
            trace.append(float(np.sum(np.abs(ay)) - 0.5 * ay @ gram.matrix @ ay))
            if model.warning is None:
                break
        assert model.warning is None and len(trace) > 1
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 1e-9

    def test_not_square(self):
        gram = KernelGram(matrix=np.zeros((2, 3)), lam=1.0, normalized=False)
        with pytest.raises(NotSquare):
            train_smo(gram, np.arange(2), [1, -1], TrainConfig())

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            train_smo(identity_gram(), np.arange(2), [1, 1], TrainConfig())

    def test_label_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            train_smo(identity_gram(), np.arange(2), [1, -1, 1], TrainConfig())

    def test_iteration_cap_is_soft(self):
        gram = random_psd_gram(30, 3)
        rng = np.random.default_rng(3)
        y = np.where(rng.random(30) < 0.5, 1, -1)
        if np.all(y == y[0]):
            y[0] = -y[0]
        model = train_smo(gram, np.arange(30), list(y), TrainConfig(tol=1e-9, max_iter=2))
        assert model.warning is not None and "no-convergence" in model.warning
        assert np.all(np.isfinite(model.coef))


def smo_bits(model):
    """What ``train_smo`` returns, each float as its bytes, so that the sign
    of a zero counts too."""
    return (
        model.coef.tobytes(),
        model.support_idx.tobytes(),
        np.float64(model.b).tobytes(),
        np.float64(model.kkt_violation).tobytes(),
        model.warning,
    )


def both_classes(rng, n, p=0.4):
    y = np.where(rng.random(n) < p, 1, -1)
    y[:2] = (1, -1)
    return y.tolist()


class TestTrainSmoEqualsReference:
    """``train_smo`` keeps its working-set state between iterations; every
    fit is the reference loop's, bit for bit."""

    @pytest.mark.parametrize("positive_weight", [None, 2.5])
    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
    def test_fold_blocks_of_a_larger_gram(self, C, positive_weight):
        gram = random_psd_gram(60, 11)
        rng = np.random.default_rng(12)
        cfg = TrainConfig(C=C, positive_weight=positive_weight)
        # LOO folds: every row but one run, in order; then shuffled subsets
        blocks = [np.setdiff1d(np.arange(60), np.arange(k, k + 12)) for k in (0, 24, 48)]
        blocks += [rng.permutation(60)[:35] for _ in range(3)]
        for rows in blocks:
            y = both_classes(rng, len(rows))
            model = train_smo(gram, rows, y, cfg)
            assert smo_bits(model) == smo_bits(reference_train_smo(gram, rows, y, cfg))

    def test_every_iteration_cap(self):
        gram = random_psd_gram(60, 13)
        rng = np.random.default_rng(14)
        rows = np.arange(1, 60, 2)
        y = both_classes(rng, len(rows), 0.5)
        # uncapped, this fit takes 172 iterations: every iterate is compared
        for max_iter in range(1, 172):
            cfg = TrainConfig(C=1.0, tol=1e-9, max_iter=max_iter)
            model = train_smo(gram, rows, y, cfg)
            assert model.warning.startswith("no-convergence")
            assert smo_bits(model) == smo_bits(reference_train_smo(gram, rows, y, cfg))

    def test_duplicate_rows_take_the_flat_curvature_branch(self):
        # rows 0 and 1 are the same point with opposite labels, so the first
        # pair SMO picks, the first up and the first low index, has quad 0
        rng = np.random.default_rng(15)
        A = rng.normal(size=(20, 4))
        A[1], A[7] = A[0], A[3]
        gram = KernelGram(matrix=A @ A.T, lam=1.0, normalized=False)
        y = [1, -1] + both_classes(rng, 18)
        for C in (0.1, 1.0, 10.0):
            cfg = TrainConfig(C=C)
            assert smo_bits(train_smo(gram, np.arange(20), y, cfg)) == smo_bits(
                reference_train_smo(gram, np.arange(20), y, cfg)
            )

    def test_empty_up_set(self):
        # C * positive_weight underflows to 0: no positive may move up and
        # no negative down, so SMO stops before its first step
        cfg = TrainConfig(C=1e-300, positive_weight=1e-300)
        gram = random_psd_gram(8, 16)
        y = [1, -1, 1, -1, -1, 1, -1, -1]
        model = train_smo(gram, np.arange(8), y, cfg)
        assert model.kkt_violation == 0.0 and model.n_support == 0
        assert smo_bits(model) == smo_bits(reference_train_smo(gram, np.arange(8), y, cfg))

    def test_an_exact_zero_keeps_its_sign(self):
        # the gradient of row 1 cancels to zero exactly; the reference's b is
        # -0.0, which f -= step * d alone would round to +0.0
        gram = KernelGram(matrix=np.array([[9.0, 3.0, 4.0], [3.0, 2.0, 1.0], [4.0, 1.0, 2.0]]), lam=1.0, normalized=False)
        cfg = TrainConfig(C=2.0)
        model = train_smo(gram, np.arange(3), [-1, 1, -1], cfg)
        assert np.float64(model.b).tobytes() == np.float64(-0.0).tobytes()
        assert smo_bits(model) == smo_bits(reference_train_smo(gram, np.arange(3), [-1, 1, -1], cfg))


class TestPredictKernel:
    def make_model(self, coef, b=0.0):
        coef = np.asarray(coef, dtype=float)
        return KernelModel(
            support_idx=np.arange(len(coef)),
            coef=coef,
            b=b,
            lam=0.4,
            normalized=True,
            n_train=len(coef),
            kkt_violation=0.0,
        )

    def test_no_supports_returns_bias(self):
        model = self.make_model([], b=0.75)
        assert predict_kernel(model, [[]]) == [0.75]

    def test_linearity_in_kernel_row(self):
        model = self.make_model([0.5, -0.25], b=0.1)
        row = [0.8, 0.4]
        base = predict_kernel(model, [row])[0] - model.b
        doubled = predict_kernel(model, [[2 * v for v in row]])[0] - model.b
        assert doubled == pytest.approx(2 * base)

    def test_length_mismatch(self):
        model = self.make_model([0.5, -0.25])
        with pytest.raises(LengthMismatch):
            predict_kernel(model, [[1.0]])

    def test_a_batch_scores_each_row_as_alone(self):
        rng = np.random.default_rng(17)
        model = self.make_model(rng.normal(size=9), b=-0.3)
        rows = rng.random((6, 9))
        assert predict_kernel(model, rows) == [predict_kernel(model, [row])[0] for row in rows]
        assert predict_kernel(model, rows[:0]) == []

    @pytest.mark.parametrize("m", [0, 1, 2, 9, 64])
    def test_scores_equal_the_csr_row_sums_bit_for_bit(self, m):
        # all-zero rows, negative coefficients (so -0.0 products), zero
        # supports and a bias of -0.0 included
        rng = np.random.default_rng(m)
        K = rng.random((8, m)) * 10.0 ** rng.integers(-8, 8, size=(8, m))
        K[3] = 0.0
        for coef in (rng.normal(size=m), -rng.random(m), np.zeros(m)):
            for b in (0.0, -0.0, -0.3):
                model = self.make_model(coef, b=b)
                got, want = predict_kernel(model, K), predict_kernel_csr(model, K)
                assert np.array(got).tobytes() == np.array(want).tobytes()
