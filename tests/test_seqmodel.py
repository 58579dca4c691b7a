from __future__ import annotations

import random
import struct
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_best,
    chain_lattice,
    lattice_path_score,
    loss_augmented_decode,
    loss_lattice,
    per_row_emissions,
    rows_from_pairs,
    structured_objective,
    viterbi,
)

from claudette import seqmodel
from claudette.features import FeatureConfig
from claudette.modelio import CorpusTable, canonical_json_bytes, chain_payload
from claudette.seqmodel import (
    ChainModel,
    SeqExample,
    UnknownLabel,
    train_chain,
)
from claudette.svm import DimensionMismatch, EmptyData, SingleClass, TrainConfig


def unit(i):
    """The (index, value) pairs of a one-hot sentence row."""
    return [(i, 1.0)]


def two_label_objective(example):
    return structured_objective(ChainModel.zeros(("n", "p"), 2), [example], 1.0)


def reference_score(model, xs, ys):
    """Score of one labeling: the reference path score over the reference
    lattice."""
    return lattice_path_score(model, per_row_emissions(model, xs), ys)


def numpy_decode(model, E):
    """Viterbi as a numpy ``argmax`` recursion: the reference that
    ``seqmodel._decode`` must match bit for bit."""
    k, L = E.shape
    dp = model.start + E[0]
    ptr = np.zeros((k, L), dtype=np.int64)
    for t in range(1, k):
        cand = dp[:, None] + model.transitions  # (prev, cur)
        best_prev = np.argmax(cand, axis=0)  # first (lowest) index wins ties
        dp = cand[best_prev, np.arange(L)] + E[t]
        ptr[t] = best_prev
    last = int(np.argmax(dp))
    score = float(dp[last])
    ys = [0] * k
    ys[-1] = last
    for t in range(k - 1, 0, -1):
        ys[t - 1] = int(ptr[t, ys[t]])
    return ys, score


def reference_apply_update(model, ex, y_hat, eta):
    """One fancy-index ``+=``/``-=`` pair per violated row: the reference for
    the one-scatter update."""
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


def reference_train_chain(examples, cfg, labels):
    """The chain trainer over ndarray lattices: per-row emission products,
    ``E + loss``, the numpy decode, a separate gold path score and one
    scatter pair per violated row.  ``train_chain`` must match it bit for
    bit."""
    model = ChainModel.zeros(labels, examples[0].xs.dim)
    avg_em = np.zeros_like(model.emissions)
    avg_tr = np.zeros_like(model.transitions)
    avg_st = np.zeros_like(model.start)
    n = len(examples)
    lam_reg = 1.0 / (cfg.C * n)
    rng = np.random.default_rng(cfg.seed)
    tail_start = cfg.epochs * n // 2 + 1
    averaged_steps = 0
    t = 0
    for _ in range(cfg.epochs):
        for j in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam_reg * t)
            shrink = 1.0 - eta * lam_reg
            model.emissions *= shrink
            model.transitions *= shrink
            model.start *= shrink
            ex = examples[j]
            E_aug = loss_lattice(per_row_emissions(model, ex.xs), list(ex.ys))
            y_hat, aug_score = numpy_decode(model, E_aug)
            gold_score = lattice_path_score(model, E_aug, ex.ys)
            if aug_score > gold_score:
                reference_apply_update(model, ex, y_hat, eta)
            if t >= tail_start:
                avg_em += model.emissions
                avg_tr += model.transitions
                avg_st += model.start
                averaged_steps += 1
    return ChainModel(
        labels=tuple(labels),
        emissions=avg_em / averaged_steps,
        transitions=avg_tr / averaged_steps,
        start=avg_st / averaged_steps,
    )


def bits(x):
    """A float's IEEE bytes, so that 0.0 and -0.0 differ."""
    return struct.pack("<d", x)


def random_model_and_sequence(rng, max_len=8, max_labels=3, dim=5):
    L = rng.randint(2, max_labels)
    k = rng.randint(1, max_len)
    model = ChainModel.zeros([str(i) for i in range(L)], dim)
    npr = np.random.default_rng(rng.randrange(1 << 30))
    model.emissions = npr.normal(size=(L, dim))
    model.transitions = npr.normal(size=(L, L))
    model.start = npr.normal(size=L)
    xs = []
    for _ in range(k):
        idx = sorted(rng.sample(range(dim), rng.randint(0, dim - 1)))
        xs.append([(i, rng.uniform(-1, 1)) for i in idx])
    return model, rows_from_pairs(xs, dim)


class TestPathScore:
    def test_length_one_has_no_transition_term(self):
        model = ChainModel.zeros(["n", "p"], 2)
        model.start[:] = [0.5, -0.5]
        model.emissions[1, 0] = 2.0
        model.transitions[:] = 99.0  # must not contribute
        assert reference_score(model, rows_from_pairs([unit(0)], 2), [1]) == pytest.approx(-0.5 + 2.0)

    def test_zero_model_scores_zero(self):
        model = ChainModel.zeros(["n", "p"], 3)
        xs = rows_from_pairs([unit(0), unit(2)], 3)
        for ys in product(range(2), repeat=2):
            assert reference_score(model, xs, list(ys)) == 0.0

    def test_hand_summed_two_step(self):
        model = ChainModel.zeros(["n", "p"], 2)
        model.start[:] = [0.1, 0.2]
        model.emissions[:] = [[1.0, -1.0], [0.5, 2.0]]
        model.transitions[:] = [[0.0, -0.3], [0.7, 0.0]]
        xs = rows_from_pairs([[(0, 2.0)], [(1, 3.0)]], 2)
        # start[1] + em[1].x1 + trans[1,0] + em[0].x2
        expected = 0.2 + (0.5 * 2.0) + 0.7 + (-1.0 * 3.0)
        assert reference_score(model, xs, [1, 0]) == pytest.approx(expected)


class TestViterbi:
    def test_zero_transitions_is_per_position_argmax(self):
        model = ChainModel.zeros(["n", "p"], 2)
        model.emissions[:] = np.eye(2)
        xs = rows_from_pairs([unit(0), unit(1)], 2)
        ys, score = viterbi(model, xs)
        assert ys == [0, 1]
        assert score == pytest.approx(2.0)

    def test_transition_penalty_changes_path(self):
        model = ChainModel.zeros(["n", "p"], 2)
        model.emissions[0, 0] = 1.0
        model.emissions[1, 1] = 1.0
        model.transitions[0, 1] = -5.0
        xs = rows_from_pairs([unit(0), [(1, 2.0)]], 2)
        ys, score = viterbi(model, xs)
        assert ys == [1, 1]
        assert score == pytest.approx(2.0)

    def test_matches_brute_force(self):
        rng = random.Random(2024)
        for _ in range(100):
            model, xs = random_model_and_sequence(rng)
            E = per_row_emissions(model, xs)
            expected_ys, expected_score = brute_force_best(model, E)
            ys, score = viterbi(model, xs)
            assert score == expected_score
            assert ys == expected_ys

    def test_score_certification(self):
        rng = random.Random(77)
        for _ in range(30):
            model, xs = random_model_and_sequence(rng)
            ys, score = viterbi(model, xs)
            assert reference_score(model, xs, ys) == pytest.approx(score, abs=1e-9)

    def test_tie_rule_prefers_low_labels(self):
        model = ChainModel.zeros(["a", "b", "c"], 2)
        xs = rows_from_pairs([unit(0), unit(1), unit(0)], 2)
        ys, score = viterbi(model, xs)
        assert ys == [0, 0, 0]
        assert score == 0.0


# half-integer weights make equal path scores, and so ties, frequent
HALF_STEPS = st.integers(-4, 4).map(lambda i: i / 2)


@st.composite
def grid_chains(draw):
    """A model over k unit-vector sentences, so that emission row t is the
    model's column t, with every weight and gold label drawn from a grid."""
    L = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(1, 12))
    weights = st.lists(HALF_STEPS, min_size=L * k + L * L + L, max_size=L * k + L * L + L)
    w = draw(weights)
    model = ChainModel.zeros([str(i) for i in range(L)], k)
    model.emissions = np.array(w[: L * k], dtype=np.float64).reshape(L, k)
    model.transitions = np.array(w[L * k : L * k + L * L], dtype=np.float64).reshape(L, L)
    model.start = np.array(w[L * k + L * L :], dtype=np.float64)
    gold = draw(st.lists(st.integers(0, L - 1), min_size=k, max_size=k))
    return model, rows_from_pairs([unit(t) for t in range(k)], k), gold


class TestDecodeMatchesNumpyReference:
    @settings(max_examples=300, deadline=None)
    @given(grid_chains())
    def test_paths_and_scores_are_identical(self, chain):
        model, xs, gold = chain
        E = model.emissions.T.copy()
        assert viterbi(model, xs) == numpy_decode(model, E)
        loss = np.ones_like(E)
        loss[np.arange(len(gold)), gold] = 0.0
        E_aug = E + loss
        assert loss_augmented_decode(model, xs, gold) == numpy_decode(model, E_aug)
        assert seqmodel._decode(model, E_aug.tolist(), gold)[2] == lattice_path_score(model, E_aug, gold)


# grid weights with both signed zeros make ties and -0.0 + 0.0 sums
# frequent; arbitrary floats make sums whose rounding depends on their order
SIGNED_WEIGHTS = st.one_of(
    st.sampled_from([-0.0, 0.0, -0.5, 0.5, -1.0, 1.0, 1.5, -2.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def sparse_documents(draw):
    """A model with 2-4 labels and a document whose rows are empty, hold one
    entry or several, with signed zeros among the weights and values.  The
    weights are held in C order, in Fortran order or as a strided view."""
    L = draw(st.sampled_from([2, 3, 4]))
    dim = draw(st.integers(1, 8))
    weights = np.array(draw(st.lists(SIGNED_WEIGHTS, min_size=L * dim, max_size=L * dim))).reshape(L, dim)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        weights = np.asfortranarray(weights)
    elif layout == "strided":
        held = np.zeros((2 * L, 3 * dim))
        held[::2, ::3] = weights
        weights = held[::2, ::3]
    model = ChainModel.zeros([str(i) for i in range(L)], dim)
    model.emissions = weights
    columns = st.one_of(
        st.just([]),
        st.lists(st.integers(0, dim - 1), min_size=1, max_size=1),
        st.sets(st.integers(0, dim - 1), min_size=min(2, dim)).map(sorted),
    )
    rows = [[(i, draw(SIGNED_WEIGHTS)) for i in idx] for idx in draw(st.lists(columns, min_size=1, max_size=8))]
    return model, rows_from_pairs(rows, dim)


class TestEmissions:
    def test_one_gather_matches_per_row_products(self):
        rng = np.random.default_rng(8)
        dim = 50
        model = ChainModel.zeros(["a", "b", "c"], dim)
        model.emissions = rng.normal(size=(3, dim))
        xs = []
        for n in (7, 0, 1, 12, 0, 3):  # includes empty rows
            idx = np.sort(rng.choice(dim, n, replace=False))
            xs.append(list(zip(idx.tolist(), rng.normal(size=n))))
        xs = rows_from_pairs(xs, dim)
        E = np.array(chain_lattice(model, xs))
        assert (E == per_row_emissions(model, xs)).all()
        assert (E[[1, 4]] == 0.0).all()
        gold = [0, 1, 2, 0, 1, 2]
        loss = np.ones((6, 3))
        loss[np.arange(6), gold] = 0.0
        assert (loss_lattice(per_row_emissions(model, xs), gold) == per_row_emissions(model, xs) + loss).all()

    @settings(max_examples=300, deadline=None)
    @given(sparse_documents(), st.data())
    def test_lattice_equals_the_reference_bit_for_bit(self, document, data):
        model, xs = document
        labels = st.lists(st.integers(0, model.n_labels - 1), min_size=len(xs), max_size=len(xs))
        gold = data.draw(st.none() | labels)
        want = per_row_emissions(model, xs)
        if gold is not None:
            want = loss_lattice(want, gold)  # -0.0 on gold becomes 0.0
        plan = seqmodel._plan(xs, model.n_labels, gold)
        got = [[bits(e) for e in row] for row in seqmodel._lattice(model, xs, plan)]
        assert got == [[bits(e) for e in row] for row in want.tolist()]

    def test_entry_points_check_the_sequence(self):
        model = ChainModel.zeros(["n", "p"], 2)
        for call in (viterbi, lambda m, xs: loss_augmented_decode(m, xs, [0] * len(xs))):
            with pytest.raises(DimensionMismatch):
                call(model, rows_from_pairs([unit(0)], 3))
            with pytest.raises(EmptyData):
                call(model, rows_from_pairs([], 2))


class TestLossAugmented:
    def test_zero_model_maximizes_hamming(self):
        model = ChainModel.zeros(["n", "p"], 2)
        xs = rows_from_pairs([unit(0)] * 4, 2)
        gold = [0, 0, 0, 0]
        ys, score = loss_augmented_decode(model, xs, gold)
        assert ys == [1, 1, 1, 1]  # lowest non-gold label everywhere
        assert score == pytest.approx(4.0)  # full Hamming distance

    def test_zero_model_three_labels_ties(self):
        model = ChainModel.zeros(["a", "b", "c"], 2)
        ys, score = loss_augmented_decode(model, rows_from_pairs([unit(0)] * 2, 2), [0, 1])
        assert ys == [1, 0]  # lowest non-gold label at each position
        assert score == pytest.approx(2.0)

    def test_strong_margin_keeps_gold(self):
        model = ChainModel.zeros(["n", "p"], 2)
        model.emissions[0, 0] = 5.0
        model.emissions[1, 1] = 5.0
        xs = rows_from_pairs([unit(0), unit(1)], 2)
        gold = [0, 1]
        ys, score = loss_augmented_decode(model, xs, gold)
        # per position: gold emission 5 vs competitor 0 + 1 loss; gold wins
        assert ys == gold
        assert score == pytest.approx(10.0)

    def test_augmented_score_at_least_gold(self):
        rng = random.Random(31)
        for _ in range(30):
            model, xs = random_model_and_sequence(rng)
            gold = [rng.randrange(model.n_labels) for _ in range(len(xs))]
            _, aug = loss_augmented_decode(model, xs, gold)
            assert aug >= reference_score(model, xs, gold) - 1e-9

    def test_matches_brute_force(self):
        rng = random.Random(404)
        for _ in range(100):
            model, xs = random_model_and_sequence(rng)
            gold = [rng.randrange(model.n_labels) for _ in range(len(xs))]
            E_aug = loss_lattice(per_row_emissions(model, xs), gold)
            expected_ys, expected_score = brute_force_best(model, E_aug)
            ys, score = loss_augmented_decode(model, xs, gold)
            assert score == expected_score
            assert ys == expected_ys


def separable_sequences(n_seq=10, seed=0):
    rng = random.Random(seed)
    examples = []
    for _ in range(n_seq):
        k = rng.randint(3, 6)
        xs, ys = [], []
        for _ in range(k):
            y = rng.randint(0, 1)
            xs.append(unit(0 if y == 1 else 1))
            ys.append(y)
        examples.append(SeqExample(rows_from_pairs(xs, 2), tuple(ys)))
    return examples


def run_sequences(
    n_seq=50,
    k=16,
    dims=12,
    seed=5,
    run_lengths=(2, 2),
    n_runs=2,
    n_traps=0,
    bias_dim=True,
):
    """Positive runs with 60/40-noisy cue dimensions and a constant feature.

    With ``n_traps`` set, that many isolated negatives per sequence carry the
    elevated cue rate too, so cue-bearing sentences are ambiguous and only
    adjacency separates them.
    """
    rng = random.Random(seed)
    examples = []
    for _ in range(n_seq):
        pos = [False] * k
        placed = 0
        attempts = 0
        while placed < n_runs and attempts < 300:
            attempts += 1
            L = rng.choice(run_lengths)
            s0 = rng.randrange(k - L + 1)
            if any(pos[max(0, s0 - 1) : min(k, s0 + L + 1)]):
                continue
            for i in range(s0, s0 + L):
                pos[i] = True
            placed += 1
        traps: set[int] = set()
        attempts = 0
        while len(traps) < n_traps and attempts < 100:
            attempts += 1
            s = rng.randrange(k)
            if pos[s] or any(pos[max(0, s - 1) : min(k, s + 2)]):
                continue
            if any(abs(s - t) <= 1 for t in traps):
                continue
            traps.add(s)
        xs, ys = [], []
        for t in range(k):
            rate = 0.6 if (pos[t] or t in traps) else 0.4
            idx = {d for d in range(4) if rng.random() < rate}
            idx.add(4 + rng.randrange(7))
            if bias_dim:
                idx.add(dims - 1)
            xs.append([(i, 1.0) for i in sorted(idx)])
            ys.append(1 if pos[t] else 0)
        examples.append(SeqExample(rows_from_pairs(xs, dims), tuple(ys)))
    return examples


def paired_cue_sequences(n_seq=40, k=16, dims=10, seed=5, n_pairs=2, n_traps=3):
    """Positives in adjacent pairs, all carrying cue dimension 0; ``n_traps``
    isolated negatives carry the cue too.  Per sentence the cue is ambiguous
    (4 of 7 cued sentences are positive); adjacency alone disambiguates."""
    rng = random.Random(seed)
    examples = []
    for _ in range(n_seq):
        pos = [False] * k
        placed = 0
        attempts = 0
        while placed < n_pairs and attempts < 300:
            attempts += 1
            s0 = rng.randrange(k - 1)
            if any(pos[max(0, s0 - 1) : min(k, s0 + 3)]):
                continue
            pos[s0] = pos[s0 + 1] = True
            placed += 1
        traps: set[int] = set()
        attempts = 0
        while len(traps) < n_traps and attempts < 200:
            attempts += 1
            s = rng.randrange(k)
            if pos[s] or any(pos[max(0, s - 1) : min(k, s + 2)]):
                continue
            if any(abs(s - t) <= 1 for t in traps):
                continue
            traps.add(s)
        xs, ys = [], []
        for t in range(k):
            idx = {0} if (pos[t] or t in traps) else set()
            idx.add(1 + rng.randrange(7))
            idx.add(dims - 1)  # constant bias feature
            xs.append([(i, 1.0) for i in sorted(idx)])
            ys.append(1 if pos[t] else 0)
        examples.append(SeqExample(rows_from_pairs(xs, dims), tuple(ys)))
    return examples


class TestTrainChain:
    def test_no_feature_columns(self):
        # a vocabulary that keeps no term gives rows of dim 0: the flat weight
        # vector then holds only the transitions and the start
        shapes = [(2, 0), (2, 2), (2,)]
        zeros = ChainModel.zeros(("negative", "positive"), 0)
        assert [a.shape for a in (zeros.emissions, zeros.transitions, zeros.start)] == shapes
        examples = [
            SeqExample(rows_from_pairs([[], [], []], 0), (0, 1, 1)),
            SeqExample(rows_from_pairs([[], []], 0), (1, 0)),
        ]
        model = train_chain(examples, TrainConfig(seed=1, C=10.0, epochs=3), ("negative", "positive"))
        assert model.dim == 0
        assert [a.shape for a in (model.emissions, model.transitions, model.start)] == shapes

    def test_separable_sequences_reach_zero_hamming(self):
        examples = separable_sequences()
        model = train_chain(examples, TrainConfig(seed=3, C=10.0))
        errors = 0
        for ex in examples:
            pred, _ = viterbi(model, ex.xs)
            errors += sum(p != g for p, g in zip(pred, ex.ys))
        assert errors == 0

    def test_objective_decreases_on_separable_data(self):
        examples = separable_sequences()
        model = train_chain(examples, TrainConfig(seed=3, C=10.0))
        trained = structured_objective(model, examples, 10.0)
        untrained = structured_objective(ChainModel.zeros(model.labels, model.dim), examples, 10.0)
        assert np.isfinite(trained)
        assert trained < untrained

    def test_single_length_one_example(self):
        example = SeqExample(rows_from_pairs([unit(0)], 2), (1,))
        model = train_chain([example], TrainConfig(seed=0, C=10.0))
        pred, _ = viterbi(model, example.xs)
        assert pred == [1]

    def test_adjacency_coupling_learned_on_paired_positives(self):
        # Positives come in adjacent pairs; isolated trap negatives carry the
        # same cue, so cue-bearing sentences are roughly 60/40 ambiguous and
        # only adjacency separates them.  The learned matrix must then favor
        # agreeing neighbors: the reparameterization-invariant coupling
        # t[p,p] + t[n,n] - t[p,n] - t[n,p] comes out positive even though the
        # class prior shifts individual rows (see the long-run test below for
        # the row-wise form).
        examples = paired_cue_sequences()
        model = train_chain(examples, TrainConfig(seed=3, C=10.0, epochs=30))
        t = model.transitions
        coupling = t[1, 1] + t[0, 0] - t[1, 0] - t[0, 1]
        assert coupling > 0
        # and the learned policy actually resolves the ambiguity
        errors = 0
        for ex in examples:
            pred, _ = viterbi(model, ex.xs)
            errors += sum(p != g for p, g in zip(pred, ex.ys))
        assert errors == 0

    def test_long_runs_raise_pos_to_pos_above_pos_to_neg(self):
        examples = run_sequences(run_lengths=(6, 7, 8, 9, 10), n_runs=1, seed=9)
        model = train_chain(examples, TrainConfig(seed=3, C=10.0, epochs=30))
        assert model.transitions[1, 1] > model.transitions[1, 0]

    def test_deterministic_given_seed(self):
        examples = separable_sequences()
        cfg = TrainConfig(seed=12, C=5.0)
        m1 = train_chain(examples, cfg)
        m2 = train_chain(examples, cfg)
        assert canonical_json_bytes(chain_payload(m1)) == canonical_json_bytes(
            chain_payload(m2)
        )

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            train_chain([], TrainConfig())

    def test_dimension_mismatch(self):
        examples = [
            SeqExample(rows_from_pairs([unit(0)], 2), (0,)),
            SeqExample(rows_from_pairs([unit(0)], 3), (0,)),
        ]
        with pytest.raises(DimensionMismatch):
            train_chain(examples, TrainConfig())

    def test_label_set_too_small(self):
        with pytest.raises(UnknownLabel):
            train_chain([SeqExample(rows_from_pairs([unit(0)], 2), (3,))], TrainConfig(), labels=("n", "p"))

    @pytest.mark.parametrize("labels", [("only",), ()])
    def test_fewer_than_two_labels(self, labels):
        example = SeqExample(rows_from_pairs([unit(0), unit(1)], 2), (0, 0))
        with pytest.raises(SingleClass):
            train_chain([example], TrainConfig(), labels=labels)

    @pytest.mark.parametrize(
        "score, gold",
        [
            pytest.param(lambda ex: train_chain([ex], TrainConfig(), labels=("n", "p")), -1, id="labels0"),
            pytest.param(lambda ex: train_chain([ex], TrainConfig()), -1, id="None"),
            pytest.param(two_label_objective, -1, id="objective-1"),
            pytest.param(two_label_objective, 2, id="objective-L"),
        ],
    )
    def test_negative_label(self, score, gold):
        """A gold label outside [0, L) raises, in training and in the objective."""
        example = SeqExample(rows_from_pairs([unit(0), unit(1)], 2), (gold, 0))
        with pytest.raises(UnknownLabel):
            score(example)


def corpus_sequences(corpus):
    """Each document of ``corpus`` as one sequence over the corpus
    vocabulary, as ``modelio.fit`` builds a chain's training set."""
    table = CorpusTable(corpus.documents, None, FeatureConfig())
    rows = table.rows(list(table.documents))
    X = table.terms.vectorize(table.terms.vocabulary(rows), rows)
    examples, pos = [], 0
    for doc in corpus.documents:
        k = len(doc.sentences)
        ys = tuple(1 if ls.detection_label else 0 for ls in doc.sentences)
        examples.append(SeqExample(X[pos : pos + k], ys))
        pos += k
    return examples


def shared_term_sequences(seed, n_seq=6, dim=6, n_labels=3):
    """Short sequences over a few columns with random labels, so that the
    margin is violated at many rows and violated rows share terms; about one
    row in seven is empty."""
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n_seq):
        k = int(rng.integers(1, 9))
        rows = []
        for _ in range(k):
            n = 0 if rng.random() < 0.15 else int(rng.integers(1, dim))
            cols = np.sort(rng.choice(dim, n, replace=False))
            rows.append(list(zip(cols.tolist(), rng.uniform(0.05, 2.0, n).tolist())))
        ys = tuple(int(y) for y in rng.integers(0, n_labels, k))
        examples.append(SeqExample(rows_from_pairs(rows, dim), ys))
    return examples


def model_bytes(model):
    return [a.tobytes() for a in (model.emissions, model.transitions, model.start)]


class TestReferenceTrainer:
    """``train_chain`` against ``reference_train_chain``: the same emissions,
    transitions and start, to the last bit."""

    @staticmethod
    def assert_identical(examples, cfg, labels):
        got = train_chain(examples, cfg, labels=labels)
        assert model_bytes(got) == model_bytes(reference_train_chain(examples, cfg, labels))

    @pytest.mark.parametrize("corpus", ["planted_corpus", "adjacency_corpus"])
    def test_fixture_sequences(self, corpus, request):
        examples = corpus_sequences(request.getfixturevalue(corpus))
        self.assert_identical(examples, TrainConfig(seed=7, C=30.0, epochs=6), ("negative", "positive"))

    @pytest.mark.parametrize("seed", range(8))
    def test_three_labels_with_shared_terms(self, seed):
        examples = shared_term_sequences(seed)
        self.assert_identical(examples, TrainConfig(seed=seed, C=[0.5, 5.0][seed % 2], epochs=10), ("a", "b", "c"))

    def test_sequence_with_an_empty_row(self):
        xs = rows_from_pairs([[(0, 1.0), (2, 0.5)], [], [(1, 2.0)], [(0, 0.25), (1, 0.75)]], 3)
        examples = [SeqExample(xs, (1, 0, 1, 0)), SeqExample(xs[1:3], (1, 0))]
        self.assert_identical(examples, TrainConfig(seed=1, C=3.0, epochs=8), ("n", "p"))

    def test_one_scatter_keeps_the_row_order_of_a_shared_term(self):
        # rows 0 and 2 are violated, share column 1 and move it in opposite
        # label directions: label 0 gets +then-, label 1 gets -then+; in the
        # last two cases the empty row 1 is violated too
        rng = np.random.default_rng(3)
        cases = [(3, (0, 2, 1), [1, 2, 0]), (2, (0, 0, 1), [1, 1, 0]), (3, (0, 0, 1), [1, 2, 0])]
        for (L, gold, y_hat), _ in product(cases, range(50)):
            v = rng.uniform(0.05, 3.0, size=4)
            xs = rows_from_pairs([[(0, v[0]), (1, v[1])], [], [(1, v[2]), (2, v[3])]], 3)
            ex = SeqExample(xs, gold)
            base = ChainModel.zeros([str(i) for i in range(L)], 3)
            base.emissions = rng.normal(size=(L, 3))
            base.transitions = rng.normal(size=(L, L))
            base.start = rng.normal(size=L)
            got, want = (
                ChainModel(base.labels, base.emissions.copy(), base.transitions.copy(), base.start.copy())
                for _ in range(2)
            )
            eta = float(rng.uniform(0.1, 10.0))
            seqmodel._apply_update(got, ex, y_hat, eta)
            reference_apply_update(want, ex, y_hat, eta)
            assert model_bytes(got) == model_bytes(want)


@st.composite
def signed_grid_chains(draw):
    """Like ``grid_chains``, with signed zeros and arbitrary floats among the
    weights; half the chains have two labels, which ``_decode`` unrolls."""
    L = draw(st.sampled_from([2, 2, 3, 4]))
    k = draw(st.integers(1, 12))

    def grid(n):
        return np.array(draw(st.lists(SIGNED_WEIGHTS, min_size=n, max_size=n)), dtype=np.float64)

    model = ChainModel.zeros([str(i) for i in range(L)], k)
    model.emissions = grid(L * k).reshape(L, k)
    model.transitions = grid(L * L).reshape(L, L)
    model.start = grid(L)
    gold = draw(st.lists(st.integers(0, L - 1), min_size=k, max_size=k))
    return model, rows_from_pairs([unit(t) for t in range(k)], k), gold


class TestTrainingDecode:
    """The training decode, over a lattice that already holds the margin
    loss, against the numpy reference."""

    @settings(max_examples=300, deadline=None)
    @given(signed_grid_chains())
    def test_fused_pass_equals_the_separate_ones(self, chain):
        model, xs, gold = chain
        # a drawn lattice keeps its signed zeros (``_lattice`` sums from 0.0)
        E = model.emissions.T.copy()
        E_aug = loss_lattice(E, gold)
        ys, aug, gold_score = seqmodel._decode(model, E_aug.tolist(), gold)
        want_ys, want_aug = numpy_decode(model, E_aug)
        assert (ys, bits(aug)) == (want_ys, bits(want_aug))
        assert bits(gold_score) == bits(lattice_path_score(model, E_aug, gold))
        plain_ys, plain, no_gold = seqmodel._decode(model, E.tolist())
        want_ys, want_plain = numpy_decode(model, E)
        assert (plain_ys, bits(plain), no_gold) == (want_ys, bits(want_plain), None)
        # the public entry points, on the lattice the trainer computes
        ys, aug, gold_score = seqmodel._decode(model, chain_lattice(model, xs, gold), gold)
        E_aug = loss_lattice(per_row_emissions(model, xs), gold)
        want_ys, want_aug = numpy_decode(model, E_aug)
        assert (ys, bits(aug)) == (want_ys, bits(want_aug))
        assert bits(gold_score) == bits(lattice_path_score(model, E_aug, gold))
