"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured values (run with ``pytest -s`` to see them all).

Criteria 1 and 2 need the official 50-document annotated corpus, which is a
separate download; point CLAUDETTE_TOS_DIR at its directory of tagged .txt
files (a checkout under data/ToS is also picked up).  Everything else runs
self-contained.
"""

from __future__ import annotations

import os
import random
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    brute_force_best,
    fragment_pair_kernel,
    linear_objective,
    loss_augmented_decode,
    loss_lattice,
    per_row_emissions,
    predict_linear,
    rows_from_pairs,
    sstk,
    viterbi,
)

from claudette.cli import main
from claudette.corpus import corpus_stats, load_corpus
from claudette.evaluation import (
    REFERENCE_CLAUSE_COUNTS,
    REFERENCE_MAX_RATE,
    REFERENCE_MIN_RATE,
    REFERENCE_POSITIVE_FRACTION,
    REFERENCE_TOTAL_SENTENCES,
    fit_detection_fold,
    make_loo_splits,
    run_detection_eval,
)
from claudette.features import FeatureConfig
from claudette.modelio import CorpusTable, canonical_json_bytes, load_model
from claudette.seqmodel import ChainModel
from claudette.service import make_server
from claudette.svm import TrainConfig, train_linear, train_smo
from claudette.treekernel import KernelGram, random_tree

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]


def _report(criterion: str, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: PASS ({detail})")


def _official_corpus_dir() -> Path | None:
    env = os.environ.get("CLAUDETTE_TOS_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(REPO_ROOT / "data" / "ToS")
    for candidate in candidates:
        if candidate.is_dir() and any(candidate.glob("*.txt")):
            return candidate
    return None


needs_official = pytest.mark.skipif(
    _official_corpus_dir() is None,
    reason="official annotated ToS corpus not present (set CLAUDETTE_TOS_DIR)",
)


@needs_official
def test_c1_official_corpus_clause_counts():
    start = time.monotonic()
    corpus = load_corpus(_official_corpus_dir(), lenient=True)
    stats = corpus_stats(corpus)
    elapsed = time.monotonic() - start
    by_cat = {cs.category: cs for cs in stats.per_category}
    for cat, (clauses, docs) in REFERENCE_CLAUSE_COUNTS.items():
        assert by_cat[cat].clause_count == clauses, cat
        assert by_cat[cat].document_count == docs, cat
    assert elapsed < 30.0
    _report("C1 corpus clause counts", f"8 categories exact, {elapsed:.1f}s")


@needs_official
def test_c2_official_corpus_sentence_statistics():
    corpus = load_corpus(_official_corpus_dir(), lenient=True)
    stats = corpus_stats(corpus)
    assert abs(stats.total_sentences - REFERENCE_TOTAL_SENTENCES) <= 0.03 * REFERENCE_TOTAL_SENTENCES
    assert abs(stats.positive_fraction - REFERENCE_POSITIVE_FRACTION) <= 0.01
    assert stats.min_rate <= 0.045
    assert stats.max_rate >= 0.14
    _report(
        "C2 sentence statistics",
        f"{stats.total_sentences} sentences, {stats.positive_fraction:.1%} positive, "
        f"rates {stats.min_rate:.1%}..{stats.max_rate:.1%} "
        f"(reference {REFERENCE_MIN_RATE:.1%}..{REFERENCE_MAX_RATE:.1%})",
    )


def test_c3_sstk_matches_fragment_oracle():
    start = time.monotonic()
    rng = random.Random(20240731)
    pairs = [
        (random_tree(rng, max_nodes=12), random_tree(rng, max_nodes=12)) for _ in range(200)
    ]
    worst = 0.0
    for lam in (1.0, 0.5, 0.4):
        for t1, t2 in pairs:
            fast = sstk(t1, t2, lam)
            oracle = fragment_pair_kernel(t1, t2, lam)
            if lam == 1.0:
                assert fast == oracle  # integer-exact
            else:
                assert abs(fast - oracle) < 1e-9
            worst = max(worst, abs(fast - oracle))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("C3 SSTK oracle equivalence", f"200 pairs x 3 lambdas, worst |diff| {worst:.1e}, {elapsed:.1f}s")


def test_c4_viterbi_matches_exhaustive_enumeration():
    rng = random.Random(20240801)
    for trial in range(100):
        L = rng.randint(2, 3)
        k = rng.randint(1, 8)
        dim = 4
        model = ChainModel.zeros([str(i) for i in range(L)], dim)
        npr = np.random.default_rng(rng.randrange(1 << 30))
        model.emissions = npr.normal(size=(L, dim))
        model.transitions = npr.normal(size=(L, L))
        model.start = npr.normal(size=L)
        xs = []
        for _ in range(k):
            idx = sorted(rng.sample(range(dim), rng.randint(0, dim)))
            xs.append(list(zip(idx, [rng.uniform(-1, 1) for _ in idx])))
        xs = rows_from_pairs(xs, dim)
        gold = [rng.randrange(L) for _ in range(k)]

        E = per_row_emissions(model, xs)
        want_ys, want_score = brute_force_best(model, E)
        got_ys, got_score = viterbi(model, xs)
        assert got_score == want_score and got_ys == want_ys

        E_aug = loss_lattice(E, gold)
        want_ys, want_score = brute_force_best(model, E_aug)
        got_ys, got_score = loss_augmented_decode(model, xs, gold)
        assert got_score == want_score and got_ys == want_ys
    _report("C4 Viterbi oracle", "100 trials, plain + loss-augmented, exact")


def test_c5_smo_correctness():
    cfg = TrainConfig(C=1.0, tol=1e-6)
    model = train_smo(KernelGram(np.eye(2), 1.0, True), np.arange(2), [1, -1], cfg)
    assert np.abs(model.coef) == pytest.approx([1.0, 1.0], abs=1e-6)
    assert model.b == pytest.approx(0.0, abs=1e-6)

    worst_violation = 0.0
    worst_balance = 0.0
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        n = int(rng.integers(10, 51))
        A = rng.normal(size=(n, max(2, n // 2)))
        K = A @ A.T
        d = np.sqrt(np.diag(K))
        gram = KernelGram(K / np.outer(d, d), 0.4, True)
        y = np.where(rng.random(n) < 0.5, 1, -1)
        if np.all(y == y[0]):
            y[0] = -y[0]
        cfg = TrainConfig(C=1.0, tol=1e-3)
        model = train_smo(gram, np.arange(n), list(y), cfg)
        assert model.warning is None
        assert model.kkt_violation < cfg.tol
        assert abs(model.coef.sum()) <= cfg.tol
        worst_violation = max(worst_violation, model.kkt_violation)
        worst_balance = max(worst_balance, abs(model.coef.sum()))
    _report(
        "C5 SMO correctness",
        f"2-point exact; 20 PSD grams, worst KKT {worst_violation:.1e}, worst |sum a*y| {worst_balance:.1e}",
    )


def test_c6_linear_svm_correctness():
    rng = np.random.default_rng(42)
    rows, y = [], []
    for i in range(200):
        label = 1 if i % 2 == 0 else -1
        pairs = [(0, label * (0.5 + rng.uniform(0.0, 1.0)))]
        for j in rng.choice(np.arange(1, 20), size=4, replace=False):
            pairs.append((int(j), rng.uniform(-0.3, 0.3)))
        rows.append(sorted(pairs))
        y.append(label)
    X = rows_from_pairs(rows, 20)
    model = train_linear(X, y, TrainConfig(C=10.0, tol=1e-4))
    errors = sum(1 for s, yi in zip(predict_linear(model, X), y) if (s >= 0) != (yi > 0))
    assert errors == 0

    two = rows_from_pairs([[(0, 1.0)], [(0, -1.0)]], 1)
    cfg = TrainConfig(C=10.0, tol=1e-8)
    model2 = train_linear(two, [1, -1], cfg)
    objective = linear_objective(model2, two, [1, -1], cfg)
    assert objective == pytest.approx(0.5, abs=1e-4)
    _report("C6 linear SVM", f"0/200 training errors; 2-point objective {objective:.6f} vs 0.5")


def test_c7_end_to_end_detection():
    start = time.monotonic()
    planted = load_corpus(FIXTURES / "planted")
    adjacency = load_corpus(FIXTURES / "adjacency")

    planted_cfg = FeatureConfig(ngram_orders=(1, 2), min_df=2)
    f_planted = run_detection_eval(
        planted, planted_cfg, "linear-bow", TrainConfig(seed=7, C=1.0)
    ).detection.f1
    assert f_planted >= 0.95

    adjacency_cfg = FeatureConfig(ngram_orders=(1,), min_df=2)
    f_linear = run_detection_eval(
        adjacency, adjacency_cfg, "linear-bow", TrainConfig(seed=7, C=1.0)
    ).detection.f1
    f_chain = run_detection_eval(
        adjacency, adjacency_cfg, "chain", TrainConfig(seed=7, C=30.0, epochs=40)
    ).detection.f1
    assert f_chain >= f_linear + 0.02
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        "C7 end-to-end detection",
        f"planted F1 {f_planted:.3f} >= 0.95; chain {f_chain:.3f} vs linear {f_linear:.3f} "
        f"(gap {f_chain - f_linear:+.3f}); {elapsed:.1f}s",
    )


def test_c8_train_and_evaluate_are_deterministic(tmp_path, capsys):
    train_args = [
        "train",
        "--task",
        "detect",
        "--model",
        "linear-bow",
        "--corpus",
        str(FIXTURES / "planted"),
        "--seed",
        "7",
    ]
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(train_args + ["--out", str(m1)]) == 0
    assert main(train_args + ["--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()

    eval_args = [
        "evaluate",
        "--corpus",
        str(FIXTURES / "mini"),
        "--model-kind",
        "linear-bow",
        "--seed",
        "7",
    ]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(eval_args + ["--json", str(r1)]) == 0
    assert main(eval_args + ["--json", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    capsys.readouterr()
    _report("C8 determinism", "train x2 byte-identical; evaluate x2 byte-identical")


def test_c9_cli_service_parity(tmp_path, capsysbinary):
    model_path = tmp_path / "model.json"
    assert (
        main(
            [
                "train",
                "--task",
                "detect",
                "--model",
                "linear-bow",
                "--corpus",
                str(FIXTURES / "planted"),
                "--seed",
                "7",
                "--out",
                str(model_path),
            ]
        )
        == 0
    )
    capsysbinary.readouterr()
    server = make_server(load_model(model_path), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        docs = sorted((FIXTURES / "planted").glob("*.txt"))
        assert len(docs) == 10
        for doc in docs:
            assert main(["predict", "--model", str(model_path), "--input", str(doc)]) == 0
            cli_bytes = capsysbinary.readouterr().out
            req = urllib.request.Request(
                f"http://127.0.0.1:{server.server_address[1]}/analyze",
                data=doc.read_bytes(),
                headers={"Content-Type": "text/plain; charset=utf-8"},
            )
            with urllib.request.urlopen(req) as resp:
                service_bytes = resp.read()
            assert service_bytes == cli_bytes, doc.name
    finally:
        server.shutdown()
        server.server_close()
    _report("C9 CLI/service parity", "10 documents byte-for-byte")


@pytest.mark.parametrize("kind", ["linear-bow", "chain", "kernel-sstk", "category-ovr"])
def test_c10_no_leakage_across_folds(tmp_path, kind):
    import shutil

    from claudette.trees import load_treebank, parse_bracketed

    work = tmp_path / "corpus"
    shutil.copytree(FIXTURES / "mini", work)
    corpus = load_corpus(work)
    treebank = load_treebank(FIXTURES / "mini_trees.txt", corpus)
    feature_cfg = FeatureConfig(ngram_orders=(1,))
    train_cfg = TrainConfig(seed=7, C=1.0)

    def fold_bytes(corpus, fold, treebank):
        # as in run_detection_eval: one table over the whole (mutated) corpus,
        # the held-out document's terms and trees included
        table = CorpusTable(corpus.documents, treebank, feature_cfg)
        bundle = fit_detection_fold(table, fold, kind, train_cfg)
        return canonical_json_bytes(bundle.to_record())

    folds = make_loo_splits(corpus)
    before = {fold.held_out: fold_bytes(corpus, fold, treebank) for fold in folds}
    for fold in folds:
        if kind == "kernel-sstk":
            # appended text would misalign the treebank: mutate the trees instead
            mutated_trees = dict(treebank)
            mutated_trees[fold.held_out] = [
                parse_bracketed("(S (NP (NN zzznovel)) (VP (VB mutates) (NP (NN everything))))")
                for _ in treebank[fold.held_out]
            ]
            after = fold_bytes(corpus, fold, mutated_trees)
        else:
            path = work / f"{fold.held_out}.txt"
            original = path.read_text(encoding="utf-8")
            path.write_text(
                original + "\n<ltd3>Mutated clause with zzznovel tokens everywhere.</ltd3>\n",
                encoding="utf-8",
            )
            after = fold_bytes(load_corpus(work), fold, treebank)
            path.write_text(original, encoding="utf-8")
        assert after == before[fold.held_out], fold.held_out
    _report("C10 no-leakage audit", f"{kind}: {len(folds)} folds, fold models byte-stable under held-out mutation")
