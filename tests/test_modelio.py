from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import per_row_emissions

from claudette import svm
from claudette.analyze import Predictor, analyze_text, result_json
from claudette.corpus import ClauseCategory, load_corpus, segment_sentences
from claudette.features import FeatureConfig, Vocabulary, vectorize_all
from claudette.modelio import (
    MODEL_KINDS,
    CorpusTable,
    ModelBundle,
    ModelFormatError,
    canonical_json_bytes,
    category_from_payload,
    category_payload,
    chain_from_payload,
    chain_payload,
    feature_config_from_record,
    feature_config_record,
    fit,
    kernel_from_payload,
    kernel_payload,
    linear_from_payload,
    linear_payload,
    load_model,
    save_model,
    train_config_record,
    vocabulary_from_record,
    vocabulary_record,
)
from claudette.seqmodel import ChainModel
from claudette.svm import KernelModel, LinearModel, TrainConfig, predict_kernel
from claudette.treekernel import CompiledTrees
from claudette.trees import MAX_DEPTH, ParseTree, load_treebank, parse_bracketed


def small_vocab():
    return Vocabulary(terms=("w1:a", "w1:b"), df=(1, 2), n_fit=2)


def small_linear():
    return LinearModel(w=np.array([0.5, 0.0, -1.25]), b=0.125)


class TestComponentRecords:
    def test_feature_config_round_trip(self):
        cfg = FeatureConfig(ngram_orders=(2, 1), use_pos=True, min_df=3, log_tf=True)
        assert feature_config_from_record(feature_config_record(cfg)) == cfg

    def test_train_config_round_trip(self):
        cfg = TrainConfig(C=2.5, positive_weight=1.5, tol=1e-4, max_iter=50, seed=9, epochs=7)
        assert TrainConfig(**train_config_record(cfg)) == cfg

    def test_vocabulary_round_trip(self):
        vocab = small_vocab()
        rec = vocabulary_record(vocab)
        assert rec["entries"] == [["w1:a", 0, 1], ["w1:b", 1, 2]]
        assert vocabulary_from_record(rec) == vocab

    def test_linear_round_trip_preserves_sparsity(self):
        model = small_linear()
        payload = linear_payload(model)
        assert payload["w"] == [[0, 0.5], [2, -1.25]]
        back = linear_from_payload(payload, 3)
        assert np.array_equal(back.w, model.w)
        assert back.b == model.b

    def test_kernel_round_trip(self):
        model = KernelModel(
            support_idx=np.array([0, 3]),
            coef=np.array([0.5, -0.5]),
            b=0.1,
            lam=0.4,
            normalized=True,
            n_train=5,
            kkt_violation=1e-4,
            warning=None,
        )
        payload = kernel_payload(model, ["(A a)", "(B b)"])
        back, trees = kernel_from_payload(payload)
        assert trees == ["(A a)", "(B b)"]
        assert back.support_idx.tolist() == [0, 3]
        assert back.coef.tolist() == [0.5, -0.5]
        assert back.lam == 0.4

    def test_kernel_payload_validates_tree_count(self):
        model = KernelModel(
            support_idx=np.array([0]),
            coef=np.array([1.0]),
            b=0.0,
            lam=0.4,
            normalized=True,
            n_train=2,
            kkt_violation=0.0,
        )
        with pytest.raises(ModelFormatError):
            kernel_payload(model, [])

    def test_chain_round_trip(self):
        model = ChainModel.zeros(("negative", "positive"), 3)
        model.emissions[1, 2] = 1.5
        model.transitions[0, 1] = -0.25
        model.start[1] = 0.75
        back = chain_from_payload(chain_payload(model), 3)
        assert back.labels == ("negative", "positive")
        assert np.array_equal(back.emissions, model.emissions)
        assert np.array_equal(back.transitions, model.transitions)
        assert np.array_equal(back.start, model.start)

    def test_category_round_trip(self):
        models = {ClauseCategory.ARBITRATION: small_linear()}
        back = category_from_payload(category_payload(models), 3)
        assert set(back) == {ClauseCategory.ARBITRATION}
        assert np.array_equal(back[ClauseCategory.ARBITRATION].w, small_linear().w)

    def test_non_finite_rejected(self):
        bad = LinearModel(w=np.array([np.inf]), b=0.0)
        with pytest.raises(ModelFormatError):
            linear_payload(bad)


class TestModelFile:
    def make_bundle(self):
        return ModelBundle(
            kind="linear-bow",
            feature_config=FeatureConfig(),
            # one term per weight of small_linear()
            vocabulary=Vocabulary(terms=("w1:a", "w1:b", "w1:c"), df=(1, 2, 1), n_fit=2),
            model=small_linear(),
            metadata={"seed": 7, "corpus_fingerprint": "abc"},
        )

    def test_too_deep_support_tree_is_refused_without_a_file(self, tmp_path):
        deep = ParseTree("x")
        for _ in range(MAX_DEPTH + 1):
            deep = ParseTree("A", [deep])
        model = KernelModel(
            support_idx=np.array([0]), coef=np.array([1.0]), b=0.0, lam=0.4,
            normalized=True, n_train=2, kkt_violation=0.0,
        )
        model.support_trees = [deep]
        bundle = ModelBundle("kernel-sstk", FeatureConfig(), small_vocab(), model)
        path = tmp_path / "m.json"
        with pytest.raises(ModelFormatError, match="deeper than"):
            save_model(bundle, path)
        assert not path.exists()
        model.support_trees = [deep.children[0]]  # at the limit: round-trips
        save_model(bundle, path)
        assert load_model(path).model.support_trees == [deep.children[0]]

    def test_save_load_save_is_byte_identical(self, tmp_path):
        path1 = tmp_path / "m1.json"
        path2 = tmp_path / "m2.json"
        save_model(self.make_bundle(), path1)
        save_model(load_model(path1), path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self.make_bundle(), path)
        rec = json.loads(path.read_text())
        rec["format_version"] = 99
        path.write_bytes(canonical_json_bytes(rec))
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert "format_version" in str(err.value)

    def test_payload_kind_must_match_header(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self.make_bundle(), path)
        rec = json.loads(path.read_text())
        rec["kind"] = "chain"
        path.write_bytes(canonical_json_bytes(rec))
        with pytest.raises(ModelFormatError, match="payload kind 'linear'"):
            load_model(path)

    @pytest.mark.parametrize("edit", ["unknown", "missing"])
    def test_feature_config_keys_must_match_the_dataclass(self, edit, tmp_path):
        path = tmp_path / "m.json"
        save_model(self.make_bundle(), path)
        rec = json.loads(path.read_text())
        if edit == "unknown":
            rec["feature_config"]["stemming"] = True
        else:
            del rec["feature_config"]["log_tf"]
        path.write_bytes(canonical_json_bytes(rec))
        with pytest.raises(ModelFormatError, match="feature_config keys"):
            load_model(path)

    def test_solver_warnings_name_the_kernel_fallback(self):
        kernel = KernelModel(
            support_idx=np.array([0]), coef=np.array([1.0]), b=0.0, lam=0.4,
            normalized=True, n_train=2, kkt_violation=0.0, warning="no-convergence: smo",
        )
        fallback = LinearModel(w=np.zeros(2), b=0.0, warning="no-convergence: dcd")
        bundle = ModelBundle("kernel-sstk", FeatureConfig(), small_vocab(), kernel, fallback=fallback)
        assert bundle.solver_warnings() == [("", "no-convergence: smo"), ("fallback", "no-convergence: dcd")]

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self.make_bundle(), path)
        rec = json.loads(path.read_text())
        rec["kind"] = "mystery"
        path.write_bytes(canonical_json_bytes(rec))
        with pytest.raises(ModelFormatError, match="unknown model kind 'mystery'"):
            load_model(path)

    def edited(self, bundle: ModelBundle, edit, tmp_path) -> Path:
        path = tmp_path / "m.json"
        save_model(bundle, path)
        rec = json.loads(path.read_text())
        edit(rec)
        path.write_bytes(canonical_json_bytes(rec))
        return path

    def make_chain_bundle(self):
        model = ChainModel.zeros(("negative", "positive"), 3)
        model.emissions[1, 2] = 1.5
        vocab = Vocabulary(terms=("w1:a", "w1:b", "w1:c"), df=(1, 2, 1), n_fit=2)
        return ModelBundle("chain", FeatureConfig(), vocab, model)

    CHAIN_SHAPE_EDITS = {
        "transitions-1x2-and-start-1": lambda p: p.update(transitions=[[0.0, 1.0]], start=[0.0]),
        "transitions-2x3": lambda p: p.update(transitions=[[0.0, 0.0, 0.0]] * 2),
        "start-3": lambda p: p.update(start=[0.0, 0.0, 0.0]),
        "emissions-1-row": lambda p: p.update(emissions=p["emissions"][:1]),
        "emissions-3-rows": lambda p: p.update(emissions=p["emissions"] + [[]]),
        "one-label": lambda p: p.update(labels=["negative"], emissions=p["emissions"][:1],
                                        transitions=[[0.0]], start=[0.0]),
    }

    @pytest.mark.parametrize("edit", sorted(CHAIN_SHAPE_EDITS))
    def test_chain_shapes_must_match_the_labels(self, edit, tmp_path):
        path = self.edited(
            self.make_chain_bundle(), lambda rec: self.CHAIN_SHAPE_EDITS[edit](rec["payload"]), tmp_path
        )
        with pytest.raises(ModelFormatError, match="chain emissions, transitions and start"):
            load_model(path)

    @pytest.mark.parametrize("index", [-1, 3])
    @pytest.mark.parametrize("kind", ["linear-bow", "chain", "fallback"])
    def test_weight_index_must_be_within_the_dimension(self, kind, index, tmp_path):
        if kind == "chain":
            bundle = self.make_chain_bundle()

            def edit(rec):
                rec["payload"]["emissions"][1][0][0] = index
        else:
            bundle = self.make_bundle()
            if kind == "fallback":
                bundle.kind, bundle.fallback = "kernel-sstk", small_linear()
                bundle.model = KernelModel(
                    support_idx=np.array([0]), coef=np.array([1.0]), b=0.0, lam=0.4,
                    normalized=True, n_train=2, kkt_violation=0.0, support_trees=[parse_bracketed("(S (A a))")],
                )

            def edit(rec):
                (rec["fallback"] if kind == "fallback" else rec["payload"])["w"][0][0] = index
        with pytest.raises(ModelFormatError, match=f"weight index {index} outside \\[0, 3\\)"):
            load_model(self.edited(bundle, edit, tmp_path))

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]
        + [pytest.param("1" + "0" * n, id=f"1e{n}-integer") for n in (400, 5000)],
    )
    def test_numbers_that_are_not_finite_floats_rejected(self, literal, tmp_path):
        path = self.edited(self.make_bundle(), lambda rec: rec["payload"].update(b="@"), tmp_path)
        path.write_text(path.read_text().replace('"@"', literal))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("lam", [5.0, 0.0, -0.4])
    def test_kernel_lambda_must_be_in_the_unit_interval(self, lam, tmp_path):
        model = KernelModel(
            support_idx=np.array([0]), coef=np.array([1.0]), b=0.0, lam=0.4,
            normalized=True, n_train=2, kkt_violation=0.0, support_trees=[parse_bracketed("(S (A a))")],
        )
        bundle = ModelBundle("kernel-sstk", FeatureConfig(), small_vocab(), model)
        path = self.edited(bundle, lambda rec: rec["payload"].update({"lambda": lam}), tmp_path)
        with pytest.raises(ModelFormatError, match="lambda must be in"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ModelFormatError):
            load_model(path)
        path.write_text("not json at all")
        with pytest.raises(ModelFormatError):
            load_model(path)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_saved_model_predicts_like_the_fitted_one(kind, fixtures_dir, tmp_path):
    corpus = load_corpus(fixtures_dir / "mini")
    treebank = load_treebank(fixtures_dir / "mini_trees.txt", corpus)
    table = CorpusTable(corpus.documents, treebank, FeatureConfig())
    fitted = fit(kind, table, TrainConfig(seed=7))
    if kind == "kernel-sstk":
        fitted.fallback = fit("linear-bow", table, TrainConfig(seed=7)).model
    save_model(fitted, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    for doc in corpus.documents:
        tree_options = [None, treebank[doc.name]] if kind == "kernel-sstk" else [None]
        for trees in tree_options:
            expected = result_json(analyze_text(fitted, doc.plain_text, trees))
            assert result_json(analyze_text(loaded, doc.plain_text, trees)) == expected, doc.name


@pytest.mark.parametrize("normalize", [True, False])
def test_kernel_predictor_scores_equal_kernel_rows_exactly(normalize, fixtures_dir):
    corpus = load_corpus(fixtures_dir / "mini")
    treebank = load_treebank(fixtures_dir / "mini_trees.txt", corpus)
    table = CorpusTable(corpus.documents, treebank, FeatureConfig(), 0.4, normalize)
    bundle = fit("kernel-sstk", table, TrainConfig(seed=7))
    predictor = Predictor(bundle)
    model = bundle.model
    support_trees = model.support_trees
    table_size = len(predictor.support.productions)
    unseen = parse_bracketed("(S (NOVEL (UNSEEN word)) (NOVEL (UNSEEN word)))")
    cases = [(doc.plain_text, treebank[doc.name]) for doc in corpus.documents]
    cases.append(("One sentence here.", [unseen]))
    for text, trees in cases:
        result = predictor.analyze(text, trees)
        assert len(result.sentences) == len(trees)
        for sentence, tree in zip(result.sentences, trees):
            row = CompiledTrees(support_trees, model.lam, model.normalized).rows([tree])[0]
            assert sentence.scores["detection"] == predict_kernel(model, [row])[0]
    assert len(predictor.support.productions) == table_size


def test_chain_detection_scores_are_the_reference_emission_gap(fixtures_dir):
    corpus = load_corpus(fixtures_dir / "mini")
    bundle = fit("chain", CorpusTable(corpus.documents, None, FeatureConfig()), TrainConfig(seed=7, C=10.0))
    predictor = Predictor(bundle)
    for doc in corpus.documents:
        result = predictor.analyze(doc.plain_text)
        sentences = segment_sentences(doc.plain_text)
        E = per_row_emissions(bundle.model, vectorize_all(sentences, None, bundle.vocabulary, bundle.feature_config))
        assert [s.scores["detection"] for s in result.sentences] == (E[:, 1] - E[:, 0]).tolist(), doc.name


def test_full_corpus_kernel_fit_reads_the_corpus_gram(fixtures_dir, monkeypatch):
    corpus = load_corpus(fixtures_dir / "mini")
    treebank = load_treebank(fixtures_dir / "mini_trees.txt", corpus)
    table = CorpusTable(corpus.documents, treebank, FeatureConfig())
    cfg = TrainConfig(seed=7)
    train_smo = svm.train_smo
    seen = []

    def recording(gram, rows, y, c):
        seen.append(gram)
        return train_smo(gram, rows, y, c)

    monkeypatch.setattr(svm, "train_smo", recording)
    fit("kernel-sstk", table, cfg)
    names = list(table.documents)[1:]
    fold = fit("kernel-sstk", table, cfg, names)
    assert len(seen) == 2 and all(gram is table.gram for gram in seen)
    # the fold's model equals SMO on a copy of its Gram block, bit for bit,
    # after every iteration cap tried: the iterates agree, not just the end
    rows = table.rows(names)
    block = dataclasses.replace(table.gram, matrix=table.gram.matrix[np.ix_(rows, rows)])
    y = [1 if ls.detection_label else -1 for name in names for ls in table.documents[name].sentences]
    for max_iter in (1, 2, 5, 20, cfg.max_iter):
        capped = dataclasses.replace(cfg, max_iter=max_iter)
        fold = fit("kernel-sstk", table, capped, names)
        copied = train_smo(block, np.arange(len(rows)), y, capped)
        copied.support_trees = [table.trees[rows[i]] for i in copied.support_idx]
        expected = canonical_json_bytes(dataclasses.replace(fold, model=copied).to_record())
        assert canonical_json_bytes(fold.to_record()) == expected


def test_corpus_table_rows_follow_the_names_given(mini_corpus):
    table = CorpusTable(mini_corpus.documents, None, FeatureConfig())
    first, second = (len(doc.sentences) for doc in mini_corpus.documents[:2])
    names = [doc.name for doc in mini_corpus.documents]
    assert table.rows(names[1::-1]).tolist() == list(range(first, first + second)) + list(range(first))
    assert table.rows(names).tolist() == list(range(table.terms.n_rows))
    assert table.rows([]).tolist() == []


class TestCanonicalJson:
    def test_sorted_keys_and_compact_separators(self):
        assert canonical_json_bytes({"b": 1, "a": [1.5, None]}) == b'{"a":[1.5,null],"b":1}\n'

    def test_float_repr_round_trips(self):
        value = 0.1 + 0.2
        out = canonical_json_bytes({"v": value})
        assert json.loads(out)["v"] == value

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json_bytes({"v": float("nan")})
