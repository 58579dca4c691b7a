from __future__ import annotations

import os
import sys

import pytest

from claudette.corpus import (
    ClauseCategory,
    corpus_stats,
    load_corpus,
)
from claudette.evaluation import (
    MissingTreebank,
    SentenceVerdict,
    TargetCounts,
    TooFewDocuments,
    compare_to_paper_stats,
    compute_metrics,
    fit_detection_fold,
    make_loo_splits,
    run_detection_eval,
)
from claudette.evaluation import (
    REFERENCE_CLAUSE_COUNTS,
    REFERENCE_TOTAL_SENTENCES,
)
from claudette.features import FeatureConfig, TermTable, vectorize_all
from claudette.modelio import MODEL_KINDS, CorpusTable, canonical_json_bytes, fit
from claudette.svm import LengthMismatch, TrainConfig
from claudette.treekernel import CompiledTrees
from claudette.trees import ParseTree, load_treebank


class TestLooSplits:
    def test_one_split_per_document(self, mini_corpus):
        splits = make_loo_splits(mini_corpus)
        assert [s.held_out for s in splits] == ["alpha", "beta", "gamma"]
        for s in splits:
            assert s.held_out not in s.train
            assert set(s.train) | {s.held_out} == {"alpha", "beta", "gamma"}

    def test_two_documents_mirrored(self, tmp_path):
        (tmp_path / "a.txt").write_text("One sentence.", encoding="utf-8")
        (tmp_path / "b.txt").write_text("Another sentence.", encoding="utf-8")
        splits = make_loo_splits(load_corpus(tmp_path))
        assert [(s.held_out, s.train) for s in splits] == [("a", ("b",)), ("b", ("a",))]

    def test_too_few_documents(self, tmp_path):
        (tmp_path / "only.txt").write_text("One.", encoding="utf-8")
        with pytest.raises(TooFewDocuments):
            make_loo_splits(load_corpus(tmp_path))

    def test_held_out_sentence_counts_sum_to_corpus_total(self, planted_corpus):
        total = sum(
            len(planted_corpus.document(s.held_out).sentences)
            for s in make_loo_splits(planted_corpus)
        )
        assert total == planted_corpus.N


def verdict(det, cats=()):
    return SentenceVerdict(detection=det, categories=frozenset(cats))


class TestComputeMetrics:
    def test_perfect_predictions(self):
        gold = [verdict(True, [ClauseCategory.ARBITRATION]), verdict(False)]
        report = compute_metrics(gold, gold)
        assert report.detection.precision == 1.0
        assert report.detection.recall == 1.0
        assert report.detection.f1 == 1.0
        arb = report.categories[ClauseCategory.ARBITRATION]
        assert (arb.precision, arb.recall, arb.f1) == (1.0, 1.0, 1.0)

    def test_half_recall(self):
        gold = [verdict(True), verdict(True)]
        pred = [verdict(True), verdict(False)]
        report = compute_metrics(gold, pred)
        assert report.detection.precision == 1.0
        assert report.detection.recall == 0.5
        assert report.detection.f1 == pytest.approx(2 / 3)

    def test_vacuous_convention(self):
        gold = [verdict(False), verdict(False)]
        report = compute_metrics(gold, gold)
        assert report.detection.vacuous
        assert report.detection.precision == 0.0
        assert report.detection.recall == 0.0
        assert report.detection.f1 == 0.0
        assert all(c.vacuous for c in report.categories.values())
        assert report.macro_f1 == 0.0

    def test_vacuous_categories_excluded_from_macro(self):
        gold = [verdict(True, [ClauseCategory.ARBITRATION])]
        report = compute_metrics(gold, gold)
        assert report.macro_f1 == 1.0  # seven vacuous categories do not dilute

    def test_micro_equals_pooled_counts(self):
        gold = [
            verdict(True, [ClauseCategory.ARBITRATION, ClauseCategory.JURISDICTION]),
            verdict(True, [ClauseCategory.JURISDICTION]),
            verdict(False),
        ]
        pred = [
            verdict(True, [ClauseCategory.ARBITRATION]),
            verdict(True, [ClauseCategory.CONTENT_REMOVAL]),
            verdict(False),
        ]
        report = compute_metrics(gold, pred)
        micro = report.micro
        assert micro.tp == sum(c.tp for c in report.categories.values())
        assert micro.fp == sum(c.fp for c in report.categories.values())
        assert micro.fn == sum(c.fn for c in report.categories.values())
        # identity: micro-F1 from summed counts equals pooled-confusion F1
        pooled = TargetCounts(tp=micro.tp, fp=micro.fp, fn=micro.fn)
        assert micro.f1 == pooled.f1

    def test_bounds(self):
        gold = [verdict(True), verdict(False), verdict(True)]
        pred = [verdict(False), verdict(True), verdict(True)]
        report = compute_metrics(gold, pred)
        for c in [report.detection, *report.categories.values()]:
            assert 0.0 <= c.precision <= 1.0
            assert 0.0 <= c.recall <= 1.0
            assert 0.0 <= c.f1 <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            compute_metrics([verdict(True)], [])

    def test_report_accumulation(self):
        a = compute_metrics([verdict(True)], [verdict(True)])
        b = compute_metrics([verdict(True)], [verdict(False)])
        a.add(b)
        assert (a.detection.tp, a.detection.fn) == (1, 1)


FC = FeatureConfig(ngram_orders=(1,), min_df=2)
TC = TrainConfig(seed=7, C=1.0)


class TestRunDetectionEval:
    def test_planted_corpus_is_nearly_separable(self, planted_corpus):
        report = run_detection_eval(planted_corpus, FC, "linear-bow", TC)
        assert report.detection.f1 >= 0.9

    def test_single_class_fold_records_warning(self, tmp_path):
        # positives exist only in one document; its fold trains single-class
        (tmp_path / "pos.txt").write_text(
            "<ltd2>Liability is excluded entirely.</ltd2> Plain filler sentence.",
            encoding="utf-8",
        )
        (tmp_path / "neg1.txt").write_text("Nothing tagged. More filler.", encoding="utf-8")
        (tmp_path / "neg2.txt").write_text("Still nothing. Extra text.", encoding="utf-8")
        corpus = load_corpus(tmp_path)
        report = run_detection_eval(corpus, FeatureConfig(ngram_orders=(1,)), "linear-bow", TC)
        assert any("single-class" in w for w in report.warnings)

    def test_kernel_requires_treebank(self, mini_corpus):
        with pytest.raises(MissingTreebank):
            run_detection_eval(mini_corpus, FC, "kernel-sstk", TC)

    def test_kernel_path_runs_on_mini(self, mini_corpus, fixtures_dir):
        treebank = load_treebank(fixtures_dir / "mini_trees.txt", mini_corpus)
        report = run_detection_eval(
            mini_corpus, FC, "kernel-sstk", TrainConfig(seed=7, C=1.0), treebank=treebank
        )
        counts = report.detection
        assert counts.tp + counts.fn == 7  # all positives accounted for

    def test_kernel_separates_planted_corpus(self, planted_corpus, fixtures_dir):
        # the planted keyword carries a distinctive motif subtree, so the
        # tree-kernel detector should separate the corpus on structure alone
        treebank = load_treebank(fixtures_dir / "planted_trees.txt", planted_corpus)
        report = run_detection_eval(
            planted_corpus, FC, "kernel-sstk", TrainConfig(seed=7, C=1.0), treebank=treebank
        )
        assert report.detection.f1 >= 0.9

    def test_kernel_normalize_setting_reaches_the_fold_model(self, mini_corpus, fixtures_dir):
        treebank = load_treebank(fixtures_dir / "mini_trees.txt", mini_corpus)
        fold = make_loo_splits(mini_corpus)[0]
        table = CorpusTable(mini_corpus.documents, treebank, FC, normalize=False)
        bundle = fit_detection_fold(table, fold, "kernel-sstk", TC)
        assert bundle.model.normalized is False
        assert bundle.metadata["kernel_normalize"] is False

    def test_chain_path_runs_on_mini(self, mini_corpus):
        report = run_detection_eval(mini_corpus, FC, "chain", TrainConfig(seed=7, C=10.0))
        assert report.detection.tp + report.detection.fn == 7

    def test_pos_features_run_with_treebank(self, mini_corpus, fixtures_dir):
        treebank = load_treebank(fixtures_dir / "mini_trees.txt", mini_corpus)
        cfg = FeatureConfig(ngram_orders=(1,), use_pos=True)
        report = run_detection_eval(
            mini_corpus, cfg, "linear-bow", TC, treebank=treebank
        )
        assert report.detection.tp + report.detection.fn == 7

    def test_pos_features_without_treebank_raise(self, mini_corpus):
        cfg = FeatureConfig(ngram_orders=(1,), use_pos=True)
        with pytest.raises(MissingTreebank):
            run_detection_eval(mini_corpus, cfg, "linear-bow", TC)
        with pytest.raises(MissingTreebank):
            run_detection_eval(mini_corpus, cfg, "category-ovr", TC)

    def test_unknown_kind(self, mini_corpus):
        from claudette.modelio import UnknownModelKind

        with pytest.raises(UnknownModelKind):
            run_detection_eval(mini_corpus, FC, "vibes", TC)


class TestRunCategoryEval:
    def test_planted_categories_learned(self, planted_corpus):
        report = run_detection_eval(planted_corpus, FC, "category-ovr", TC)
        # every planted tag category carries the same keyword signal
        non_vacuous = [c for c in report.categories.values() if not c.vacuous]
        assert non_vacuous, "planted corpus has category labels"
        assert report.micro.tp > 0

    def test_multi_label_sentence_counts_once_per_category(self, mini_corpus):
        report = run_detection_eval(
            mini_corpus, FeatureConfig(ngram_orders=(1,)), "category-ovr", TC
        )
        arb = report.categories[ClauseCategory.ARBITRATION]
        jur = report.categories[ClauseCategory.JURISDICTION]
        # the nested alpha sentence is gold for arbitration (level 3) and
        # appears exactly once in each category's tally
        assert arb.tp + arb.fn == 1
        assert jur.tp + jur.fn == 1


class TestNoLeakage:
    def test_mutating_held_out_does_not_change_fold_model(self, tmp_path, planted_dir):
        import shutil

        def fold_bytes(corpus, fold):
            table = CorpusTable(corpus.documents, None, FC)
            return canonical_json_bytes(fit_detection_fold(table, fold, "linear-bow", TC).to_record())

        work = tmp_path / "corpus"
        shutil.copytree(planted_dir, work)
        corpus = load_corpus(work)
        fold = make_loo_splits(corpus)[0]
        before = fold_bytes(corpus, fold)

        held = fold.held_out
        path = work / f"{held}.txt"
        path.write_text(
            path.read_text(encoding="utf-8")
            + "\nUnrelated mutation zzzunseen tokens appended here.\n",
            encoding="utf-8",
        )
        assert fold_bytes(load_corpus(work), fold) == before


    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_fold_from_the_corpus_table_equals_a_fit_on_its_own_table(
        self, kind, normalize, mini_corpus, fixtures_dir
    ):
        # LOO shares one table, whose terms, trees and Gram include the
        # held-out document; a fold fitted from it must not see them
        treebank = load_treebank(fixtures_dir / "mini_trees.txt", mini_corpus)
        shared = CorpusTable(mini_corpus.documents, treebank, FC, normalize=normalize)
        for fold in make_loo_splits(mini_corpus):
            train_docs = [mini_corpus.document(name) for name in fold.train]
            own = CorpusTable(train_docs, treebank, FC, normalize=normalize)
            expected = canonical_json_bytes(fit(kind, own, TC).to_record())
            got = canonical_json_bytes(fit_detection_fold(shared, fold, kind, TC).to_record())
            assert got == expected, fold.held_out


class TestCompareToPaperStats:
    def test_synthetic_corpus_not_comparable(self, mini_corpus):
        diff = compare_to_paper_stats(corpus_stats(mini_corpus))
        assert not diff.comparable
        assert all(e.status == "not comparable" for e in diff.entries)

    def _reference_corpus_stats(self):
        """A StatsTable fabricated to match the published numbers exactly."""
        from claudette.corpus import CategoryStats, StatsTable

        per_category = tuple(
            CategoryStats(cat, clauses, docs)
            for cat, (clauses, docs) in REFERENCE_CLAUSE_COUNTS.items()
        )
        return StatsTable(
            per_category=per_category,
            n_documents=50,
            total_sentences=REFERENCE_TOTAL_SENTENCES,
            positive_sentences=1032,
            min_rate_document="doc-low",
            min_rate=0.033,
            max_rate_document="doc-high",
            max_rate=0.162,
        )

    def test_reference_matching_table_passes(self):
        diff = compare_to_paper_stats(self._reference_corpus_stats())
        assert diff.comparable
        assert diff.passed
        assert all(e.status == "pass" for e in diff.entries)

    @pytest.mark.parametrize(
        "levels, comparable", [((3,), False), ((2,), False), ((1, 2, 3), False), ((3, 2), True)]
    )
    def test_other_positive_levels_not_comparable(self, levels, comparable):
        import dataclasses

        # the published counts are under levels 2 and 3, so a table counted
        # under other levels is not judged against them, even where it matches
        stats = dataclasses.replace(self._reference_corpus_stats(), positive_levels=levels)
        diff = compare_to_paper_stats(stats)
        assert diff.comparable is diff.passed is comparable
        assert all((e.status == "not comparable") is not comparable for e in diff.entries)

    def test_sentence_total_tolerance(self):
        import dataclasses

        stats = self._reference_corpus_stats()
        within = dataclasses.replace(stats, total_sentences=int(12_011 * 1.029))
        beyond = dataclasses.replace(stats, total_sentences=int(12_011 * 1.05))
        within_entries = [
            e for e in compare_to_paper_stats(within).entries if e.name == "total sentences"
        ]
        assert all(e.status == "pass" for e in within_entries)
        assert all(e.delta for e in within_entries)  # delta shown even on pass
        assert any(
            e.status == "fail"
            for e in compare_to_paper_stats(beyond).entries
            if e.name == "total sentences"
        )

    def test_clause_count_mismatch_fails(self):
        import dataclasses

        from claudette.corpus import CategoryStats

        stats = self._reference_corpus_stats()
        per = list(stats.per_category)
        per[0] = CategoryStats(per[0].category, per[0].clause_count + 1, per[0].document_count)
        broken = dataclasses.replace(stats, per_category=tuple(per))
        diff = compare_to_paper_stats(broken)
        assert not diff.passed

    def test_render_and_record_forms(self, mini_corpus):
        stats = corpus_stats(mini_corpus)
        diff = compare_to_paper_stats(stats)
        text = diff.render()
        assert "not comparable" in text
        record = diff.to_record()
        assert record["comparable"] is False
        assert len(record["entries"]) == len(diff.entries)


def in_one_process(monkeypatch) -> None:
    """Run the folds in this process: calls counted in forked workers are lost."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


class TestLooKeepsModelsInMemory:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_loo_never_serializes(self, kind, mini_corpus, fixtures_dir, monkeypatch):
        treebank = None
        if kind == "kernel-sstk":
            treebank = load_treebank(fixtures_dir / "mini_trees.txt", mini_corpus)
        expected = run_detection_eval(mini_corpus, FC, kind, TC, treebank=treebank).to_record()

        def refuse(*args, **kwargs):
            raise AssertionError("LOO went through the model-file format")

        codecs = ("linear_payload", "kernel_payload", "chain_payload", "category_payload")
        for name in codecs + ("parse_bracketed",):
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("claudette") and hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(ParseTree, "to_bracketed", refuse)
        report = run_detection_eval(mini_corpus, FC, kind, TC, treebank=treebank)
        assert report.to_record() == expected

    @pytest.mark.parametrize("corpus_name", ["planted", "adjacency"])
    def test_kernel_loo_reads_held_out_rows_from_the_corpus_gram(
        self, corpus_name, fixtures_dir, monkeypatch
    ):
        corpus = load_corpus(fixtures_dir / corpus_name)
        treebank = load_treebank(fixtures_dir / f"{corpus_name}_trees.txt", corpus)
        expected = run_detection_eval(corpus, FC, "kernel-sstk", TC, treebank=treebank).to_record()
        compiled = []
        real_init = CompiledTrees.__init__

        def counting_init(self, *args, **kwargs):
            compiled.append(self)
            real_init(self, *args, **kwargs)

        def refuse(self, trees):
            raise AssertionError("a LOO fold computed kernel rows")

        monkeypatch.setattr(CompiledTrees, "__init__", counting_init)
        monkeypatch.setattr(CompiledTrees, "rows", refuse)
        in_one_process(monkeypatch)  # so that the count sees every fold
        report = run_detection_eval(corpus, FC, "kernel-sstk", TC, treebank=treebank)
        assert report.to_record() == expected
        assert len(compiled) == 1  # the corpus Gram's; no fold compiles its support trees

    @pytest.mark.parametrize(
        "cfg", [FC, FeatureConfig(use_pos=True, log_tf=True)], ids=["default", "pos-log-tf"]
    )
    @pytest.mark.parametrize("corpus_name", ["planted", "adjacency", "mini"])
    def test_held_out_table_rows_equal_vectorize_all(self, corpus_name, cfg, fixtures_dir):
        # a fold reads the held-out TF-IDF rows from the corpus table; they
        # must be the rows predict would vectorize from the document itself
        corpus = load_corpus(fixtures_dir / corpus_name)
        treebank = load_treebank(fixtures_dir / f"{corpus_name}_trees.txt", corpus)
        table = CorpusTable(corpus.documents, treebank, cfg)
        for fold in make_loo_splits(corpus):
            vocab = table.terms.vocabulary(table.rows(fold.train))
            held = corpus.document(fold.held_out)
            got = table.terms.vectorize(vocab, table.rows([fold.held_out]))
            want = vectorize_all([ls.sentence for ls in held.sentences], treebank[held.name], vocab, cfg)
            assert got.dim == want.dim
            for part in ("indptr", "indices", "data"):
                a, b = getattr(got, part), getattr(want, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (fold.held_out, part)

    @pytest.mark.parametrize("kind", ["linear-bow", "chain", "category-ovr"])
    def test_loo_extracts_terms_once(self, kind, planted_corpus, monkeypatch):
        built = []
        real_init = TermTable.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(TermTable, "__init__", counting_init)
        in_one_process(monkeypatch)  # so that the count sees every fold
        run_detection_eval(planted_corpus, FC, kind, TC)
        assert len(built) == 1

    def test_kernel_loo_with_a_deep_tree_built_in_code(self, planted_corpus, fixtures_dir):
        treebank = load_treebank(fixtures_dir / "planted_trees.txt", planted_corpus)
        deep = ParseTree("x")
        for depth in range(3000):  # far deeper than to_bracketed can recurse
            deep = ParseTree(f"D{depth}", [deep])
        name = planted_corpus.documents[0].name
        treebank[name] = [deep] + treebank[name][1:]
        report = run_detection_eval(planted_corpus, FC, "kernel-sstk", TC, treebank=treebank)
        positives = sum(ls.detection_label for ls in planted_corpus.all_sentences())
        assert report.detection.tp + report.detection.fn == positives
