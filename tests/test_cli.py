from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from claudette import treekernel
from claudette.cli import ConfigFileError, RunSettings, main, parse_config_file
from claudette.modelio import canonical_json_bytes, load_model
from claudette.trees import read_treebank_groups, write_treebank_groups

FIXTURES = Path(__file__).parent / "fixtures"
# nested far past any parser or recursion limit
DEEP_TREE = "(A " * 3000 + "x" + ")" * 3000
# (corpus, model kind) of each pinned evaluate --json golden
LOO_GOLDENS = [
    (corpus, kind)
    for corpus in ("mini", "planted", "adjacency")
    for kind in ("linear-bow", "chain", "category-ovr")
] + [("planted", "kernel-sstk"), ("adjacency", "kernel-sstk")]


class TestConfigFile:
    def test_parse_and_apply(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            """
            # feature settings
            ngram_orders = 1,2
            min_df = 2
            use_pos = false
            log_tf = true
            C = 2.5            # train settings
            tol = 1e-4
            epochs = 9
            lambda = 0.5
            positive_levels = 2
            """,
            encoding="utf-8",
        )
        settings = RunSettings(parse_config_file(cfg))
        assert settings.feature_config.ngram_orders == (1, 2)
        assert settings.feature_config.min_df == 2
        assert settings.feature_config.log_tf is True
        assert settings.train_config.C == 2.5
        assert settings.train_config.tol == 1e-4
        assert settings.train_config.epochs == 9
        assert settings.lam == 0.5
        assert settings.positive_levels == (2,)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigFileError):
            RunSettings({"mystery_knob": "1"})

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n", encoding="utf-8")
        with pytest.raises(ConfigFileError):
            parse_config_file(cfg)

    def test_balanced_positive_weight_keyword(self):
        settings = RunSettings({"positive_weight": "balanced"})
        assert settings.train_config.positive_weight is None

    @pytest.mark.parametrize(
        "key", ["C", "positive_weight", "tol", "max_iter", "epochs", "min_df", "lambda"]
    )
    def test_unparsable_number_names_its_key(self, key):
        with pytest.raises(ConfigFileError, match=f"^config key '{key}': .*'abc'"):
            RunSettings({key: "abc"})

    def test_unparsable_number_message_reaches_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("C = abc\n", encoding="utf-8")
        assert main(["stats", str(FIXTURES / "mini"), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: config key 'C': could not convert string to float: 'abc'\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["C", "positive_weight", "tol"])
    @pytest.mark.parametrize(
        "command",
        [
            ["evaluate", "--corpus", str(FIXTURES / "mini"), "--model-kind", "linear-bow", "--seed", "7"],
            ["train", "--task", "detect", "--corpus", str(FIXTURES / "mini"), "--seed", "7"],
        ],
        ids=["evaluate", "train"],
    )
    def test_non_finite_solver_setting_exits_2(self, command, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        argv = command + ["--config", str(cfg)]
        if command[0] == "train":
            argv += ["--out", str(tmp_path / "m.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be positive and finite") and len(err.splitlines()) == 1
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("levels", ["7", "", "0,2", "2,4"])
    def test_positive_levels_outside_fairness_levels_rejected(self, levels):
        # stats would otherwise count no positive sentence without a word
        with pytest.raises(ConfigFileError, match="positive_levels"):
            RunSettings({"positive_levels": levels})


class TestStatsCommand:
    def test_golden_stdout(self, capsys):
        assert main(["stats", str(FIXTURES / "mini")]) == 0
        out = capsys.readouterr().out
        golden = (FIXTURES / "mini_stats_golden.txt").read_text(encoding="utf-8")
        assert out == golden

    def test_json_record_matches_golden_counts(self, tmp_path, capsys):
        out_path = tmp_path / "stats.json"
        assert main(["stats", str(FIXTURES / "mini"), "--json", str(out_path)]) == 0
        capsys.readouterr()
        record = json.loads(out_path.read_text())
        golden = json.loads((FIXTURES / "mini_golden.json").read_text())
        assert record["stats"] == golden
        assert record["reference_diff"]["comparable"] is False

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path)]) == 2
        assert "no .txt documents" in capsys.readouterr().err

    def test_tag_error_exits_3(self, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("<a2>unclosed", encoding="utf-8")
        assert main(["stats", str(tmp_path)]) == 3
        assert "never closed" in capsys.readouterr().err

    def test_non_decimal_numeral_in_tag_exits_3(self, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("<a²>x</a²>", encoding="utf-8")
        assert main(["stats", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "error: bad: unknown tag symbol 'a²' (line 1, column 1)\n"

    def test_non_utf8_document_exits_3(self, tmp_path, capsys):
        corpus = corpus_with_undecodable_document(tmp_path)
        assert main(["stats", str(corpus)]) == 3
        assert "zz.txt: not valid UTF-8" in capsys.readouterr().err


class TestTrainCommand:
    def test_linear_bow_train_and_model_contents(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = main(
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
                str(out),
            ]
        )
        assert code == 0
        bundle = load_model(out)
        assert bundle.kind == "linear-bow"
        assert bundle.metadata["seed"] == 7
        assert bundle.metadata["n_documents"] == 10
        assert len(bundle.metadata["corpus_fingerprint"]) == 64

    def test_train_determinism_byte_identical(self, tmp_path, capsys):
        args = [
            "train",
            "--task",
            "detect",
            "--model",
            "linear-bow",
            "--corpus",
            str(FIXTURES / "mini"),
            "--seed",
            "13",
        ]
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_chain_train(self, tmp_path, capsys):
        out = tmp_path / "chain.json"
        code = main(
            [
                "train",
                "--task",
                "detect",
                "--model",
                "chain",
                "--corpus",
                str(FIXTURES / "mini"),
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert load_model(out).kind == "chain"

    def test_chain_model_matches_the_pinned_golden(self, tmp_path, capsys):
        # written by scripts/make_synthetic_corpus.py; the LOO goldens pin only
        # counts, this pins the chain trainer's weights
        out = tmp_path / "chain.json"
        argv = ["train", "--task", "detect", "--model", "chain", "--corpus", str(FIXTURES / "planted")]
        assert main(argv + ["--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == (FIXTURES / "planted_chain_model_golden.json").read_bytes()

    def test_linear_model_matches_the_pinned_golden(self, tmp_path, capsys):
        # written by scripts/make_synthetic_corpus.py; pins the DCD weights
        out = tmp_path / "linear.json"
        argv = ["train", "--task", "detect", "--model", "linear-bow", "--corpus", str(FIXTURES / "planted")]
        assert main(argv + ["--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == (FIXTURES / "planted_linear_model_golden.json").read_bytes()

    def test_kernel_model_matches_the_pinned_golden(self, tmp_path, capsys):
        # written by scripts/make_synthetic_corpus.py; pins the SMO support
        # alphas, which rest on every Gram entry
        out = tmp_path / "kernel.json"
        argv = ["train", "--task", "detect", "--model", "kernel-sstk", "--corpus", str(FIXTURES / "planted")]
        argv += ["--trees", str(FIXTURES / "planted_trees.txt")]
        assert main(argv + ["--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == (FIXTURES / "planted_kernel-sstk_model_golden.json").read_bytes()

    @pytest.mark.parametrize(
        "kind,model",
        [
            ("linear-bow", "linear"),
            ("chain", "chain"),
            ("kernel-sstk", "kernel-sstk"),
            ("kernel-sstk-fallback", "kernel-sstk"),
        ],
    )
    def test_predict_matches_the_pinned_golden(self, kind, model, planted_corpus, tmp_path, capsysbinary):
        # written by scripts/make_synthetic_corpus.py; pins the emitted score
        # bytes, for the kernel model those of its kernel rows and, without
        # trees, those of its linear fallback
        text = tmp_path / "first.txt"
        text.write_text(planted_corpus.documents[0].plain_text, encoding="utf-8")
        model_file = FIXTURES / f"planted_{model}_model_golden.json"
        argv = ["predict", "--model", str(model_file), "--input", str(text)]
        if kind == "kernel-sstk":
            sidecar = tmp_path / "first_trees.txt"
            write_treebank_groups(read_treebank_groups(FIXTURES / "planted_trees.txt")[:1], sidecar)
            argv += ["--trees", str(sidecar)]
        assert main(argv) == 0
        golden = FIXTURES / f"planted_predict_{kind}_golden.json"
        assert capsysbinary.readouterr().out == golden.read_bytes()

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("kind,model", [("linear-bow", "linear"), ("chain", "chain")])
    def test_model_files_with_the_old_lowercase_key_still_load(
        self, kind, model, value, planted_corpus, tmp_path, capsysbinary
    ):
        # files written before the key was dropped carry "lowercase"; tokens
        # were lowercase either way, so they load and predict like the new file
        new = FIXTURES / f"planted_{model}_model_golden.json"
        rec = json.loads(new.read_bytes())
        rec["feature_config"]["lowercase"] = value
        old = tmp_path / "old.json"
        old.write_bytes(canonical_json_bytes(rec))
        assert canonical_json_bytes(load_model(old).to_record()) == new.read_bytes()
        text = tmp_path / "first.txt"
        text.write_text(planted_corpus.documents[0].plain_text, encoding="utf-8")
        outputs = []
        for path in (old, new):
            assert main(["predict", "--model", str(path), "--input", str(text)]) == 0
            outputs.append(capsysbinary.readouterr().out)
        assert outputs[0] == outputs[1] == (FIXTURES / f"planted_predict_{kind}_golden.json").read_bytes()

    def test_an_ngram_order_longer_than_every_sentence_adds_nothing(self, tmp_path, capsys):
        # no sentence has 3,000,000 tokens, so the order yields no term and
        # must cost no per-sentence work: n list slices per sentence take minutes
        records = []
        for orders in ("1", "1,3000000"):
            cfg, out = tmp_path / "orders.cfg", tmp_path / "m.json"
            cfg.write_text(f"ngram_orders = {orders}\n", encoding="utf-8")
            argv = ["train", "--task", "detect", "--corpus", str(FIXTURES / "mini"), "--seed", "7"]
            start = time.perf_counter()
            assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
            assert time.perf_counter() - start < 20.0
            records.append(json.loads(out.read_bytes()))
        assert records[1]["feature_config"]["ngram_orders"] == [1, 3000000]
        assert records[0]["vocabulary"] == records[1]["vocabulary"]
        assert records[0]["payload"] == records[1]["payload"]

    def test_category_train(self, tmp_path, capsys):
        out = tmp_path / "cat.json"
        code = main(
            [
                "train",
                "--task",
                "category",
                "--corpus",
                str(FIXTURES / "mini"),
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        bundle = load_model(out)
        assert bundle.kind == "category-ovr"
        assert len(bundle.model) == 8
        # mini has no positive cr or law sentence: both one-vs-rest fits warn
        err = capsys.readouterr().err
        assert "warning: cr: single-class training set (all -1)" in err
        assert "warning: law: single-class training set (all -1)" in err

    def test_kernel_train_requires_trees(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--task",
                "detect",
                "--model",
                "kernel-sstk",
                "--corpus",
                str(FIXTURES / "mini"),
                "--seed",
                "3",
                "--out",
                str(tmp_path / "k.json"),
            ]
        )
        assert code == 2

    def test_kernel_train_with_trees(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        code = main(
            [
                "train",
                "--task",
                "detect",
                "--model",
                "kernel-sstk",
                "--corpus",
                str(FIXTURES / "mini"),
                "--trees",
                str(FIXTURES / "mini_trees.txt"),
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        bundle = load_model(out)
        assert bundle.kind == "kernel-sstk"
        assert bundle.fallback is not None
        assert bundle.model.support_trees

    def test_category_task_rejects_other_models(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--task",
                "category",
                "--model",
                "chain",
                "--corpus",
                str(FIXTURES / "mini"),
                "--seed",
                "3",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2

    def test_pos_features_train_and_predict(self, tmp_path, capsysbinary):
        cfg = tmp_path / "pos.cfg"
        cfg.write_text("use_pos = true\nngram_orders = 1\n", encoding="utf-8")
        model = tmp_path / "pos.json"
        code = main(
            [
                "train",
                "--task",
                "detect",
                "--model",
                "linear-bow",
                "--corpus",
                str(FIXTURES / "mini"),
                "--trees",
                str(FIXTURES / "mini_trees.txt"),
                "--config",
                str(cfg),
                "--seed",
                "3",
                "--out",
                str(model),
            ]
        )
        assert code == 0
        capsysbinary.readouterr()
        # prediction needs trees for POS featurization: without -> data error
        doc = plain_copy(FIXTURES / "mini" / "alpha.txt", tmp_path)
        assert main(["predict", "--model", str(model), "--input", str(doc)]) == 3
        capsysbinary.readouterr()
        alpha_group = (FIXTURES / "mini_trees.txt").read_text(encoding="utf-8").split("\n\n")[0]
        sidecar = tmp_path / "alpha_trees.txt"
        sidecar.write_text(alpha_group + "\n", encoding="utf-8")
        code = main(
            ["predict", "--model", str(model), "--input", str(doc), "--trees", str(sidecar)]
        )
        assert code == 0
        record = json.loads(capsysbinary.readouterr().out)
        assert len(record["sentences"]) == 6

    def test_pos_features_without_trees_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "pos.cfg"
        cfg.write_text("use_pos = true\n", encoding="utf-8")
        code = main(
            [
                "train",
                "--task",
                "detect",
                "--corpus",
                str(FIXTURES / "mini"),
                "--config",
                str(cfg),
                "--seed",
                "3",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("task", ["detect", "category"])
    def test_linear_sweep_cap_exits_4_and_still_writes(self, task, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 1\n", encoding="utf-8")
        out = tmp_path / "m.json"
        train = ["train", "--task", task, "--model", "linear-bow", "--corpus", str(FIXTURES / "planted")]
        train += ["--config", str(cfg), "--seed", "7", "--out", str(out)]
        assert main(train) == 4
        assert "no-convergence: max projected-gradient violation" in capsys.readouterr().err
        assert load_model(out).metadata["train_config"]["max_iter"] == 1

    def test_non_finite_model_exits_3_without_a_file(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        from claudette.svm import LinearModel

        monkeypatch.setattr(
            "claudette.svm.train_linear", lambda X, y, cfg: LinearModel(w=np.full(X.dim, np.inf), b=0.0)
        )
        out = tmp_path / "m.json"
        train = ["train", "--task", "detect", "--corpus", str(FIXTURES / "mini"), "--seed", "7", "--out", str(out)]
        assert main(train) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_data_error_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "corpus"
        bad.mkdir()
        (bad / "bad.txt").write_text("<zz9>nope</zz9>", encoding="utf-8")
        code = main(
            [
                "train",
                "--task",
                "detect",
                "--corpus",
                str(bad),
                "--seed",
                "1",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 3

    def test_non_utf8_document_exits_3(self, tmp_path, capsys):
        corpus = corpus_with_undecodable_document(tmp_path)
        argv = ["train", "--task", "detect", "--corpus", str(corpus), "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "m.json")]) == 3
        assert "zz.txt: not valid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"C = 1\xff\n")
        argv = ["train", "--task", "detect", "--corpus", str(FIXTURES / "mini"), "--config", str(cfg)]
        assert main(argv + ["--seed", "1", "--out", str(tmp_path / "m.json")]) == 2
        assert f"error: {cfg}: not valid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "depth, settings",
        [(9, "lambda = 1.0\n"), (10, "lambda = 1.0\n"), (10, "lambda = 1.0\nkernel_normalize = false\n")],
        ids=["9", "10", "10-raw"],
    )
    def test_overflowing_tree_kernel_exits_3(self, depth, settings, tmp_path, capsys):
        # at lambda 1 the self-kernel is 1.4e181 at depth 9, whose square
        # overflows, and inf at depth 10, which overflows unnormalized too
        argv = overflow_train_argv(tmp_path, depth, settings)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: tree 0 has self-kernel "), err
        assert "overflows" in err and "Traceback" not in err
        assert not (tmp_path / "k.json").exists()

    @pytest.mark.parametrize(
        "settings", ["lambda = 1.0\n", "lambda = 1.0\nkernel_normalize = false\n"], ids=["normalized", "raw"]
    )
    def test_overflow_leaves_one_line_on_stderr(self, settings, tmp_path, capfd):
        # in a child process, so that a numpy warning from the Gram's workers
        # or the solver reaches the stderr a user sees
        src = Path(treekernel.__file__).resolve().parents[1]
        argv = overflow_train_argv(tmp_path, 10, settings)
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-m", "claudette.cli", *argv], env=env)
        assert run.returncode == 3
        err = capfd.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: tree 0 has self-kernel inf"), err

    def test_chain_skips_empty_documents(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(FIXTURES / "mini", corpus)
        (corpus / "blank.txt").write_text("", encoding="utf-8")
        records = []
        for directory in (corpus, FIXTURES / "mini"):
            out = tmp_path / f"{directory.name}.json"
            argv = ["train", "--task", "detect", "--model", "chain", "--corpus", str(directory)]
            assert main(argv + ["--seed", "3", "--out", str(out)]) == 0
            records.append(json.loads(out.read_text(encoding="utf-8")))
        # the blank document adds no sequence: same vocabulary and weights
        assert records[0]["payload"] == records[1]["payload"]
        assert records[0]["vocabulary"] == records[1]["vocabulary"]
        assert records[0]["metadata"]["n_documents"] == 4

        empty = tmp_path / "empty"
        empty.mkdir()
        for name in ("a.txt", "b.txt"):
            (empty / name).write_text("", encoding="utf-8")
        argv = ["train", "--task", "detect", "--model", "chain", "--corpus", str(empty)]
        assert main(argv + ["--seed", "3", "--out", str(tmp_path / "e.json")]) == 3
        assert "no training sequences" in capsys.readouterr().err


def overflow_train_argv(tmp_path: Path, depth: int, settings: str) -> list[str]:
    """``train`` arguments for the mini corpus with its first tree replaced by
    a complete binary tree of ``depth`` over ``X -> X X``, under a config of
    ``settings``, writing ``k.json`` in ``tmp_path``."""

    def complete(d: int) -> str:
        return "(X w)" if d == 0 else f"(X {complete(d - 1)} {complete(d - 1)})"

    lines = (FIXTURES / "mini_trees.txt").read_text(encoding="utf-8").split("\n")
    lines[0] = complete(depth)
    (tmp_path / "trees.txt").write_text("\n".join(lines), encoding="utf-8")
    (tmp_path / "overflow.cfg").write_text(settings, encoding="utf-8")
    argv = ["train", "--task", "detect", "--model", "kernel-sstk", "--corpus", str(FIXTURES / "mini")]
    argv += ["--trees", str(tmp_path / "trees.txt"), "--config", str(tmp_path / "overflow.cfg")]
    return argv + ["--seed", "7", "--out", str(tmp_path / "k.json")]


def corpus_with_undecodable_document(tmp_path: Path) -> Path:
    """A copy of the mini corpus plus ``zz.txt``, whose bytes are not UTF-8."""
    corpus = tmp_path / "corpus"
    shutil.copytree(FIXTURES / "mini", corpus)
    (corpus / "zz.txt").write_bytes(b"Terms of \xff\xfe service.\n")
    return corpus


@pytest.fixture(scope="module")
def planted_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "planted.json"
    code = main(
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
            str(out),
        ]
    )
    assert code == 0
    return out


def plain_copy(tagged_path: Path, tmp_path: Path) -> Path:
    """Strip corpus annotations; predict consumes plain documents."""
    from claudette.corpus import parse_tagged_text

    plain, _ = parse_tagged_text(tagged_path.read_text(encoding="utf-8"))
    out = tmp_path / f"plain_{tagged_path.name}"
    out.write_text(plain, encoding="utf-8")
    return out


class TestPredictCommand:
    def test_flags_planted_positive_sentences(self, planted_model, tmp_path, capsysbinary):
        doc = plain_copy(FIXTURES / "planted" / "doc00.txt", tmp_path)
        code = main(["predict", "--model", str(planted_model), "--input", str(doc)])
        assert code == 0
        record = json.loads(capsysbinary.readouterr().out)
        flagged = [s for s in record["sentences"] if s["detection"]]
        assert flagged, "planted document contains positives"
        assert all("solediscretion" in s["text"] for s in flagged)
        missed = [
            s
            for s in record["sentences"]
            if "solediscretion" in s["text"] and not s["detection"]
        ]
        assert not missed

    def test_version_mismatch_exits_3(self, planted_model, tmp_path, capsys):
        rec = json.loads(Path(planted_model).read_text())
        rec["format_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(rec))
        doc = plain_copy(FIXTURES / "planted" / "doc00.txt", tmp_path)
        code = main(["predict", "--model", str(bad), "--input", str(doc)])
        assert code == 3
        assert "format_version" in capsys.readouterr().err

    def test_report_written(self, planted_model, tmp_path, capsysbinary):
        report = tmp_path / "report.html"
        doc = plain_copy(FIXTURES / "planted" / "doc00.txt", tmp_path)
        code = main(
            [
                "predict",
                "--model",
                str(planted_model),
                "--input",
                str(doc),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        capsysbinary.readouterr()
        html = report.read_text(encoding="utf-8")
        assert html.count("<mark") == 3  # planted docs carry 3 positives each

    def test_chain_model_predicts(self, tmp_path, capsysbinary):
        model = tmp_path / "chain.json"
        assert (
            main(
                [
                    "train",
                    "--task",
                    "detect",
                    "--model",
                    "chain",
                    "--corpus",
                    str(FIXTURES / "planted"),
                    "--seed",
                    "7",
                    "--out",
                    str(model),
                ]
            )
            == 0
        )
        capsysbinary.readouterr()
        doc = plain_copy(FIXTURES / "planted" / "doc02.txt", tmp_path)
        assert main(["predict", "--model", str(model), "--input", str(doc)]) == 0
        record = json.loads(capsysbinary.readouterr().out)
        assert record["model_kind"] == "chain"
        assert all(isinstance(s["detection"], bool) for s in record["sentences"])

    def test_category_model_predicts_categories(self, tmp_path, capsysbinary):
        model = tmp_path / "cat.json"
        assert (
            main(
                [
                    "train",
                    "--task",
                    "category",
                    "--corpus",
                    str(FIXTURES / "planted"),
                    "--seed",
                    "7",
                    "--out",
                    str(model),
                ]
            )
            == 0
        )
        capsysbinary.readouterr()
        doc = plain_copy(FIXTURES / "planted" / "doc03.txt", tmp_path)
        assert main(["predict", "--model", str(model), "--input", str(doc)]) == 0
        record = json.loads(capsysbinary.readouterr().out)
        flagged = [s for s in record["sentences"] if s["detection"]]
        assert flagged
        for s in flagged:
            assert s["categories"], "category model names the categories it flags"
            assert set(s["scores"]) == {"a", "ch", "cr", "j", "law", "ltd", "ter", "use"}

    def test_kernel_predict_with_tree_sidecar(self, tmp_path, capsysbinary):
        model = tmp_path / "k.json"
        assert (
            main(
                [
                    "train",
                    "--task",
                    "detect",
                    "--model",
                    "kernel-sstk",
                    "--corpus",
                    str(FIXTURES / "mini"),
                    "--trees",
                    str(FIXTURES / "mini_trees.txt"),
                    "--seed",
                    "3",
                    "--out",
                    str(model),
                ]
            )
            == 0
        )
        capsysbinary.readouterr()
        # sidecar: the alpha document's group from the fixture treebank
        alpha_group = (FIXTURES / "mini_trees.txt").read_text(encoding="utf-8").split("\n\n")[0]
        sidecar = tmp_path / "alpha_trees.txt"
        sidecar.write_text(alpha_group + "\n", encoding="utf-8")
        doc = plain_copy(FIXTURES / "mini" / "alpha.txt", tmp_path)
        assert (
            main(
                ["predict", "--model", str(model), "--input", str(doc), "--trees", str(sidecar)]
            )
            == 0
        )
        record = json.loads(capsysbinary.readouterr().out)
        assert record["warnings"] == []
        assert len(record["sentences"]) == 6

    def test_misaligned_tree_sidecar_exits_3(self, tmp_path, capsysbinary):
        model = tmp_path / "k.json"
        assert (
            main(
                [
                    "train",
                    "--task",
                    "detect",
                    "--model",
                    "kernel-sstk",
                    "--corpus",
                    str(FIXTURES / "mini"),
                    "--trees",
                    str(FIXTURES / "mini_trees.txt"),
                    "--seed",
                    "3",
                    "--out",
                    str(model),
                ]
            )
            == 0
        )
        capsysbinary.readouterr()
        sidecar = tmp_path / "short_trees.txt"
        sidecar.write_text("(S (W one))\n", encoding="utf-8")
        doc = plain_copy(FIXTURES / "mini" / "alpha.txt", tmp_path)
        code = main(
            ["predict", "--model", str(model), "--input", str(doc), "--trees", str(sidecar)]
        )
        assert code == 3

    def test_too_deep_tree_sidecar_exits_3(self, tmp_path, capsys):
        model = tmp_path / "k.json"
        train = ["train", "--task", "detect", "--model", "kernel-sstk", "--corpus", str(FIXTURES / "mini")]
        train += ["--trees", str(FIXTURES / "mini_trees.txt"), "--seed", "3", "--out", str(model)]
        assert main(train) == 0
        capsys.readouterr()
        sidecar = tmp_path / "deep_trees.txt"
        sidecar.write_text(DEEP_TREE + "\n", encoding="utf-8")
        doc = plain_copy(FIXTURES / "mini" / "alpha.txt", tmp_path)
        code = main(["predict", "--model", str(model), "--input", str(doc), "--trees", str(sidecar)])
        assert code == 3
        assert "deeper than" in capsys.readouterr().err

    def test_empty_input_document(self, planted_model, tmp_path, capsysbinary):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        assert main(["predict", "--model", str(planted_model), "--input", str(empty)]) == 0
        record = json.loads(capsysbinary.readouterr().out)
        assert record["sentences"] == []

    @pytest.mark.parametrize("flag", ["--input", "--trees"])
    def test_non_utf8_file_exits_3(self, flag, planted_model, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"Terms of \xff\xfe service.\n")
        files = {"--input": str(FIXTURES / "planted" / "doc00.txt"), flag: str(bad)}
        argv = ["predict", "--model", str(planted_model)]
        assert main(argv + [arg for pair in files.items() for arg in pair]) == 3
        assert f"{bad}: not valid UTF-8" in capsys.readouterr().err

    def test_kernel_model_without_trees_falls_back(self, tmp_path, capsysbinary):
        model = tmp_path / "k.json"
        assert (
            main(
                [
                    "train",
                    "--task",
                    "detect",
                    "--model",
                    "kernel-sstk",
                    "--corpus",
                    str(FIXTURES / "mini"),
                    "--trees",
                    str(FIXTURES / "mini_trees.txt"),
                    "--seed",
                    "3",
                    "--out",
                    str(model),
                ]
            )
            == 0
        )
        capsysbinary.readouterr()
        code = main(
            ["predict", "--model", str(model), "--input", str(FIXTURES / "mini" / "alpha.txt")]
        )
        assert code == 0
        captured = capsysbinary.readouterr()
        record = json.loads(captured.out)
        assert record["warnings"], "fallback warning recorded in the result"

    def test_kernel_model_without_fallback_or_trees_exits_3(self, mini_kernel_model_without_fallback, capsys):
        model = str(mini_kernel_model_without_fallback)
        code = main(["predict", "--model", model, "--input", str(FIXTURES / "mini" / "alpha.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no linear fallback" in err
        assert "Traceback" not in err


def corrupt_model(rec: dict, corruption: str) -> None:
    payload = rec["payload"]
    if corruption == "truncated-support-tree":
        payload["support_trees"][0] = payload["support_trees"][0][:-2]
    elif corruption == "missing-coef":
        del payload["coef"]
    elif corruption == "missing-kind":
        del rec["kind"]
    elif corruption == "vocabulary-entries-not-a-list":
        rec["vocabulary"]["entries"] = 5
    elif corruption == "short-coef":
        payload["coef"].pop()
    elif corruption == "short-support-trees":
        payload["support_trees"].pop()
    elif corruption == "fallback-wider-than-vocabulary":
        rec["fallback"]["dim"] += 1
    elif corruption == "fallback-dim-beyond-memory":
        rec["fallback"]["dim"] = 10**12  # 7.28 TiB of float64 if it were allocated
    elif corruption == "lambda-outside-unit-interval":
        payload["lambda"] = 5.0
    elif corruption == "nan-bias":
        payload["b"] = float("nan")  # json.dumps writes NaN
    elif corruption == "infinite-fallback-weight":
        rec["fallback"]["w"][0][1] = float("inf")  # written as Infinity
    elif corruption == "vocabulary-df-negative":
        rec["vocabulary"]["entries"][0][2] = -1  # 1 + df would divide the IDF by zero
    elif corruption == "vocabulary-df-above-n-fit":
        rec["vocabulary"]["entries"][0][2] = rec["vocabulary"]["n_fit"] + 1
    elif corruption == "vocabulary-duplicate-term":
        entries = rec["vocabulary"]["entries"]
        entries[1][0] = entries[0][0]
    elif corruption == "vocabulary-index-gaps":
        for i, entry in enumerate(rec["vocabulary"]["entries"]):
            entry[1] = 2 * i
    elif corruption == "weight-index-true":
        rec["fallback"]["w"][0][0] = True  # w[True] = v would write every weight
    elif corruption == "normalized-not-a-boolean":
        payload["normalized"] = "false"  # a non-empty string is truthy
    # numbers written as strings or booleans, which float() or numpy would take
    elif corruption == "bias-a-string":
        payload["b"] = "nan"
    elif corruption == "coef-a-string":
        payload["coef"][0] = "1.0"
    elif corruption == "lambda-a-string":
        payload["lambda"] = "0.4"
    elif corruption == "kkt-violation-a-string":
        payload["kkt_violation"] = "nan"
    elif corruption == "support-idx-a-string":
        payload["support_idx"][0] = str(payload["support_idx"][0])
    elif corruption == "fallback-weight-a-string":
        rec["fallback"]["w"][0][1] = "inf"
    elif corruption == "fallback-bias-a-boolean":
        rec["fallback"]["b"] = True


MODEL_CORRUPTIONS = [
    "truncated-support-tree",
    "missing-coef",
    "missing-kind",
    "vocabulary-entries-not-a-list",
    "short-coef",
    "short-support-trees",
    "fallback-wider-than-vocabulary",
    "fallback-dim-beyond-memory",
    "lambda-outside-unit-interval",
    "nan-bias",
    "infinite-fallback-weight",
    "vocabulary-df-negative",
    "vocabulary-df-above-n-fit",
    "vocabulary-duplicate-term",
    "vocabulary-index-gaps",
    "weight-index-true",
    "normalized-not-a-boolean",
    "bias-a-string",
    "coef-a-string",
    "lambda-a-string",
    "kkt-violation-a-string",
    "support-idx-a-string",
    "fallback-weight-a-string",
    "fallback-bias-a-boolean",
]


@pytest.mark.parametrize("corruption", MODEL_CORRUPTIONS)
class TestMalformedModelFile:
    def corrupted(self, model: Path, corruption: str, tmp_path: Path) -> Path:
        rec = json.loads(model.read_text(encoding="utf-8"))
        corrupt_model(rec, corruption)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(rec), encoding="utf-8")
        return bad

    def test_predict_exits_3(self, corruption, mini_kernel_model, tmp_path, capsys):
        bad = self.corrupted(mini_kernel_model, corruption, tmp_path)
        alpha_group = (FIXTURES / "mini_trees.txt").read_text(encoding="utf-8").split("\n\n")[0]
        sidecar = tmp_path / "alpha_trees.txt"
        sidecar.write_text(alpha_group + "\n", encoding="utf-8")
        doc = plain_copy(FIXTURES / "mini" / "alpha.txt", tmp_path)
        code = main(["predict", "--model", str(bad), "--input", str(doc), "--trees", str(sidecar)])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    def test_serve_exits_3_before_binding(self, corruption, mini_kernel_model, tmp_path, monkeypatch, capsys):
        def bind(*args, **kwargs):
            raise AssertionError("the service bound a port for a malformed model")

        monkeypatch.setattr("claudette.service._QuietServer", bind)
        bad = self.corrupted(mini_kernel_model, corruption, tmp_path)
        assert main(["serve", "--model", str(bad), "--port", "0"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_predict_with_chain_shapes_unlike_its_labels_exits_3(tmp_path, capsys):
    rec = json.loads((FIXTURES / "planted_chain_model_golden.json").read_text(encoding="utf-8"))
    rec["payload"].update(transitions=[[0.0, 1.0]], start=[0.0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rec), encoding="utf-8")
    doc = plain_copy(FIXTURES / "planted" / "doc00.txt", tmp_path)
    assert main(["predict", "--model", str(bad), "--input", str(doc)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "update",
    [
        pytest.param({"transitions": [[0.0, "nan"], [0.0, 0.0]]}, id="transition-a-string"),
        pytest.param({"start": ["0.5", 0.0]}, id="start-a-string"),
        pytest.param({"start": [False, 0.0]}, id="start-a-boolean"),
    ],
)
def test_predict_with_a_chain_number_not_a_json_number_exits_3(update, tmp_path, capsys):
    rec = json.loads((FIXTURES / "planted_chain_model_golden.json").read_text(encoding="utf-8"))
    rec["payload"].update(update)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rec), encoding="utf-8")
    doc = plain_copy(FIXTURES / "planted" / "doc00.txt", tmp_path)
    assert main(["predict", "--model", str(bad), "--input", str(doc)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


class TestEvaluateCommand:
    def test_evaluate_json_deterministic(self, tmp_path, capsys):
        args = [
            "evaluate",
            "--corpus",
            str(FIXTURES / "mini"),
            "--model-kind",
            "linear-bow",
            "--seed",
            "7",
        ]
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--json", str(p1)]) == 0
        assert main(args + ["--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        record = json.loads(p1.read_text())
        assert record["model_kind"] == "linear-bow"
        assert "detection" in record["metrics"]

    def test_evaluate_category_kind(self, capsys):
        assert (
            main(
                [
                    "evaluate",
                    "--corpus",
                    str(FIXTURES / "mini"),
                    "--model-kind",
                    "category-ovr",
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "macro-F1" in out

    def test_kernel_kind_evaluates_with_trees(self, capsys):
        code = main(
            [
                "evaluate",
                "--corpus",
                str(FIXTURES / "mini"),
                "--model-kind",
                "kernel-sstk",
                "--trees",
                str(FIXTURES / "mini_trees.txt"),
                "--seed",
                "7",
            ]
        )
        assert code == 0
        assert "detection" in capsys.readouterr().out

    def test_too_deep_tree_exits_3(self, tmp_path, capsys):
        lines = (FIXTURES / "mini_trees.txt").read_text(encoding="utf-8").split("\n")
        lines[0] = DEEP_TREE
        trees = tmp_path / "deep_trees.txt"
        trees.write_text("\n".join(lines), encoding="utf-8")
        code = main(
            ["evaluate", "--corpus", str(FIXTURES / "mini"), "--model-kind", "kernel-sstk"]
            + ["--trees", str(trees), "--seed", "7"]
        )
        assert code == 3
        assert "deeper than" in capsys.readouterr().err

    def test_non_utf8_trees_exit_3(self, tmp_path, capsys):
        trees = tmp_path / "trees.txt"
        trees.write_bytes(b"(S (NN \xff\xfe))\n")
        argv = ["evaluate", "--corpus", str(FIXTURES / "mini"), "--model-kind", "kernel-sstk"]
        assert main(argv + ["--trees", str(trees), "--seed", "7"]) == 3
        assert f"{trees}: not valid UTF-8" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"C = 1\xff\n")
        argv = ["evaluate", "--corpus", str(FIXTURES / "mini"), "--model-kind", "linear-bow"]
        assert main(argv + ["--config", str(cfg), "--seed", "7"]) == 2
        assert f"error: {cfg}: not valid UTF-8" in capsys.readouterr().err

    def test_unreadable_corpus_entry_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(FIXTURES / "mini", corpus)
        (corpus / "folder.txt").mkdir()
        argv = ["evaluate", "--corpus", str(corpus), "--model-kind", "linear-bow", "--seed", "7"]
        assert main(argv) == 2
        assert "folder.txt" in capsys.readouterr().err

    def test_chain_with_an_empty_document(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(FIXTURES / "mini", corpus)
        (corpus / "blank.txt").write_text("", encoding="utf-8")
        out = tmp_path / "r.json"
        argv = ["evaluate", "--corpus", str(corpus), "--model-kind", "chain", "--seed", "7"]
        assert main(argv + ["--json", str(out)]) == 0
        detection = json.loads(out.read_text(encoding="utf-8"))["metrics"]["detection"]
        assert detection["tp"] + detection["fn"] == 7

    def test_fold_sweep_cap_exits_4_and_still_writes(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 1\n", encoding="utf-8")
        out = tmp_path / "r.json"
        code = main(
            ["evaluate", "--corpus", str(FIXTURES / "planted"), "--model-kind", "linear-bow"]
            + ["--config", str(cfg), "--seed", "7", "--json", str(out)]
        )
        assert code == 4
        report = capsys.readouterr().out
        assert "warning: fold doc00: no-convergence" in report
        warnings = json.loads(out.read_text())["metrics"]["warnings"]
        assert warnings and all("no-convergence" in w for w in warnings)

    @pytest.mark.parametrize("corpus, kind", LOO_GOLDENS)
    def test_json_matches_the_pinned_golden(self, corpus, kind, tmp_path, capsys):
        # written by scripts/make_synthetic_corpus.py; any change to features,
        # solvers, the tree kernel or fold wiring that moves a LOO number shows here
        out = tmp_path / "r.json"
        argv = ["evaluate", "--corpus", str(FIXTURES / corpus), "--model-kind", kind]
        if kind == "kernel-sstk":
            argv += ["--trees", str(FIXTURES / f"{corpus}_trees.txt")]
        assert main(argv + ["--seed", "7", "--json", str(out)]) == 0
        golden = FIXTURES / f"{corpus}_loo_{kind}_golden.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_kernel_kind_requires_trees(self, capsys):
        code = main(
            [
                "evaluate",
                "--corpus",
                str(FIXTURES / "mini"),
                "--model-kind",
                "kernel-sstk",
                "--seed",
                "7",
            ]
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--model", "m.json", "--port", "70000"],
        ["serve", "--model", "m.json", "--port", "-1"],
        ["serve", "--model", "m.json", "--port", "http"],
        ["serve", "--model", "m.json", "--port", "0", "--max-bytes", "0"],
        ["kernel-selftest", "--pairs", "-3"],
        ["kernel-selftest", "--pairs", "0"],
        ["train", "--task", "detect", "--corpus", "c", "--seed", "-1", "--out", "m.json"],
        ["evaluate", "--corpus", "c", "--model-kind", "chain", "--seed", "-1"],
    ],
)
def test_numeric_flag_out_of_range_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "expected an integer" in err and "Traceback" not in err


class TestKernelSelftest:
    def test_passes(self, capsys):
        assert main(["kernel-selftest", "--pairs", "25"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_status_is_per_lambda(self, monkeypatch, capsys):
        real = treekernel.gram_matrix

        def wrong_at_one(trees, lam=treekernel.DEFAULT_LAMBDA, normalize=True):
            gram = real(trees, lam=lam, normalize=normalize)
            if lam == 1.0:
                for k in range(0, len(trees), 2):  # each sampled pair's kernel, on both sides
                    gram.matrix[k, k + 1] += 1.0
                    gram.matrix[k + 1, k] += 1.0
            return gram

        monkeypatch.setattr(treekernel, "gram_matrix", wrong_at_one)
        assert main(["kernel-selftest", "--pairs", "5"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.rsplit(" ", 1)[-1] for line in lines[:3]] == ["FAIL", "PASS", "PASS"]
        assert [line.split(":")[0] for line in lines[:3]] == ["lambda=1.0", "lambda=0.5", "lambda=0.4"]
        assert "symmetric ... FAIL" in lines[0] and "NOT" not in lines[0]
        assert lines[3] == "kernel selftest FAILED on 10 comparisons"

    def test_gram_entries_and_symmetry_are_checked(self, monkeypatch, capsys):
        real = treekernel.gram_matrix

        def skewed(trees, lam=treekernel.DEFAULT_LAMBDA, normalize=True):
            gram = real(trees, lam=lam, normalize=normalize)
            gram.matrix[0, 1] += 1e-6  # one entry off, and no longer symmetric
            return gram

        monkeypatch.setattr(treekernel, "gram_matrix", skewed)
        assert main(["kernel-selftest", "--pairs", "5"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert all("Gram of 10 trees" in line and "NOT symmetric ... FAIL" in line for line in lines[:3])
        assert lines[3] == "kernel selftest FAILED on 6 comparisons"


# One row per (command, fault): the same fault exits with the same code in
# every command, with one ``error:`` line and no traceback.  Placeholders:
# {fx} fixtures, {tmp} the test's directory (it holds no ``missing*`` file and
# no ``no-dir``), {model} a planted linear model, {doc} a planted document.
KERNEL_MINI = ["--corpus", "{fx}/mini", "--trees", "{fx}/mini_trees.txt"]
EVALUATE_MINI = ["evaluate", "--corpus", "{fx}/mini", "--model-kind", "linear-bow", "--seed", "7"]
FAULT_TABLE = [
    # an output path in a missing directory
    pytest.param(["stats", "{fx}/mini", "--json", "{tmp}/no-dir/s.json"], 2, id="stats-json-no-dir"),
    pytest.param(EVALUATE_MINI + ["--json", "{tmp}/no-dir/r.json"], 2, id="evaluate-json-no-dir"),
    pytest.param(
        ["predict", "--model", "{model}", "--input", "{doc}", "--report", "{tmp}/no-dir/r.html"],
        2,
        id="predict-report-no-dir",
    ),
    # a config value out of range
    pytest.param(
        ["train", "--task", "detect", "--model", "kernel-sstk"] + KERNEL_MINI
        + ["--config", "{tmp}/lambda.cfg", "--seed", "3", "--out", "{tmp}/k.json"],
        2,
        id="train-lambda-2",
    ),
    pytest.param(
        ["evaluate", "--model-kind", "kernel-sstk"] + KERNEL_MINI
        + ["--config", "{tmp}/lambda.cfg", "--seed", "7"],
        2,
        id="evaluate-lambda-2",
    ),
    pytest.param(["stats", "{fx}/mini", "--config", "{tmp}/levels.cfg"], 2, id="stats-positive-levels-7"),
    # a config key that only --seed sets, and one that no longer exists
    pytest.param(EVALUATE_MINI + ["--config", "{tmp}/seed.cfg"], 2, id="evaluate-config-seed"),
    pytest.param(EVALUATE_MINI + ["--config", "{tmp}/lowercase.cfg"], 2, id="evaluate-config-lowercase"),
    # an empty corpus directory
    pytest.param(["stats", "{tmp}/empty"], 2, id="stats-empty-corpus"),
    pytest.param(
        ["train", "--task", "detect", "--corpus", "{tmp}/empty", "--seed", "1", "--out", "{tmp}/m.json"],
        2,
        id="train-empty-corpus",
    ),
    pytest.param(
        ["evaluate", "--corpus", "{tmp}/empty", "--model-kind", "linear-bow", "--seed", "7"],
        2,
        id="evaluate-empty-corpus",
    ),
    # a missing input file
    pytest.param(
        ["train", "--task", "detect", "--model", "kernel-sstk", "--corpus", "{fx}/mini"]
        + ["--trees", "{tmp}/missing_trees.txt", "--seed", "3", "--out", "{tmp}/k.json"],
        2,
        id="train-missing-trees",
    ),
    pytest.param(
        ["evaluate", "--corpus", "{fx}/mini", "--model-kind", "kernel-sstk"]
        + ["--trees", "{tmp}/missing_trees.txt", "--seed", "7"],
        2,
        id="evaluate-missing-trees",
    ),
    pytest.param(
        ["predict", "--model", "{tmp}/missing.json", "--input", "{doc}"], 2, id="predict-missing-model"
    ),
    pytest.param(
        ["predict", "--model", "{model}", "--input", "{tmp}/missing.txt"], 2, id="predict-missing-input"
    ),
    pytest.param(
        ["predict", "--model", "{model}", "--input", "{doc}", "--trees", "{tmp}/missing_trees.txt"],
        2,
        id="predict-missing-trees",
    ),
    pytest.param(["serve", "--model", "{tmp}/missing.json", "--port", "0"], 2, id="serve-missing-model"),
    # a model file with a non-finite number
    pytest.param(["predict", "--model", "{tmp}/nan_b.json", "--input", "{doc}"], 3, id="predict-nan-model"),
    pytest.param(["serve", "--model", "{tmp}/nan_b.json", "--port", "0"], 3, id="serve-nan-model"),
    # a model number written as a string
    pytest.param(["predict", "--model", "{tmp}/string_b.json", "--input", "{doc}"], 3, id="predict-string-b-model"),
    pytest.param(["serve", "--model", "{tmp}/string_b.json", "--port", "0"], 3, id="serve-string-b-model"),
    # a model file nested deeper than the JSON decoder recurses
    pytest.param(["predict", "--model", "{tmp}/deep.json", "--input", "{doc}"], 3, id="predict-deep-model"),
    pytest.param(["serve", "--model", "{tmp}/deep.json", "--port", "0"], 3, id="serve-deep-model"),
    # readable content that is wrong
    pytest.param(["stats", "{tmp}/unclosed"], 3, id="stats-unclosed-tag"),
    pytest.param(
        ["predict", "--model", "{model}", "--input", "{doc}", "--trees", "{tmp}/two_groups.txt"],
        3,
        id="predict-two-sidecar-groups",
    ),
]


@pytest.mark.parametrize("argv, expected", FAULT_TABLE)
def test_fault_exit_code_table(argv, expected, planted_model, tmp_path, monkeypatch, capsysbinary):
    def bind(*args, **kwargs):
        raise AssertionError("the service bound a port for a model it could not load")

    monkeypatch.setattr("claudette.service._QuietServer", bind)
    (tmp_path / "empty").mkdir()
    (tmp_path / "unclosed").mkdir()
    (tmp_path / "unclosed" / "bad.txt").write_text("<a2>unclosed", encoding="utf-8")
    (tmp_path / "lambda.cfg").write_text("lambda = 2\n", encoding="utf-8")
    (tmp_path / "levels.cfg").write_text("positive_levels = 7\n", encoding="utf-8")
    (tmp_path / "seed.cfg").write_text("seed = -2\n", encoding="utf-8")
    (tmp_path / "lowercase.cfg").write_text("lowercase = true\n", encoding="utf-8")
    # raw bytes: json.dumps cannot write what json.loads cannot read back
    (tmp_path / "deep.json").write_bytes(b'{"format_version":' + b"[" * 200_000 + b"]" * 200_000 + b"}")
    (tmp_path / "two_groups.txt").write_text("(S (W a))\n\n(S (W b))\n", encoding="utf-8")
    nan_b = re.sub(r'"b":[^,}]+', '"b":NaN', planted_model.read_text(encoding="utf-8"), count=1)
    (tmp_path / "nan_b.json").write_text(nan_b, encoding="utf-8")
    string_b = re.sub(r'"b":[^,}]+', '"b":"nan"', planted_model.read_text(encoding="utf-8"), count=1)
    (tmp_path / "string_b.json").write_text(string_b, encoding="utf-8")
    places = {
        "fx": str(FIXTURES),
        "tmp": str(tmp_path),
        "model": str(planted_model),
        "doc": str(FIXTURES / "planted" / "doc00.txt"),
    }
    code = main([arg.format(**places) for arg in argv])
    err = capsysbinary.readouterr().err.decode("utf-8")
    assert code == expected
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
