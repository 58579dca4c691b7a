#!/usr/bin/env python3
"""Regenerate the bundled synthetic corpora under tests/fixtures/.

The fixture files are committed; this script exists to document how they were
produced and to rebuild them after a generator change.  Regenerating rewrites
corpora, treebanks, the mini-corpus golden files ``mini_golden.json`` (the
stats record) and ``mini_stats_golden.txt`` (the ``stats`` stdout), and the
LOO goldens ``<corpus>_loo_<kind>_golden.json``: the ``evaluate --seed 7
--json`` record of each of ``LOO_GOLDEN_KINDS`` on each bundled corpus and
of ``kernel-sstk`` (with the corpus's ``--trees``) on each of
``KERNEL_LOO_CORPORA``, and ``planted_loo_category-ovr_unigram_golden.json``,
the record of ``category-ovr`` on ``planted`` under ``unigram.cfg``
(``UNIGRAM_CONFIG``), which finds true positives in four categories and so
pins category F1s above zero, and ``planted_<model>_model_golden.json``, the
model files of ``train --task detect --model <model> --seed 7`` on
``planted`` for ``linear`` (linear-bow), ``chain`` and ``kernel-sstk`` (with
``planted_trees.txt``), which pin the trainers' weights and the kernel
model's support alphas, and ``planted_predict_<kind>_golden.json``, the
``predict`` stdout of those three models on the first ``planted`` document's
plain text, which pins the emitted score bytes.  The kernel model predicts
from a one-group sidecar holding that document's trees, so its golden pins
kernel rows; ``planted_predict_kernel-sstk-fallback_golden.json`` is its
``predict`` stdout without the sidecar, which pins the linear fallback.

    python scripts/make_synthetic_corpus.py [--root DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from claudette.cli import main as cli_main  # noqa: E402
from claudette.corpus import corpus_stats, load_corpus  # noqa: E402
from claudette.evaluation import stats_record  # noqa: E402
from claudette.modelio import canonical_json_bytes  # noqa: E402
from synthetic import generate_fixture_set  # noqa: E402
from claudette.trees import read_treebank_groups, write_treebank_groups  # noqa: E402

CORPORA = ("mini", "planted", "adjacency")
LOO_GOLDEN_KINDS = ("linear-bow", "chain", "category-ovr")
KERNEL_LOO_CORPORA = ("planted", "adjacency")
LOO_GOLDEN_SEED = 7
UNIGRAM_CONFIG = "ngram_orders = 1\nmin_df = 2\nC = 1\n"
# model kind -> its pinned model file on planted
MODEL_GOLDENS = {"linear-bow": "planted_linear_model_golden.json",
                 "chain": "planted_chain_model_golden.json",
                 "kernel-sstk": "planted_kernel-sstk_model_golden.json"}


def predict_stdout(argv: list[str]) -> bytes:
    """The bytes ``predict`` writes to stdout's byte buffer."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        if cli_main(argv) != 0:
            raise SystemExit(f"predict failed: {' '.join(argv)}")
    out.flush()
    return out.buffer.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=str(REPO / "tests" / "fixtures"))
    args = parser.parse_args()

    root = Path(args.root)
    generate_fixture_set(root)

    mini = load_corpus(root / "mini")
    golden = stats_record(corpus_stats(mini))
    (root / "mini_golden.json").write_bytes(canonical_json_bytes(golden))
    stats_out = io.StringIO()
    with contextlib.redirect_stdout(stats_out):
        if cli_main(["stats", str(root / "mini")]) != 0:
            raise SystemExit("stats failed on the mini corpus")
    (root / "mini_stats_golden.txt").write_text(stats_out.getvalue(), encoding="utf-8")

    for name in CORPORA:
        for kind in LOO_GOLDEN_KINDS:
            argv = ["evaluate", "--corpus", str(root / name), "--model-kind", kind]
            argv += ["--seed", str(LOO_GOLDEN_SEED), "--json", str(root / f"{name}_loo_{kind}_golden.json")]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli_main(argv) != 0:
                    raise SystemExit(f"evaluate failed: {kind} on {name}")
    for name in KERNEL_LOO_CORPORA:
        argv = ["evaluate", "--corpus", str(root / name), "--model-kind", "kernel-sstk"]
        argv += ["--trees", str(root / f"{name}_trees.txt"), "--seed", str(LOO_GOLDEN_SEED)]
        argv += ["--json", str(root / f"{name}_loo_kernel-sstk_golden.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(argv) != 0:
                raise SystemExit(f"evaluate failed: kernel-sstk on {name}")

    (root / "unigram.cfg").write_text(UNIGRAM_CONFIG, encoding="utf-8")
    argv = ["evaluate", "--corpus", str(root / "planted"), "--model-kind", "category-ovr"]
    argv += ["--config", str(root / "unigram.cfg"), "--seed", str(LOO_GOLDEN_SEED)]
    argv += ["--json", str(root / "planted_loo_category-ovr_unigram_golden.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli_main(argv) != 0:
            raise SystemExit("evaluate failed: category-ovr on planted under unigram.cfg")

    first = load_corpus(root / "planted").documents[0]
    planted_trees = root / "planted_trees.txt"
    with tempfile.TemporaryDirectory() as tmp:
        text = Path(tmp) / "planted_first.txt"
        text.write_text(first.plain_text, encoding="utf-8")
        sidecar = Path(tmp) / "planted_first_trees.txt"
        write_treebank_groups(read_treebank_groups(planted_trees)[:1], sidecar)
        for kind, model_name in MODEL_GOLDENS.items():
            model = root / model_name
            trees = ["--trees", str(planted_trees)] if kind == "kernel-sstk" else []
            argv = ["train", "--task", "detect", "--model", kind, "--corpus", str(root / "planted")]
            argv += trees + ["--seed", str(LOO_GOLDEN_SEED), "--out", str(model)]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli_main(argv) != 0:
                    raise SystemExit(f"train failed: {kind} on planted")
            argv = ["predict", "--model", str(model), "--input", str(text)]
            golden = root / f"planted_predict_{kind}_golden.json"
            golden.write_bytes(predict_stdout(argv + (["--trees", str(sidecar)] if trees else [])))
            if trees:  # the same model without trees scores with its linear fallback
                (root / f"planted_predict_{kind}-fallback_golden.json").write_bytes(predict_stdout(argv))

    for name in CORPORA:
        corpus = load_corpus(root / name)
        positives = sum(1 for ls in corpus.all_sentences() if ls.detection_label)
        print(f"{name}: {corpus.M} documents, {corpus.N} sentences, {positives} positive")
    print(f"fixtures written under {root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
