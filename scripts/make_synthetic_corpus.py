#!/usr/bin/env python3
"""Regenerate the bundled synthetic corpora under tests/fixtures/.

The fixture files are committed; this script exists to document how they were
produced and to rebuild them after a generator change.  Regenerating rewrites
corpora, treebanks, the mini-corpus golden files ``mini_golden.json`` (the
stats record) and ``mini_stats_golden.txt`` (the ``stats`` stdout), and the
LOO goldens ``<corpus>_loo_<kind>_golden.json``: the ``evaluate --seed 7
--json`` record of each of ``LOO_GOLDEN_KINDS`` on each bundled corpus, and
``planted_chain_model_golden.json``, the model file of ``train --task detect
--model chain --seed 7`` on ``planted``, which pins the chain trainer's weights.

    python scripts/make_synthetic_corpus.py [--root DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from claudette.cli import main as cli_main  # noqa: E402
from claudette.corpus import corpus_stats, load_corpus  # noqa: E402
from claudette.evaluation import stats_record  # noqa: E402
from claudette.modelio import canonical_json_bytes  # noqa: E402
from claudette.synthetic import generate_fixture_set  # noqa: E402

CORPORA = ("mini", "planted", "adjacency")
LOO_GOLDEN_KINDS = ("linear-bow", "chain", "category-ovr")
LOO_GOLDEN_SEED = 7


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

    argv = ["train", "--task", "detect", "--model", "chain", "--corpus", str(root / "planted")]
    argv += ["--seed", str(LOO_GOLDEN_SEED), "--out", str(root / "planted_chain_model_golden.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli_main(argv) != 0:
            raise SystemExit("train failed: chain on planted")

    for name in CORPORA:
        corpus = load_corpus(root / name)
        positives = sum(1 for ls in corpus.all_sentences() if ls.detection_label)
        print(f"{name}: {corpus.M} documents, {corpus.N} sentences, {positives} positive")
    print(f"fixtures written under {root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
