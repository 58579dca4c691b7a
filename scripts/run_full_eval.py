#!/usr/bin/env python3
"""Run the full leave-one-document-out benchmark on a tagged corpus.

Compares the sentence-wide linear model against the collective chain model on
the detection task, runs the one-vs-rest category task, and prints the corpus
statistics next to the published reference numbers.  With a treebank it also
runs the tree-kernel model (slow on large corpora: the Gram matrix is
quadratic in the number of training sentences).

Example:
    python scripts/run_full_eval.py tests/fixtures/adjacency --seed 7 --chain-C 30
    python scripts/run_full_eval.py data/ToS --lenient --skip-chain
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from claudette.corpus import corpus_stats, load_corpus  # noqa: E402
from claudette.evaluation import (  # noqa: E402
    compare_to_paper_stats,
    render_stats,
    run_detection_eval,
)
from claudette.features import FeatureConfig  # noqa: E402
from claudette.svm import TrainConfig  # noqa: E402
from claudette.trees import load_treebank  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("corpus")
    parser.add_argument("--trees", help="treebank file aligned with the corpus")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--C", type=float, default=1.0)
    parser.add_argument("--chain-C", type=float, default=30.0)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--min-df", type=int, default=2)
    parser.add_argument("--ngrams", default="1,2")
    parser.add_argument("--lenient", action="store_true")
    parser.add_argument("--skip-chain", action="store_true")
    parser.add_argument("--skip-category", action="store_true")
    args = parser.parse_args()

    corpus = load_corpus(args.corpus, lenient=args.lenient)
    print(render_stats(corpus_stats(corpus)))
    print(compare_to_paper_stats(corpus_stats(corpus)).render())

    orders = tuple(int(n) for n in args.ngrams.split(","))
    feature_cfg = FeatureConfig(ngram_orders=orders, min_df=args.min_df)
    base_cfg = TrainConfig(seed=args.seed, C=args.C)

    def timed(label, fn):
        start = time.monotonic()
        report = fn()
        print(f"== {label} ({time.monotonic() - start:.1f}s)")
        print(report.render())

    timed(
        "detection / linear-bow",
        lambda: run_detection_eval(corpus, feature_cfg, "linear-bow", base_cfg),
    )
    if not args.skip_chain:
        chain_cfg = TrainConfig(seed=args.seed, C=args.chain_C, epochs=args.epochs)
        timed(
            "detection / chain",
            lambda: run_detection_eval(corpus, feature_cfg, "chain", chain_cfg),
        )
    if args.trees:
        treebank = load_treebank(args.trees, corpus)
        timed(
            "detection / kernel-sstk",
            lambda: run_detection_eval(
                corpus, feature_cfg, "kernel-sstk", base_cfg, treebank=treebank
            ),
        )
    if not args.skip_category:
        timed(
            "category / one-vs-rest linear",
            lambda: run_detection_eval(corpus, feature_cfg, "category-ovr", base_cfg),
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
