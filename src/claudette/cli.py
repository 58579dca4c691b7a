"""Command-line interface.

Exit codes: 0 success, 1 a worker process that ended without its results,
2 usage errors, 3 data errors, 4 training non-convergence (diagnostics are
still written).  A path that cannot be read or written is a usage error;
readable content that is wrong is a data error.  ``main`` maps every typed
fault to its code through ``USAGE_FAULTS`` and ``DATA_FAULTS``, and
``WorkerFailed`` to 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import random
import sys
from pathlib import Path

import numpy as np

from . import evaluation, svm, treekernel
from .analyze import TreeAlignmentError, analyze_text, result_json
from .corpus import FAIRNESS_LEVELS, CorpusError, EmptyCorpus, corpus_fingerprint, corpus_stats, load_corpus
from .features import FeatureConfig, MissingTree
from .modelio import (
    MODEL_KINDS,
    CorpusTable,
    MissingTreebank,
    ModelBundle,
    ModelFormatError,
    canonical_json_bytes,
    fit,
    load_model,
    save_model,
)
from .report import render_report
from .service import DEFAULT_MAX_BYTES, serve
from .trees import TreeBankMismatch, TreeParseError, load_treebank, read_treebank_groups
from .workers import WorkerFailed

WORKER_FAILED = 1
USAGE_ERROR = 2
DATA_ERROR = 3
NO_CONVERGENCE = 4


class ConfigFileError(ValueError):
    pass


class UsageError(ValueError):
    """Flags that cannot be used together."""


class InputError(ValueError):
    """A ``predict`` input file that was read but cannot be used."""


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigFileError(f"{path}: not valid UTF-8: {err}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigFileError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _parse_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigFileError(f"config key {key!r}: expected a boolean, got {value!r}")


def _parse_number(value: str, key: str, kind: type[int] | type[float]) -> int | float:
    try:
        return kind(value)
    except ValueError as err:
        raise ConfigFileError(f"config key {key!r}: {err}") from None


def _parse_int_list(value: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in value.split(",") if part.strip())
    except ValueError:
        raise ConfigFileError(f"config key {key!r}: expected comma-separated integers") from None


class RunSettings:
    """FeatureConfig + TrainConfig + kernel settings from a config file."""

    def __init__(self, values: dict[str, str] | None = None):
        values = dict(values or {})
        feature_kwargs: dict = {}
        if "ngram_orders" in values:
            feature_kwargs["ngram_orders"] = _parse_int_list(values.pop("ngram_orders"), "ngram_orders")
        for key in ("use_pos", "log_tf"):
            if key in values:
                feature_kwargs[key] = _parse_bool(values.pop(key), key)
        if "min_df" in values:
            feature_kwargs["min_df"] = _parse_number(values.pop("min_df"), "min_df", int)
        self.feature_config = FeatureConfig(**feature_kwargs)

        train_kwargs: dict = {}
        if values.get("positive_weight") in ("", "balanced"):
            values.pop("positive_weight")
            train_kwargs["positive_weight"] = None
        for key, kind in (("C", float), ("positive_weight", float), ("tol", float),
                          ("max_iter", int), ("epochs", int)):
            if key in values:
                train_kwargs[key] = _parse_number(values.pop(key), key, kind)
        self.train_config = svm.TrainConfig(**train_kwargs)

        self.lam = treekernel.DEFAULT_LAMBDA
        if "lambda" in values:
            self.lam = _parse_number(values.pop("lambda"), "lambda", float)
        treekernel._check_lambda(self.lam)
        self.kernel_normalize = _parse_bool(values.pop("kernel_normalize", "true"), "kernel_normalize")
        self.positive_levels = _parse_int_list(values.pop("positive_levels", "2,3"), "positive_levels")
        if not self.positive_levels or not set(self.positive_levels) <= set(FAIRNESS_LEVELS):
            levels = ", ".join(map(str, FAIRNESS_LEVELS))
            raise ConfigFileError(f"config key 'positive_levels': expected a non-empty subset of {levels}")
        if values:
            unknown = ", ".join(sorted(values))
            raise ConfigFileError(f"unknown config keys: {unknown}")


def _load_settings(config_path: str | None, seed: int | None) -> RunSettings:
    """The config file's settings; the seed comes from ``--seed`` only."""
    values = parse_config_file(config_path) if config_path else {}
    try:
        settings = RunSettings(values)
    except ValueError as err:  # a field that does not parse or is out of range
        raise ConfigFileError(str(err)) from None
    if seed is not None:
        settings.train_config = dataclasses.replace(settings.train_config, seed=seed)
    return settings


def _needs_trees(args: argparse.Namespace, flag: str, kind: str, settings: RunSettings) -> None:
    if args.trees:
        return
    if kind == "kernel-sstk":
        raise UsageError(f"{flag} kernel-sstk requires --trees")
    if settings.feature_config.use_pos:
        raise UsageError("use_pos features require --trees")


# characters of an error message printed: a reader's message may echo its input
MAX_MESSAGE = 500


def _fail(message: str, code: int) -> int:
    if len(message) > MAX_MESSAGE:
        message = message[:MAX_MESSAGE] + "…"
    print(f"error: {message}", file=sys.stderr)
    return code


# matched in this order: EmptyCorpus is also a CorpusError
USAGE_FAULTS = (UsageError, ConfigFileError, EmptyCorpus, OSError)
DATA_FAULTS = (CorpusError, TreeParseError, TreeBankMismatch, ModelFormatError, MissingTreebank,
               TreeAlignmentError, MissingTree, evaluation.TooFewDocuments, svm.EmptyData,
               svm.SingleClass, treekernel.DegenerateTree, treekernel.TooManyPairs, treekernel.GramTooLarge,
               InputError)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    settings = _load_settings(args.config, None)
    corpus = load_corpus(args.corpus_dir, lenient=args.lenient)
    stats = corpus_stats(corpus, positive_levels=settings.positive_levels)
    diff = evaluation.compare_to_paper_stats(stats)
    sys.stdout.write(evaluation.render_stats(stats))
    sys.stdout.write("\n")
    sys.stdout.write(diff.render())
    if args.json:
        record = {
            "stats": evaluation.stats_record(stats),
            "reference_diff": diff.to_record(),
        }
        Path(args.json).write_bytes(canonical_json_bytes(record))
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _train_bundle(args: argparse.Namespace, settings: RunSettings) -> ModelBundle:
    corpus = load_corpus(args.corpus, lenient=args.lenient)
    treebank = load_treebank(args.trees, corpus) if args.trees else None
    kind = "category-ovr" if args.task == "category" else args.model
    table = CorpusTable(
        corpus.documents, treebank, settings.feature_config, settings.lam, settings.kernel_normalize
    )
    bundle = fit(kind, table, settings.train_config)
    if kind == "kernel-sstk":  # the kernel fit builds no terms; its fallback brings them
        linear = fit("linear-bow", table, settings.train_config)
        bundle.vocabulary, bundle.fallback = linear.vocabulary, linear.model
    bundle.metadata["task"] = args.task
    bundle.metadata["corpus_fingerprint"] = corpus_fingerprint(args.corpus)
    return bundle


def cmd_train(args: argparse.Namespace) -> int:
    if args.task == "category" and args.model != "linear-bow":
        raise UsageError("--task category supports only --model linear-bow")
    settings = _load_settings(args.config, args.seed)
    _needs_trees(args, "--model", args.model, settings)
    bundle = _train_bundle(args, settings)
    save_model(bundle, args.out)  # a non-finite model raises ModelFormatError here
    warnings = bundle.solver_warnings()
    for sym, warning in warnings:
        print(f"warning: {sym + ': ' if sym else ''}{warning}", file=sys.stderr)
    print(f"wrote {bundle.kind} model to {args.out}")
    return NO_CONVERGENCE if any("no-convergence" in w for _, w in warnings) else 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def cmd_predict(args: argparse.Namespace) -> int:
    bundle = load_model(args.model)
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"{args.input}: not valid UTF-8: {err}") from None
    trees = None
    if args.trees:
        groups = read_treebank_groups(args.trees)
        if len(groups) != 1:
            raise InputError(
                f"sidecar tree file must contain exactly one document group, found {len(groups)}"
            )
        trees = groups[0]
    result = analyze_text(bundle, text, trees=trees)
    payload = result_json(result)
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.report:
        render_report(result, args.report)
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(args: argparse.Namespace) -> int:
    settings = _load_settings(args.config, args.seed)
    _needs_trees(args, "--model-kind", args.model_kind, settings)
    corpus = load_corpus(args.corpus, lenient=args.lenient)
    treebank = load_treebank(args.trees, corpus) if args.trees else None
    report = evaluation.run_detection_eval(
        corpus,
        settings.feature_config,
        args.model_kind,
        settings.train_config,
        treebank=treebank,
        lam=settings.lam,
        normalize=settings.kernel_normalize,
    )
    sys.stdout.write(report.render())
    if args.json:
        record = {
            "model_kind": args.model_kind,
            "seed": settings.train_config.seed,
            "corpus_fingerprint": corpus_fingerprint(args.corpus),
            "metrics": report.to_record(),
        }
        Path(args.json).write_bytes(canonical_json_bytes(record))
    return NO_CONVERGENCE if any("no-convergence" in w for w in report.warnings) else 0


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def cmd_serve(args: argparse.Namespace) -> int:
    bundle = load_model(args.model)
    try:
        serve(bundle, args.port, max_bytes=args.max_bytes)
    except OSError as err:
        return _fail(f"cannot bind port {args.port}: {err}", USAGE_ERROR)
    return 0


# ---------------------------------------------------------------------------
# kernel-selftest
# ---------------------------------------------------------------------------

def cmd_kernel_selftest(args: argparse.Namespace) -> int:
    """Check one raw Gram over every sampled tree per lambda against fragment
    enumeration, pair k being trees 2k and 2k + 1; the Gram must also equal
    its transpose bit for bit."""
    rng = random.Random(args.seed)
    trees = [treekernel.random_tree(rng, max_nodes=12) for _ in range(2 * args.pairs)]
    total_failures = 0
    for lam in (1.0, 0.5, 0.4):
        gram = treekernel.gram_matrix(trees, lam=lam, normalize=False).matrix
        worst, failures = 0.0, 0
        for fast, oracle in zip(gram, treekernel.fragment_kernel_rows(trees, lam)):
            off = np.abs(fast - oracle)
            worst = max(worst, float(off.max()))
            failures += int(np.count_nonzero(~(off < 1e-9)))
        symmetric = np.array_equal(gram, gram.T)
        failures += int(not symmetric)
        total_failures += failures
        status = "PASS" if failures == 0 else "FAIL"
        print(
            f"lambda={lam}: Gram of {len(trees)} trees ({args.pairs} pairs), max |difference| {worst:.2e}, "
            f"{'symmetric' if symmetric else 'NOT symmetric'} ... {status}"
        )
    if total_failures:
        print(f"kernel selftest FAILED on {total_failures} comparisons")
        return 1
    print("kernel selftest passed")
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _int_in(low: int, high: float = math.inf):
    """An argparse type: an integer in [low, high]."""
    bounds = f"in {low}..{high}" if high < math.inf else f">= {low}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected an integer {bounds}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claudette",
        description="Detect potentially unfair clauses in Terms-of-Service documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus statistics and reference comparison")
    p.add_argument("corpus_dir")
    p.add_argument("--config")
    p.add_argument("--json", help="also write the stats as JSON to this path")
    p.add_argument("--lenient", action="store_true", help="tolerate repeated-opener closing tags")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a model on a tagged corpus")
    p.add_argument("--task", choices=("detect", "category"), required=True)
    p.add_argument("--model", choices=("linear-bow", "kernel-sstk", "chain"), default="linear-bow")
    p.add_argument("--corpus", required=True)
    p.add_argument("--trees")
    p.add_argument("--config")
    p.add_argument("--seed", type=_int_in(0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="analyze one plain-text document")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--trees")
    p.add_argument("--report", help="write an HTML report to this path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="leave-one-document-out evaluation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model-kind", choices=MODEL_KINDS, required=True)
    p.add_argument("--trees")
    p.add_argument("--config")
    p.add_argument("--seed", type=_int_in(0), required=True)
    p.add_argument("--json", help="write the metrics record to this path")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("serve", help="run the analysis HTTP service")
    p.add_argument("--model", required=True)
    p.add_argument("--port", type=_int_in(0, 65535), required=True)
    p.add_argument("--max-bytes", type=_int_in(1), default=DEFAULT_MAX_BYTES)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("kernel-selftest", help="verify the tree kernel against fragment enumeration")
    p.add_argument("--pairs", type=_int_in(1), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_kernel_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except USAGE_FAULTS as err:
        return _fail(str(err), USAGE_ERROR)
    except DATA_FAULTS as err:
        return _fail(str(err), DATA_ERROR)
    except WorkerFailed as err:
        return _fail(str(err), WORKER_FAILED)


if __name__ == "__main__":
    raise SystemExit(main())
