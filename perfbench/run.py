"""The claudette benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs are generated from ``--seed`` by ``perfbench/gen.py``.
Workloads (see README.md for why each exists):

* ``loo-linear``, ``loo-chain`` -- ``run_detection_eval`` with ``linear-bow``
  and with ``chain`` on the same generated text corpus;
* ``loo-kernel`` -- ``run_detection_eval`` with ``kernel-sstk`` on a small
  generated corpus and treebank;
* ``serve-analyze`` -- ``POST /analyze`` traffic against a ``linear-bow``
  model served by ``cli.main(["serve", ...])`` in a child process.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.  The
line before it is a summary with the input properties, the workload's
metrics under their descriptive names, and which per-layer wrappers found no
target.  Work files go under ``.perfbench/`` in the checkout; a traced run
leaves its spans there as ``trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import loadgen  # noqa: E402
from probe import ContentionProbe  # noqa: E402
from spans import LOO_TARGETS, Tracer, median, quantile  # noqa: E402

#: Contract metrics of an untraced run, for every workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "f1": "ratio",
    "latency_ms": "ms",
}

#: Contract metrics of a traced run, for every workload (0 where a layer is bypassed).
PER_LAYER = {
    "corpus.load_corpus_s": "s",
    "corpus.segment_sentences_ms": "ms",
    "trees.load_treebank_s": "s",
    "trees.parse_bracketed_calls": "count",
    "trees.parse_bracketed_s": "s",
    "features.build_vocabulary_s": "s",
    "features.build_vocabulary_calls": "count",
    "features.vectorize_all_s": "s",
    "features.vectorize_all_ms": "ms",
    "features.sentences_vectorized": "count",
    "svm.train_linear_s": "s",
    "svm.train_linear_calls": "count",
    "svm.predict_linear_s": "s",
    "svm.predict_linear_calls": "count",
    "svm.train_smo_s": "s",
    "svm.smo_iterations": "count",
    "svm.nonconverged_fits": "count",
    "treekernel.gram_matrix_s": "s",
    "treekernel.kernel_row_s": "s",
    "treekernel.sstk_calls": "count",
    "treekernel.us_per_pair": "us",
    "seqmodel.train_chain_s": "s",
    "seqmodel.train_chain_self_s": "s",
    "seqmodel.structured_objective_s": "s",
    "seqmodel.augmented_emissions_calls": "count",
    "seqmodel.viterbi_s": "s",
    "evaluation.fit_detection_fold_p50_s": "s",
    "evaluation.fit_detection_fold_max_s": "s",
    "evaluation.run_detection_eval_self_s": "s",
    "modelio.encode_s": "s",
    "modelio.decode_s": "s",
    "modelio.decode_calls_per_request": "count",
    "modelio.canonical_json_ms": "ms",
    "analyze.analyze_text_p50_ms": "ms",
    "analyze.analyze_text_p99_ms": "ms",
    "service.http_overhead_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.generator_lag_ms": "ms",
    "service.requests_sent": "count",
    "service.requests_ok": "count",
    "service.requests_failed": "count",
    "service.latency_p50_ms": "ms",
    "service.latency_p95_ms": "ms",
    "service.latency_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# Model settings per LOO workload.  Training always uses seed 0: the
# benchmark seed only changes the generated inputs.
LOO_KINDS = {
    "loo-linear": ("linear-bow", {"C": 1.0}),
    "loo-chain": ("chain", {"C": 30.0, "epochs": 12}),
    "loo-kernel": ("kernel-sstk", {"C": 1.0}),
}
#: Seconds one full LOO pass took on the reference machine with the unchanged
#: code, in its slower stretches.  The pass count is sized from these and from
#: ``--seconds`` only, never from the program's speed, so both sides of a
#: comparison run as many passes.
PASS_SECONDS = {"loo-linear": 3.0, "loo-chain": 5.4, "loo-kernel": 3.4}
PASS_SHARE = 0.9  # of --seconds; the rest covers set-up and checks
#: Set-up loads (``load_corpus`` + ``load_treebank``) timed in one run, spread
#: evenly before the first pass and after every pass.  A load is shorter than
#: the second or so for which a core of the 2-core reference VM stays at one
#: speed, so the fastest load of a run is one that met no contention: in 3
#: runs in a slow stretch, 2 to 8 of 30 loads took 25-30 ms, the others 40-50.
#: ``setup_s`` of a LOO workload is that fastest load.
SETUP_LOADS = 36
SERVER_STARTS = 6  # serve-analyze: server starts timed for setup_s


def setup_statistic(times: list[float]) -> float:
    """The median set-up: of the server starts, which last longer than a core
    of the reference VM stays at one speed, and of the traced loads."""
    return median(times)


# serve-analyze: the model is trained on the first half of the text corpus
# and the bodies cover the other half, so requests are unseen text and the
# served F1 is a held-out score over as many sentences as the LOO corpus has.
SERVE_TRAIN_DOCS = gen.TEXT_DOCS // 2
#: Open-loop rate, half the saturation rate of the unchanged server: about
#: 45 requests/s with 2 connections.  That cap is not the CPU (about 2.7 ms of
#: server CPU per request of the pool's mix, read from /proc/<pid>/stat), but
#: a delayed ACK: the service writes the headers and the body in two sends
#: with Nagle on, so once a connection carries back-to-back traffic each
#: answer waits about 40 ms.  On the reference machine the open-loop median
#: was 3.3 ms at 10-38 requests/s, 128 ms at 45 and 4 s at 71, where the
#: backlog grew for the whole run.
OPEN_LOOP_RPS = 22.0
CONNECTIONS = 2  # one per core of the 2-core reference machine
# Shares of --seconds; the rest covers set-up.  A traced run splits its time
# between an untraced server, which prices the tracing, and a traced one.
OPEN_SHARE, CLOSED_SHARE = 0.55, 0.15
TRACE_OPEN_SHARE, TRACE_CLOSED_SHARE = 0.25, 0.1
START_TIMEOUT_S = 30.0


class Failure(Exception):
    """The workload could not produce a measurement."""


def _import_program():
    src = ROOT / "src"
    if not (src / "claudette" / "__init__.py").is_file():
        raise Failure(f"no program source at {src / 'claudette'}")
    sys.path.insert(0, str(src))
    import claudette

    if Path(claudette.__file__).resolve().parent != (src / "claudette").resolve():
        raise Failure(f"imported claudette from {claudette.__file__}, not from {src}")
    return claudette


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_corpus(directory: Path, docs) -> None:
    directory.mkdir(parents=True)
    for doc in docs:
        (directory / f"{doc.name}.txt").write_text(doc.raw, encoding="utf-8")


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


# ---------------------------------------------------------------------------
# Leave-one-document-out workloads
# ---------------------------------------------------------------------------

def _loo_inputs(workload: str, seed: int, work: Path) -> tuple[list, Path, Path | None, dict]:
    if workload == "loo-kernel":
        docs = gen.kernel_corpus(seed)
        treebank = work / "trees.tb"
        treebank.write_text(
            "\n\n".join("\n".join(d.trees) for d in docs) + "\n", encoding="utf-8"
        )
        depths = [x for d in docs for x in d.depths]
        nodes = [x for d in docs for x in d.internal_nodes]
        props = {
            "tree_depth_min": min(depths), "tree_depth_median": median(depths),
            "tree_depth_max": max(depths), "tree_internal_nodes_min": min(nodes),
            "tree_internal_nodes_median": median(nodes), "tree_internal_nodes_max": max(nodes),
        }
    else:
        docs = gen.text_corpus(seed)
        treebank = None
        props = {}
    corpus_dir = work / "corpus"
    _write_corpus(corpus_dir, docs)
    return docs, corpus_dir, treebank, props


def _load(corpus_dir: Path, treebank_path: Path | None) -> tuple[float, object, object]:
    """Seconds to load the corpus (and treebank): what ``claudette evaluate``
    pays before its first fold.  Returns the time and what was loaded."""
    from claudette import corpus as corpus_mod
    from claudette import trees as trees_mod

    t0 = time.perf_counter()
    corpus = corpus_mod.load_corpus(corpus_dir)
    treebank = trees_mod.load_treebank(treebank_path, corpus) if treebank_path else None
    return time.perf_counter() - t0, corpus, treebank


def _check_corpus(corpus, docs) -> list[str]:
    """The loaded corpus must reproduce the generator's sentences and labels."""
    problems = []
    if [d.name for d in corpus.documents] != [d.name for d in docs]:
        return ["document names differ from the generated ones"]
    for loaded, made in zip(corpus.documents, docs):
        got = tuple(ls.detection_label for ls in loaded.sentences)
        if got != made.labels:
            problems.append(f"{made.name}: {len(got)} sentences / labels differ from the generated {len(made.labels)}")
    return problems


def pass_count(workload: str, seconds: float) -> int:
    return max(2, int(PASS_SHARE * seconds / PASS_SECONDS[workload]))


def run_loo(workload: str, args, work: Path) -> dict:
    from claudette import evaluation, features, svm

    kind, cfg_kwargs = LOO_KINDS[workload]
    feature_cfg = features.FeatureConfig()
    train_cfg = svm.TrainConfig(seed=0, **cfg_kwargs)
    docs, corpus_dir, treebank_path, props = _loo_inputs(workload, args.seed, work)
    tracer = Tracer() if args.trace else None

    def traced(on: bool):
        return tracer.active(LOO_TARGETS) if tracer and on else contextlib.nullcontext()

    setup_times: list[float] = []

    def load(times: int):
        # a traced run traces every load; its spans are told apart by their root
        with traced(True):
            for _ in range(times):
                elapsed, corpus, treebank = _load(corpus_dir, treebank_path)
                setup_times.append(elapsed)
        return corpus, treebank

    passes = pass_count(workload, args.seconds)
    loads_per_gap = -(-SETUP_LOADS // (passes + 1))
    corpus, treebank = load(loads_per_gap)
    problems = _check_corpus(corpus, docs)
    n_sentences = corpus.N
    gold_positives = sum(sum(d.labels) for d in docs)
    vocab = features.build_vocabulary(corpus.all_sentences(), None, feature_cfg)
    props.update(
        documents=corpus.M, sentences=n_sentences, positive_share=gold_positives / n_sentences,
        vocabulary_terms=vocab.size, model_kind=kind, train_config=cfg_kwargs, passes=passes,
    )
    del vocab

    # each pass runs under its own probe
    probes: list[ContentionProbe] = []

    def one_pass() -> tuple[float, bytes | None, object]:
        gc.collect()
        probes.append(ContentionProbe())
        with probes[-1].watching():
            t0 = time.perf_counter()
            try:
                report = evaluation.run_detection_eval(
                    corpus, feature_cfg, kind, train_cfg, treebank=treebank
                )
            except Exception as err:  # a failed pass is counted, not fatal
                print(f"pass failed: {type(err).__name__}: {err}", file=sys.stderr)
                return time.perf_counter() - t0, None, None
            elapsed = time.perf_counter() - t0
        record = json.dumps(report.to_record(), sort_keys=True).encode()
        return elapsed, record, report

    # A traced run alternates untraced and traced passes; the untraced ones
    # price the tracing.  Every pass must give the same record.
    plain_times: list[float] = []
    traced_times: list[float] = []
    plain_probes: list[ContentionProbe] = []
    traced_probes: list[ContentionProbe] = []
    records: list[bytes | None] = []
    report = None
    # On a machine much slower than the reference one, no pass starts that
    # would end past --seconds, so a run keeps to its time.
    start = time.perf_counter()
    for i in range(passes):
        on = tracer is not None and i % 2 == 1
        with traced(on):
            elapsed, record, rep = one_pass()
        (traced_times if on else plain_times).append(elapsed)
        (traced_probes if on else plain_probes).append(probes[-1])
        records.append(record)
        report = rep if rep is not None else report
        if record is None:
            break
        corpus, treebank = load(loads_per_gap)
        if i >= 1 and time.perf_counter() - start + elapsed > args.seconds:
            break
    props["passes"] = len(records)

    # a pass fails when it raised or its record differs from the first good one
    good = [r for r in records if r is not None]
    failed_passes = sum(1 for r in records if r is None or r != good[0]) if good else len(records)
    if len(good) < len(records):
        problems.append(f"{len(records) - len(good)} LOO passes raised")
    elif failed_passes:
        problems.append("MetricsReport.to_record() differs between repeats")
    else:
        det = report.detection
        if det.tp + det.fn != gold_positives:
            problems.append(f"pooled tp+fn {det.tp + det.fn} != {gold_positives} gold positives")
    folds = corpus.M
    failed_ops = folds * failed_passes
    attempted = folds * len(records)

    out = {
        "correct": not problems and failed_ops == 0,
        "attempted": attempted,
        "failed": failed_ops,
        "problems": problems,
        "inputs": props,
        "pass_seconds": plain_times,
        "probe_us": [p.mean_us() for p in plain_probes],
    }
    if tracer:
        spans_of = tracer.summary
        layer = layer_metrics(
            spans_of({"evaluation.run_detection_eval"}), tracer.counters, len(traced_times),
            spans_of({"corpus.load_corpus", "trees.load_treebank"}),
        )
        layer["trace.overhead_frac"] = (
            median([p.uncontended(t) for p, t in zip(traced_probes, traced_times)])
            / median([p.uncontended(t) for p, t in zip(plain_probes, plain_times)]) - 1.0
            if traced_times else 0.0
        )
        tracer.dump(ROOT / ".perfbench" / f"trace-{workload}-seed{args.seed}.json",
                    {"workload": workload, "seed": args.seed, "traced_passes": len(traced_times)})
        out["metrics"] = layer
        out["absent"] = sorted(tracer.missing)
        return out

    # Each pass's wall time as it would read on an uncontended core, and the
    # median of the passes after the first, which warms up.  On the 2-core
    # reference VM, over seeds 1 to 10, this spread 0.04 to 0.11 between
    # processes on the LOO workloads; the slowest wall time, over another set
    # of the same seeds, spread 0.17 on loo-linear.
    uncontended = [p.uncontended(t) for p, t in zip(plain_probes, plain_times)]
    loo_s = median(uncontended[1:] or uncontended)
    f1 = report.detection.f1 if good else 0.0
    out["metrics"] = {
        "setup_s": min(setup_times),
        "peak_rss_mb": _peak_rss_mb(),
        "f1": f1,
        "latency_ms": loo_s * 1000.0,
    }
    short = {"linear-bow": "linear", "chain": "chain", "kernel-sstk": "kernel"}[kind]
    out["named"] = {
        f"loo_{short}_s": (loo_s, "s"),
        f"loo_{short}_wall_median_s": (median(plain_times[1:] or plain_times), "s"),
        f"loo_{short}_wall_max_s": (max(plain_times), "s"),
        "sentences_per_s": (n_sentences / loo_s, "1/s"),
        f"{short}_f1": (f1, "ratio"),
        "setup_s": (out["metrics"]["setup_s"], "s"),
        "setup_median_s": (setup_statistic(setup_times), "s"),
        "setup_loads": (len(setup_times), "count"),
        "probe_us": (median([p.mean_us() for p in plain_probes]), "us"),
        "peak_rss_mb": (out["metrics"]["peak_rss_mb"], "MB"),
        "failed_frac": (failed_ops / attempted if attempted else 1.0, "ratio"),
    }
    return out


def layer_metrics(summary: dict, counters: dict, per: int, setup: dict | None = None,
                  requests: int = 0) -> dict:
    """Per-layer metrics from span summaries.  Totals and counts are per LOO
    pass (``per`` passes traced) or for the whole traced window of the server."""
    setup = setup or {}

    def rec(name, source=None):
        return (source if source is not None else summary).get(name, {})

    def calls(name):
        return rec(name).get("calls", 0) / per

    def total(name):
        return rec(name).get("total_s", 0.0) / per

    def self_s(name):
        return rec(name).get("self_s", 0.0) / per

    def mean_ms(name, source=None):
        r = rec(name, source)
        return 1000.0 * r["total_s"] / r["calls"] if r.get("calls") else 0.0

    def q(name, p, source=None):
        return quantile(rec(name, source).get("durations", []), p)

    sstk = rec("treekernel.sstk")
    m = {
        "corpus.load_corpus_s": setup_statistic(rec("corpus.load_corpus", setup).get("durations", [0.0])),
        "corpus.segment_sentences_ms": mean_ms("corpus.segment_sentences", setup)
        or mean_ms("corpus.segment_sentences"),
        "trees.load_treebank_s": setup_statistic(rec("trees.load_treebank", setup).get("durations", [0.0])),
        "trees.parse_bracketed_calls": calls("trees.parse_bracketed"),
        "trees.parse_bracketed_s": total("trees.parse_bracketed"),
        "features.build_vocabulary_s": total("features.build_vocabulary"),
        "features.build_vocabulary_calls": calls("features.build_vocabulary"),
        "features.vectorize_all_s": total("features.vectorize_all"),
        "features.vectorize_all_ms": mean_ms("features.vectorize_all"),
        "features.sentences_vectorized": counters.get("features.sentences_vectorized", 0) / per,
        "svm.train_linear_s": total("svm.train_linear"),
        "svm.train_linear_calls": calls("svm.train_linear"),
        "svm.predict_linear_s": total("svm.predict_linear"),
        "svm.predict_linear_calls": calls("svm.predict_linear"),
        "svm.train_smo_s": total("svm.train_smo"),
        "svm.smo_iterations": counters.get("svm.smo_iterations", 0) / per,
        "svm.nonconverged_fits": counters.get("svm.nonconverged_fits", 0) / per,
        "treekernel.gram_matrix_s": total("treekernel.gram_matrix"),
        "treekernel.kernel_row_s": total("treekernel.kernel_row"),
        "treekernel.sstk_calls": calls("treekernel.sstk"),
        "treekernel.us_per_pair": 1e6 * sstk["total_s"] / sstk["calls"] if sstk.get("calls") else 0.0,
        "seqmodel.train_chain_s": total("seqmodel.train_chain"),
        "seqmodel.train_chain_self_s": self_s("seqmodel.train_chain"),
        "seqmodel.structured_objective_s": total("seqmodel.structured_objective"),
        "seqmodel.augmented_emissions_calls": calls("seqmodel.augmented_emissions"),
        "seqmodel.viterbi_s": total("seqmodel.viterbi"),
        "evaluation.fit_detection_fold_p50_s": median(rec("evaluation.fit_detection_fold").get("durations", [])),
        "evaluation.fit_detection_fold_max_s": max(rec("evaluation.fit_detection_fold").get("durations", [0.0])),
        "evaluation.run_detection_eval_self_s": self_s("evaluation.run_detection_eval"),
        "modelio.encode_s": total("modelio.encode"),
        "modelio.decode_s": total("modelio.decode"),
        "modelio.decode_calls_per_request": rec("modelio.decode").get("calls", 0) / requests if requests else 0.0,
        "modelio.canonical_json_ms": mean_ms("modelio.canonical_json"),
        "analyze.analyze_text_p50_ms": 1000.0 * median(rec("analyze.analyze_text").get("durations", [])),
        "analyze.analyze_text_p99_ms": 1000.0 * q("analyze.analyze_text", 0.99),
    }
    for name in ("service.http_overhead_ms", "service.queue_wait_ms", "service.generator_lag_ms",
                 "service.requests_sent", "service.requests_ok", "service.requests_failed",
                 "service.latency_p50_ms", "service.latency_p95_ms", "service.latency_p99_ms",
                 "trace.overhead_frac"):
        m[name] = 0.0
    return m


# ---------------------------------------------------------------------------
# serve-analyze
# ---------------------------------------------------------------------------

class Server:
    """One ``serve`` child process; ``start`` returns once /health answers."""

    _ids = itertools.count()

    def __init__(self, model: Path, work: Path, traced: bool, cpu: int):
        self.model = model
        self.cpu = cpu
        self.stats = work / f"server-{next(Server._ids)}.json"
        self.trace = self.stats.with_name(self.stats.stem + "-trace.json") if traced else None
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        cmd = [sys.executable, str(HERE / "serve_child.py"), "--model", str(self.model),
               "--cpu", str(self.cpu), "--stats-out", str(self.stats)]
        if self.trace:
            cmd += ["--trace-out", str(self.trace)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        # the child prints "listening on http://127.0.0.1:PORT (model: ...)" when bound
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        try:
            self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise Failure(f"server did not report its port: {line!r}") from None
        if not loadgen.wait_healthy(self.port, time.perf_counter() + START_TIMEOUT_S):
            self.stop()
            raise Failure("server did not answer /health")
        return time.perf_counter() - t0

    def cpu_s(self) -> float:
        """User plus system CPU seconds the child has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> dict:
        """Stop the child, wait for it, and return what it wrote on exit."""
        if self.proc is None:
            return {}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None
        try:
            return json.loads(self.stats.read_text())
        except (OSError, ValueError):
            return {}


def _served_f1(answers: dict[int, bytes], bodies) -> tuple[float, int]:
    """Detection F1 of the answers against the gold labels, and how many
    answers do not segment into the body's generated sentences."""
    tp = fp = fn = misaligned = 0
    for i, data in answers.items():
        flags = [s["detection"] for s in json.loads(data)["sentences"]]
        if len(flags) != len(bodies[i].labels):
            misaligned += 1
            continue
        for pred, gold in zip(flags, bodies[i].labels):
            tp += pred and gold
            fp += pred and not gold
            fn += gold and not pred
    return _f1(tp, fp, fn), misaligned


def run_serve(args, work: Path) -> dict:
    from claudette import analyze, cli, modelio

    docs = gen.text_corpus(args.seed)
    corpus_dir = work / "corpus"
    _write_corpus(corpus_dir, docs[:SERVE_TRAIN_DOCS])
    bodies = gen.request_bodies(docs[SERVE_TRAIN_DOCS:])
    model = work / "model.json"
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["train", "--task", "detect", "--model", "linear-bow",
                         "--corpus", str(corpus_dir), "--seed", "0", "--out", str(model)])
    if code != 0:
        raise Failure(f"train exited with {code}")
    bundle = modelio.load_model(model)
    payloads = [b.text.encode("utf-8") for b in bodies]
    expected = [analyze.result_json(analyze.analyze_text(bundle, b.text)) for b in bodies]
    lengths = [len(b.labels) for b in bodies]
    props = {
        "train_documents": SERVE_TRAIN_DOCS, "vocabulary_terms": bundle.vocabulary.size,
        "bodies": len(bodies), "body_sentences_min": min(lengths),
        "body_sentences_median": median(lengths), "body_sentences_max": max(lengths),
        "positive_share": sum(sum(b.labels) for b in bodies) / sum(lengths),
        "open_loop_rps": OPEN_LOOP_RPS, "connections": CONNECTIONS,
    }
    del bundle
    seconds = args.seconds
    problems: list[str] = []
    loops: list[loadgen.LoopResult] = []
    # The server runs on a core of its own, where there are two, so that the
    # probe in it watches the core its requests run on.
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cores[0]})
    server_cpu = cores[-1]

    def serve(traced: bool, open_s: float, closed_s: float):
        """Returns, among the loops, the open loop's server CPU per request
        and its probe mean: how contended the server's core was meanwhile."""
        server = Server(model, work, traced=traced, cpu=server_cpu)
        start_s = server.start()
        try:
            # untimed: every body once, so parity and F1 cover the whole pool
            covered = loadgen.each_once(server.port, payloads, expected, CONNECTIONS)
            cpu0 = server.cpu_s()
            open_start = time.perf_counter()
            opened = loadgen.open_loop(server.port, payloads, expected, OPEN_LOOP_RPS, open_s, CONNECTIONS)
            open_end = time.perf_counter()
            cpu_ms = 1000.0 * (server.cpu_s() - cpu0) / max(1, len(opened.samples))
            closed = loadgen.closed_loop(server.port, payloads, expected, closed_s, CONNECTIONS)
        finally:
            child = server.stop()
        if child.get("exit") != 0:
            problems.append(f"server exited with {child.get('exit')!r}")
        loops.extend((covered, opened, closed))
        probe = ContentionProbe([tuple(x) for x in child.get("probe", [])])
        probe_us = probe.mean_us(open_start, open_end)
        return start_s, covered, opened, closed, cpu_ms, probe_us, child, server.trace

    setup_times = []
    for _ in range(SERVER_STARTS - 1):
        extra = Server(model, work, traced=False, cpu=server_cpu)
        setup_times.append(extra.start())
        extra.stop()
    if args.trace:
        # the same open loop on an untraced server prices the tracing
        plain = serve(False, TRACE_OPEN_SHARE * seconds, 0.0)
        plain_cpu_ms = plain[4] * ContentionProbe.REFERENCE_US / plain[5]
        start_s, covered, opened, closed, cpu_ms, probe_us, child, trace_path = serve(
            True, TRACE_OPEN_SHARE * seconds, TRACE_CLOSED_SHARE * seconds)
    else:
        start_s, covered, opened, closed, cpu_ms, probe_us, child, trace_path = serve(
            False, OPEN_SHARE * seconds, CLOSED_SHARE * seconds)
    # open-loop times as they would read on an uncontended server core
    scale = ContentionProbe.REFERENCE_US / probe_us
    setup_times.append(start_s)

    samples = [s for loop in loops for s in loop.samples]
    unsent = sum(loop.unsent for loop in loops)
    failed = sum(loop.failed for loop in loops) + unsent
    if failed:
        problems.append(f"{failed} requests failed (status, body mismatch or timeout)")
    answers = covered.answers
    f1, misaligned = _served_f1(answers, bodies)
    if len(answers) < len(bodies):
        problems.append(f"only {len(answers)} of {len(bodies)} bodies were answered")
    if misaligned:
        problems.append(f"{misaligned} answers do not segment into the generated sentences")
    out = {
        "correct": not problems,
        "attempted": len(samples) + unsent,
        "failed": failed,
        "problems": problems,
        "inputs": props,
    }
    # a failed request misses any latency limit below the client timeout
    due_latency = [s.done - s.due if s.ok else max(s.done - s.due, loadgen.TIMEOUT_S)
                   for s in opened.samples]
    saturation = len(closed.ok) / closed.elapsed_s if closed.samples else 0.0

    if args.trace:
        if not trace_path.exists():
            raise Failure("the traced server wrote no spans")
        record = json.loads(trace_path.read_text())
        summary = record.get("summary", {})
        requests = summary.get("service.do_POST", {}).get("calls", 0)
        layer = layer_metrics(summary, record.get("counters", {}), 1, requests=requests)
        analyze_mean = summary.get("analyze.analyze_text", {})
        traced_samples = covered.samples + opened.samples + closed.samples
        traced_failed = covered.failed + opened.failed + closed.failed + opened.unsent
        send_latency = [s.done - s.sent for s in traced_samples]
        layer.update({
            "service.http_overhead_ms": 1000.0 * (
                statistics.fmean(send_latency)
                - (analyze_mean["total_s"] / analyze_mean["calls"] if analyze_mean.get("calls") else 0.0)
            ),
            "service.queue_wait_ms": 1000.0 * statistics.fmean(s.sent - s.due for s in opened.samples),
            "service.generator_lag_ms": 1000.0 * quantile(
                [s.sent - max(s.due, s.free) for s in opened.samples], 0.99),
            "service.requests_sent": len(traced_samples),
            "service.requests_ok": len(traced_samples) - traced_failed,
            "service.requests_failed": traced_failed,
            "service.latency_p50_ms": 1000.0 * quantile(due_latency, 0.5),
            "service.latency_p95_ms": 1000.0 * quantile(due_latency, 0.95),
            "service.latency_p99_ms": 1000.0 * quantile(due_latency, 0.99),
            # server CPU per request in the same open loop, traced over
            # untraced, each scaled to an uncontended core
            "trace.overhead_frac": cpu_ms * scale / plain_cpu_ms - 1.0 if plain_cpu_ms else 0.0,
        })
        dest = ROOT / ".perfbench" / f"trace-serve-analyze-seed{args.seed}.json"
        record.update(workload="serve-analyze", seed=args.seed)
        dest.write_text(json.dumps(record))
        out["metrics"] = layer
        out["absent"] = sorted(record["missing_targets"])
        return out

    peak_mb = child.get("peak_rss_kb", 0) / 1024.0
    if not peak_mb:
        problems.append("server did not report its peak RSS")
        out["correct"] = False
    out["metrics"] = {
        "setup_s": setup_statistic(setup_times),
        "peak_rss_mb": peak_mb,
        "f1": f1,
        "latency_ms": 1000.0 * quantile(due_latency, 0.5) * scale,
    }
    out["named"] = {
        "analyze_p50_ms": (1000.0 * quantile(due_latency, 0.5) * scale, "ms"),
        "analyze_p95_ms": (1000.0 * quantile(due_latency, 0.95) * scale, "ms"),
        "analyze_p99_ms": (1000.0 * quantile(due_latency, 0.99) * scale, "ms"),
        "analyze_p50_wall_ms": (1000.0 * quantile(due_latency, 0.5), "ms"),
        "analyze_p99_wall_ms": (1000.0 * quantile(due_latency, 0.99), "ms"),
        "server_probe_us": (probe_us, "us"),
        # back-to-back answers wait for the client's delayed ACK: the service
        # writes the headers and the body in two sends with Nagle on
        "closed_loop_p50_ms": (1000.0 * median([s.done - s.sent for s in closed.samples]), "ms"),
        "saturation_rps": (saturation, "1/s"),
        "server_cpu_ms_per_request": (cpu_ms, "ms"),
        "served_f1": (f1, "ratio"),
        "setup_s": (out["metrics"]["setup_s"], "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "failed_frac": (failed / out["attempted"], "ratio"),
        "open_loop_requests": (len(opened.samples), "count"),
        "closed_loop_requests": (len(closed.samples), "count"),
    }
    return out


WORKLOADS = ("loo-linear", "loo-chain", "loo-kernel", "serve-analyze")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="claudette benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except (Failure, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench"))
    try:
        if args.workload == "serve-analyze":
            result = run_serve(args, work)
        else:
            result = run_loo(args.workload, args, work)
    except Failure as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "inputs": result["inputs"],
        "problems": result["problems"],
    }
    if "named" in result:
        summary["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["named"].items()}
    if "pass_seconds" in result:
        summary["loo_passes_s"] = result["pass_seconds"]
        summary["loo_passes_probe_us"] = result["probe_us"]
    if args.trace:
        summary["absent_wrapper_targets"] = result["absent"]
    print(json.dumps(summary, sort_keys=True))
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
