"""In-memory span tracer installed by wrapping module attributes.

Each target is a function looked up by its callers as a module global or a
class attribute, for example ``claudette.treekernel.sstk`` (called from inside
``gram_matrix`` as a global, so those calls count too).  Wrapping replaces the
attribute; ``uninstall`` puts the original back.  A target that no longer
exists is recorded as missing and reports a count of 0 instead of failing, so
a refactor that removes a call shows up as a count drop.

Spans keep their parent and root ids per thread, so the spans of one request
share the root span id of its ``do_POST``.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path


def _smo_hook(tracer: "Tracer", result) -> None:
    tracer.count("svm.smo_iterations", len(getattr(result, "objective_trace", ())))
    _convergence_hook(tracer, result)


def _convergence_hook(tracer: "Tracer", result) -> None:
    if "no-convergence" in (getattr(result, "warning", None) or ""):
        tracer.count("svm.nonconverged_fits")


def _vectorize_hook(tracer: "Tracer", result) -> None:
    tracer.count("features.sentences_vectorized", len(result))


# (module, attribute path, span name, hook on the result)
LOO_TARGETS = [
    ("claudette.corpus", "load_corpus", "corpus.load_corpus", None),
    ("claudette.corpus", "segment_sentences", "corpus.segment_sentences", None),
    ("claudette.trees", "load_treebank", "trees.load_treebank", None),
    ("claudette.trees", "parse_bracketed", "trees.parse_bracketed", None),
    ("claudette.evaluation", "run_detection_eval", "evaluation.run_detection_eval", None),
    ("claudette.evaluation", "fit_detection_fold", "evaluation.fit_detection_fold", None),
    ("claudette.evaluation", "build_vocabulary", "features.build_vocabulary", None),
    ("claudette.evaluation", "vectorize_all", "features.vectorize_all", _vectorize_hook),
    ("claudette.svm", "train_linear", "svm.train_linear", _convergence_hook),
    ("claudette.svm", "predict_linear", "svm.predict_linear", None),
    ("claudette.svm", "train_smo", "svm.train_smo", _smo_hook),
    ("claudette.svm", "predict_kernel", "svm.predict_kernel", None),
    ("claudette.treekernel", "gram_matrix", "treekernel.gram_matrix", None),
    ("claudette.treekernel", "kernel_row", "treekernel.kernel_row", None),
    ("claudette.treekernel", "sstk", "treekernel.sstk", None),
    ("claudette.seqmodel", "train_chain", "seqmodel.train_chain", None),
    ("claudette.seqmodel", "structured_objective", "seqmodel.structured_objective", None),
    ("claudette.seqmodel", "augmented_emissions", "seqmodel.augmented_emissions", None),
    # per-step helpers of train_chain, wrapped so its self time is the dense
    # shrink and averaging it does itself
    ("claudette.seqmodel", "_decode", "seqmodel.decode", None),
    ("claudette.seqmodel", "score_path", "seqmodel.score_path", None),
    ("claudette.seqmodel", "_apply_update", "seqmodel.apply_update", None),
    ("claudette.seqmodel", "viterbi", "seqmodel.viterbi", None),
    # evaluation imports these from modelio at call time
    ("claudette.modelio", "vocabulary_record", "modelio.encode", None),
    ("claudette.modelio", "linear_payload", "modelio.encode", None),
    ("claudette.modelio", "kernel_payload", "modelio.encode", None),
    ("claudette.modelio", "chain_payload", "modelio.encode", None),
    ("claudette.modelio", "vocabulary_from_record", "modelio.decode", None),
    ("claudette.modelio", "linear_from_payload", "modelio.decode", None),
    ("claudette.modelio", "kernel_from_payload", "modelio.decode", None),
    ("claudette.modelio", "chain_from_payload", "modelio.decode", None),
]

SERVE_TARGETS = [
    ("claudette.service", "AnalyzeHandler.do_POST", "service.do_POST", None),
    ("claudette.service", "analyze_text", "analyze.analyze_text", None),
    ("claudette.service", "result_json", "analyze.result_json", None),
    ("claudette.analyze", "segment_sentences", "corpus.segment_sentences", None),
    ("claudette.analyze", "vectorize_all", "features.vectorize_all", _vectorize_hook),
    ("claudette.analyze", "linear_from_payload", "modelio.decode", None),
    ("claudette.analyze", "chain_from_payload", "modelio.decode", None),
    ("claudette.analyze", "kernel_from_payload", "modelio.decode", None),
    ("claudette.analyze", "category_from_payload", "modelio.decode", None),
    ("claudette.analyze", "canonical_json_bytes", "modelio.canonical_json", None),
    ("claudette.svm", "predict_linear", "svm.predict_linear", None),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value), or None if anything is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []  # id, parent, root, name, t0, t1
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def _wrap(self, fn, name: str, hook):
        tracer = self
        local = self._local
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent, root = (stack[-1][0], stack[-1][1]) if stack else (0, sid)
            stack.append((sid, root))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, root, name, t0, t1))
            if hook is not None:
                hook(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets) -> None:
        for module_name, path, name, hook in targets:
            found = _resolve(module_name, path)
            if found is None:
                if f"{module_name}.{path}" not in self.missing:
                    self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, value = found
            self._installed.append((owner, attr, value))
            setattr(owner, attr, self._wrap(value, name, hook))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    @contextlib.contextmanager
    def active(self, targets):
        """The wrappers are installed for the duration of a ``with`` block."""
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self, roots: set[str] | None = None) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and every duration.
        With ``roots``, only spans under a root span of one of those names."""
        root_names = {sid: name for sid, parent, _, name, _, _ in self.spans if not parent}
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent:
                child_time[parent] += t1 - t0
        out: dict[str, dict] = {}
        for sid, _, root, name, t0, t1 in self.spans:
            if roots is not None and root_names.get(root) not in roots:
                continue
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
            rec["durations"].append(t1 - t0)
        return out

    def dump(self, path: Path, extra: dict | None = None) -> None:
        """Write the summary, counters and raw spans (times relative to the
        first span) as one JSON document."""
        base = min((s[4] for s in self.spans), default=0.0)
        record = {
            "missing_targets": self.missing,
            "counters": dict(self.counters),
            "summary": self.summary(),
            "spans": [
                [sid, parent, root, name, round((t0 - base) * 1e6), round((t1 - t0) * 1e6)]
                for sid, parent, root, name, t0, t1 in self.spans
            ],
            "span_fields": ["id", "parent", "root", "name", "start_us", "duration_us"],
        }
        if extra:
            record.update(extra)
        path.write_text(json.dumps(record), encoding="utf-8")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 1))))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
