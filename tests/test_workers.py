"""``fork_map``: forked workers give the serial loop's results, bit for bit,
and its errors; a worker that dies is a typed error and leaves no child.
LOO folds and Gram fills fork only above their size limits."""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest
from conftest import reference_gram

from claudette import evaluation, svm, treekernel
from claudette.cli import main
from claudette.corpus import load_corpus
from claudette.features import FeatureConfig
from claudette.modelio import MODEL_KINDS, canonical_json_bytes
from claudette.treekernel import DEFAULT_LAMBDA, CompiledTrees, gram_matrix
from claudette.trees import load_treebank, parse_bracketed
from claudette.workers import WorkerFailed, fork_map, worker_count

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
FC = FeatureConfig(ngram_orders=(1,), min_df=2)
TC = svm.TrainConfig(seed=7, C=1.0)
CORES = [1, 2, 3]


def on_cores(monkeypatch, cores: int) -> None:
    """Make ``fork_map`` see ``cores`` CPUs, however many the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


@pytest.fixture(autouse=True)
def time_bound():
    """A hung worker fails the test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError("fork_map did not return within 300 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(300)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forking(monkeypatch):
    """Fork the folds and the Gram fills of even the smallest inputs."""
    monkeypatch.setattr(evaluation, "FORK_SENTENCES", 0)
    monkeypatch.setattr(treekernel, "GRAM_FORK_PAIRS", 0)


def fixture_trees(name: str) -> list:
    with open(os.path.join(FIXTURES, f"{name}_trees.txt"), encoding="utf-8") as f:
        return [parse_bracketed(line) for line in f if line.strip()]


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkMap:
    @pytest.mark.parametrize("cores", CORES)
    @pytest.mark.parametrize("n_items", [0, 1, 2, 7])
    def test_results_in_item_order(self, cores, n_items, monkeypatch):
        on_cores(monkeypatch, cores)
        assert fork_map(lambda x: (x, x * x), range(n_items)) == [(x, x * x) for x in range(n_items)]
        assert_no_child_left()

    def test_worker_count(self, monkeypatch):
        on_cores(monkeypatch, 3)
        assert [worker_count(n) for n in (0, 1, 2, 5)] == [1, 1, 2, 3]

    @pytest.mark.parametrize("cores", CORES)
    def test_first_error_in_item_order_as_the_serial_loop(self, cores, monkeypatch):
        def fn(x):
            if x == 3:
                raise svm.SingleClass(f"item {x}: kernel training requires both classes")
            if x == 4:  # later in item order, and first in its own share
                raise svm.EmptyData(f"item {x}")
            return x

        on_cores(monkeypatch, cores)
        with pytest.raises(svm.SingleClass) as raised:
            fork_map(fn, range(6))
        assert type(raised.value) is svm.SingleClass
        assert str(raised.value) == "item 3: kernel training requires both classes"
        assert_no_child_left()

    def test_killed_worker_is_a_typed_error(self, monkeypatch):
        parent = os.getpid()

        def fn(x):
            if x == 3 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        on_cores(monkeypatch, 2)  # item 3 is in the child's share
        with pytest.raises(WorkerFailed, match=f"killed by signal {int(signal.SIGKILL)}"):
            fork_map(fn, range(6))
        assert_no_child_left()

    def test_unpicklable_result_is_a_typed_error(self, monkeypatch):
        on_cores(monkeypatch, 2)
        with pytest.raises(WorkerFailed, match="could not send its results"):
            fork_map(lambda x: (lambda: x), range(2))
        assert_no_child_left()



def no_nested_fork_map(monkeypatch) -> list[str]:
    """Make every ``fork_map`` of the LOO folds and the Gram fills fail if it
    is entered from inside an item of another, in this process or in a
    worker; returns the names of the modules whose ``fork_map`` ran."""
    inside: list = []
    calls: list[str] = []
    for module in (evaluation, treekernel):
        def guarded(fn, items, name=module.__name__):
            assert not inside, f"{name} entered fork_map from inside a worker"
            calls.append(name)

            def item(x):
                inside.append(x)
                try:
                    return fn(x)
                finally:
                    inside.pop()

            return fork_map(item, items)

        monkeypatch.setattr(module, "fork_map", guarded)
    return calls


@pytest.mark.usefixtures("forking")
class TestNoForkMapInsideAWorker:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_loo_folds(self, kind, monkeypatch):
        calls = no_nested_fork_map(monkeypatch)
        on_cores(monkeypatch, 2)
        loo_record("mini", kind)
        gram = ["claudette.treekernel"] if kind == "kernel-sstk" else []
        assert calls == gram + ["claudette.evaluation"]
        assert_no_child_left()

    def test_gram_fill(self, monkeypatch):
        calls = no_nested_fork_map(monkeypatch)
        on_cores(monkeypatch, 2)
        gram_matrix(fixture_trees("adjacency"))
        assert calls == ["claudette.treekernel"]
        assert_no_child_left()

    def test_the_guard_sees_a_call_in_a_forked_worker(self, monkeypatch):
        parent = os.getpid()
        no_nested_fork_map(monkeypatch)
        on_cores(monkeypatch, 2)  # item 1 is in the child's share
        with pytest.raises(AssertionError, match="from inside a worker"):
            evaluation.fork_map(lambda x: x if os.getpid() == parent else treekernel.fork_map(abs, [x]), range(2))
        assert_no_child_left()


def loo_record(corpus_name: str, kind: str) -> bytes:
    corpus = load_corpus(os.path.join(FIXTURES, corpus_name))
    treebank = None
    if kind == "kernel-sstk":
        treebank = load_treebank(os.path.join(FIXTURES, f"{corpus_name}_trees.txt"), corpus)
    report = evaluation.run_detection_eval(corpus, FC, kind, TC, treebank=treebank)
    return canonical_json_bytes(report.to_record())


@pytest.mark.usefixtures("forking")
class TestParallelEqualsSerial:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("corpus_name", ["mini", "adjacency"])
    def test_loo_record(self, corpus_name, kind, monkeypatch):
        records = []
        for cores in CORES:
            on_cores(monkeypatch, cores)
            records.append(loo_record(corpus_name, kind))
        assert records[1] == records[0] and records[2] == records[0]

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("name", ["mini", "planted", "adjacency"])
    def test_gram_bytes(self, name, normalize, monkeypatch):
        # planted and adjacency cut into many blocks, so every worker fills some
        trees = fixture_trees(name)
        matrices = []
        for cores in CORES:
            on_cores(monkeypatch, cores)
            matrices.append(gram_matrix(trees, normalize=normalize).matrix.tobytes())
        assert matrices[1] == matrices[0] and matrices[2] == matrices[0]
        assert matrices[0] == reference_gram(trees, DEFAULT_LAMBDA, normalize).tobytes()

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs at least 2 CPUs")
    def test_folds_run_in_several_processes(self, planted_corpus, monkeypatch):
        compute_metrics = evaluation.compute_metrics

        def tagging(gold, pred):
            counts = compute_metrics(gold, pred)
            counts.warnings.append(f"pid {os.getpid()}")
            return counts

        monkeypatch.setattr(evaluation, "compute_metrics", tagging)
        report = evaluation.run_detection_eval(planted_corpus, FC, "linear-bow", TC)
        pids = [w for w in report.warnings if w.startswith("pid ")]
        assert len(pids) == planted_corpus.M and len(set(pids)) >= 2


def gram_pairs(trees: list) -> int:
    """The node pairs ``gram_matrix`` counts for ``trees``."""
    nodes = CompiledTrees(trees, DEFAULT_LAMBDA, normalize=False).nodes
    n = len(trees)
    return treekernel._blocks(nodes, nodes, np.arange(n), np.full(n, n))[3]


class TestForkOnlyAboveTheLimits:
    def test_below_the_limits_nothing_forks(self, monkeypatch):
        def refuse():
            raise AssertionError("os.fork was called")

        adjacency = fixture_trees("adjacency")
        assert load_corpus(os.path.join(FIXTURES, "mini")).N < evaluation.FORK_SENTENCES
        assert gram_pairs(adjacency) < treekernel.GRAM_FORK_PAIRS
        on_cores(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", refuse)
        loo_record("mini", "kernel-sstk")
        gram_matrix(adjacency)

    def test_above_the_limits_both_fork(self, monkeypatch):
        forks = []
        fork = os.fork

        def counting():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        twice = fixture_trees("adjacency") * 2
        assert gram_pairs(twice) >= treekernel.GRAM_FORK_PAIRS
        on_cores(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", counting)
        gram_matrix(twice)
        assert len(forks) == 1
        # planted's Gram fills in this process and its folds fork
        assert load_corpus(os.path.join(FIXTURES, "planted")).N >= evaluation.FORK_SENTENCES
        assert gram_pairs(fixture_trees("planted")) < treekernel.GRAM_FORK_PAIRS
        loo_record("planted", "kernel-sstk")
        assert len(forks) == 2
        assert_no_child_left()


@pytest.mark.usefixtures("forking")
def test_cli_exits_1_when_a_fold_worker_dies(monkeypatch, capsys):
    parent = os.getpid()
    fit = evaluation.fit_detection_fold

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fit(*args)

    on_cores(monkeypatch, 2)
    monkeypatch.setattr(evaluation, "fit_detection_fold", dying)
    argv = ["evaluate", "--corpus", os.path.join(FIXTURES, "mini"), "--model-kind", "linear-bow", "--seed", "7"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: worker process ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert_no_child_left()
