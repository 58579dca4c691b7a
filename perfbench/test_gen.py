"""Tests of the benchmark's own input generator and metric lists.

    python3 -m pytest perfbench/test_gen.py -q
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def all_inputs(seed: int):
    docs = gen.text_corpus(seed)
    return docs, gen.kernel_corpus(seed), gen.request_bodies(docs[run.SERVE_TRAIN_DOCS:])


# Digest of every input made from seed 1.  A change to the generator changes
# every workload, so it must be deliberate: update this value with it.
SEED_1_DIGEST = "59e09da2692cd836e5dacd10a4aee41d3c6cc8fbd82c0daa5253328e74542d91"


def test_seed_1_inputs_are_pinned():
    assert digest(all_inputs(1)) == SEED_1_DIGEST


def test_same_seed_same_inputs():
    assert all_inputs(3) == all_inputs(3)


def test_same_seed_same_inputs_in_a_fresh_process():
    code = (
        "import sys, hashlib; sys.path.insert(0, %r); import test_gen; "
        "print(test_gen.digest(test_gen.all_inputs(3)))" % str(HERE)
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == digest(all_inputs(3))


def test_seed_changes_inputs():
    a, b = all_inputs(1), all_inputs(2)
    assert a[0] != b[0] and a[1] != b[1] and a[2] != b[2]


def _tokens(item) -> list[str]:
    """Every word of a document, kernel document or body, in order."""
    texts = [*getattr(item, "sentences", ()), *getattr(item, "trees", ()), getattr(item, "text", "")]
    return " ".join(texts).lower().replace(",", " ").replace(".", " ").replace("(", " ").replace(")", " ").split()


def test_seeds_differ_only_in_spelling():
    """Two seeds give the same inputs up to a one-to-one renaming of words."""
    for a, b in zip(all_inputs(1), all_inputs(2)):
        renamed: dict[str, str] = {}
        for x, y in zip(a, b):
            assert x.labels == y.labels
            tx, ty = _tokens(x), _tokens(y)
            assert len(tx) == len(ty)
            for wx, wy in zip(tx, ty):
                assert renamed.setdefault(wx, wy) == wy
        assert len(set(renamed.values())) == len(renamed)
        assert any(k != v for k, v in renamed.items())


def test_cost_shape_does_not_depend_on_the_seed():
    for seed in (1, 2, 3):
        text, kernel, bodies = all_inputs(seed)
        assert len(text) == gen.TEXT_DOCS
        assert {len(d.sentences) for d in text} == {gen.TEXT_SENTENCES_PER_DOC}
        assert [sum(d.labels) for d in text] == [
            gen.RUN_LENGTHS[i % len(gen.RUN_LENGTHS)] + 1 for i in range(gen.TEXT_DOCS)
        ]
        assert len(kernel) == gen.KERNEL_DOCS
        assert all(sum(d.labels) == gen.KERNEL_POSITIVES_PER_DOC for d in kernel)
        lo, hi = gen.KERNEL_DEPTH
        assert all(lo <= x <= hi for d in kernel for x in d.depths)
        held_out = text[run.SERVE_TRAIN_DOCS:]
        assert sum(len(b.labels) for b in bodies) == sum(len(d.sentences) for d in held_out)


def test_generator_does_not_import_the_program():
    code = (
        "import sys; sys.path.insert(0, %r); import gen; gen.text_corpus(1); gen.kernel_corpus(1); "
        "print(any(m.split('.')[0] == 'claudette' for m in sys.modules))" % str(HERE)
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_benchmark_json_lists_the_metrics_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def traced_outer():
    time.sleep(0.01)
    traced_inner()


def traced_inner():
    time.sleep(0.02)


def test_tracer_self_time_and_missing_targets():
    original = traced_outer
    tracer = spans.Tracer()
    tracer.install([
        (__name__, "traced_outer", "outer", None),
        (__name__, "traced_inner", "inner", None),
        (__name__, "no_such_function", "gone", None),
        ("no_such_module_here", "f", "gone", None),
    ])
    try:
        traced_outer()
    finally:
        tracer.uninstall()
    assert traced_outer is original
    summary = tracer.summary()
    assert summary["outer"]["calls"] == summary["inner"]["calls"] == 1
    outer, inner = summary["outer"], summary["inner"]
    assert abs(outer["self_s"] - (outer["total_s"] - inner["total_s"])) < 1e-9
    assert "gone" not in summary
    assert tracer.missing == [f"{__name__}.no_such_function", "no_such_module_here.f"]
    (sid, parent, root, name, _, _), (osid, oparent, oroot, oname, _, _) = tracer.spans
    assert (name, oname) == ("inner", "outer") and parent == osid == root == oroot and oparent == 0
