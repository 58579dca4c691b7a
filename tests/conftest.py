from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from claudette.cli import main
from claudette.corpus import load_corpus
from claudette.features import Rows

FIXTURES = Path(__file__).parent / "fixtures"


def rows_from_pairs(rows, dim: int) -> Rows:
    """A ``Rows`` batch from one list of (index, value) pairs per row; each
    row's indices must be strictly increasing and within [0, dim)."""
    indptr, indices, data = [0], [], []
    for pairs in rows:
        idx = [int(i) for i, _ in pairs]
        if any(a >= b for a, b in zip(idx, idx[1:])) or any(not 0 <= i < dim for i in idx):
            raise ValueError(f"row indices {idx} are not strictly increasing within [0, {dim})")
        indices.extend(idx)
        data.extend(float(v) for _, v in pairs)
        indptr.append(len(indices))
    return Rows(
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=np.float64),
        dim,
    )


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def mini_dir() -> Path:
    return FIXTURES / "mini"


@pytest.fixture(scope="session")
def planted_dir() -> Path:
    return FIXTURES / "planted"


@pytest.fixture(scope="session")
def adjacency_dir() -> Path:
    return FIXTURES / "adjacency"


@pytest.fixture(scope="session")
def mini_corpus():
    return load_corpus(FIXTURES / "mini")


@pytest.fixture(scope="session")
def planted_corpus():
    return load_corpus(FIXTURES / "planted")


@pytest.fixture(scope="session")
def adjacency_corpus():
    return load_corpus(FIXTURES / "adjacency")


@pytest.fixture(scope="session")
def mini_kernel_model(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("kernel") / "k.json"
    train = ["train", "--task", "detect", "--model", "kernel-sstk", "--corpus", str(FIXTURES / "mini")]
    train += ["--trees", str(FIXTURES / "mini_trees.txt"), "--seed", "3", "--out", str(out)]
    assert main(train) == 0
    return out


@pytest.fixture(scope="session")
def mini_kernel_model_without_fallback(mini_kernel_model, tmp_path_factory) -> Path:
    """The mini kernel model file with its linear fallback deleted."""
    rec = json.loads(mini_kernel_model.read_text(encoding="utf-8"))
    del rec["fallback"]
    out = tmp_path_factory.mktemp("kernel") / "no_fallback.json"
    out.write_text(json.dumps(rec), encoding="utf-8")
    return out
